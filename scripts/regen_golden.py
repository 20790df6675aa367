#!/usr/bin/env python3
"""Regenerate the committed golden files.

Run from the repository root after changing the corpus, the battery or
the float stage of the embedding search:

    python scripts/regen_golden.py

It writes two files under ``tests/golden``:

- ``corpus_verdicts.json``: the structured ``wrapcheck corpus`` report
  at budget 4000, with the CLI's defaults of seed 0 and no float
  restarts;
- ``float_stage_outcomes.json``: the float-stage search alone (budget
  0, three restarts) on ten rings with known embeddings, at restart
  seeds 0-3, recorded exactly (``repr`` of every float).
"""

import json
import pathlib
import sys

from wrapcheck import cli, descriptor, embed

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN = GOLDEN_DIR / "corpus_verdicts.json"
FLOAT_GOLDEN = GOLDEN_DIR / "float_stage_outcomes.json"

FLOAT_RINGS = (
    "t2", "t3", "t4", "cp2", "cp3", "s2xs2",
    "cp2_1_1", "sum2_s2xs2", "sum3_s2xs2", "cp2_3_3",
)
FLOAT_SEEDS = (0, 1, 2, 3)
FLOAT_RESTARTS = 3


def _witness(outcome) -> dict | None:
    m = outcome.morphism
    if m is None:
        return None
    return {
        "mode": m.mode,
        "assignment": {
            name: [[mask, str(c)] for mask, c in mv.items()] for name, mv in m.assignment.items()
        },
    }


def float_stage_outcomes() -> list[dict]:
    """Every float-stage search of the table, in ring-then-seed order."""
    paths = {p.name.removesuffix(".descriptor"): p for p in cli.corpus_paths()}
    rows = []
    for name in FLOAT_RINGS:
        d = descriptor.parse_descriptor_file(paths[name])
        for seed in FLOAT_SEEDS:
            out = embed.search_embedding(
                d.cohomology, d.n, budget=0, float_restarts=FLOAT_RESTARTS, seed=seed
            )
            rows.append(
                {
                    "ring": name,
                    "seed": seed,
                    "status": out.status,
                    "trial_index": out.trial_index,
                    "residual": repr(out.residual),
                    "best_residual": repr(out.best_residual),
                    "fc_norm": repr(out.fc_norm),
                    "witness": _witness(out),
                }
            )
    return rows


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    code = cli.main(["corpus", "--format", "structured", "--budget", "4000", "--out", str(GOLDEN)])
    if code != cli.EXIT_OK:
        sys.exit(code)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
    rows = [json.dumps(row) for row in float_stage_outcomes()]
    FLOAT_GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {FLOAT_GOLDEN} ({FLOAT_GOLDEN.stat().st_size} bytes)", file=sys.stderr)
    sys.exit(cli.EXIT_OK)
