#!/usr/bin/env python3
"""Regenerate the committed golden files.

Run from the repository root after changing the corpus, the battery or
the float stage of the embedding search:

    python scripts/regen_golden.py

It writes three files under ``tests/golden``:

- ``corpus_verdicts.json``: the structured ``wrapcheck corpus`` report
  at budget 4000, with the CLI's defaults of seed 0 and no float
  restarts;
- ``float_stage_outcomes.json``: the float-stage search alone (budget
  0, three restarts) on ten rings with known embeddings, at restart
  seeds 0-3, recorded exactly (``repr`` of every float);
- ``commands.json``: the exit code, stdout and stderr of every argv in
  ``COMMANDS``, run in process through ``cli.main``.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from wrapcheck import cli, descriptor, embed

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN = GOLDEN_DIR / "corpus_verdicts.json"
FLOAT_GOLDEN = GOLDEN_DIR / "float_stage_outcomes.json"
COMMANDS_GOLDEN = GOLDEN_DIR / "commands.json"

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


# descriptors outside the corpus, written to a temporary directory
EXTRA_DESCRIPTORS = {
    # nothing kills x w or w^2: the CLI reports the truncation
    "unforced": "name: a\nn: 2\n[cohomology]\ngenerators: x:1 w:2\nfundamental_class: w\n"
    "[pi1]\ntype: Z\n",
    # the embedding search stops at Lambda*(Q^32)
    "s33": "name: s33\nn: 33\n[cohomology]\ngenerators: w:33\nfundamental_class: w\n"
    "[pi1]\ntype: finite\n",
}
CORPUS = tuple(p.name.removesuffix(".descriptor") for p in cli.corpus_paths())
FORMATS = ("text", "structured")

# an argument @name is the path of the corpus or extra descriptor name
COMMANDS = (
    *(("lie", f"@{name}", "--format", fmt) for name in CORPUS for fmt in FORMATS),
    *(("check", "@cp2_4_0", "--budget", "4000", "--format", fmt) for fmt in FORMATS),
    ("check", "@t2", "--budget", "200"),
    ("check", "@unforced", "--no-embed"),
    ("check", "@s33"),
    ("check", "@s33", "--no-embed", "--format", "structured"),
    *(
        ("embed", "@cp2", "--budget", "0", "--float-restarts", "1", "--format", fmt)
        for fmt in FORMATS
    ),
    ("embed", "@s2xs2", "--n", "3", "--budget", "200"),
    ("embed", "@t4", "--n", "3"),
    ("embed", "@s33"),
    *(("corpus", "--budget", "200", "--format", fmt) for fmt in FORMATS),
    *(
        ("surface", "--family", family, "--format", fmt)
        for family in ("euclidean", "hyperbolic")
        for fmt in FORMATS
    ),
    ("surface", "--family", "power-log", "--epsilon", "0.5"),
    ("surface", "--family", "power-log"),
    ("map", "--map", "sphere-wrap", "--radii", "4,8", "--step", "0.5", "--samples", "2000"),
    ("map", "--map", "join", "--radii", "2,4", "--step", "0.5"),
    ("map", "--map", "torus-collapse", "--radii", "2,4", "--step", "0.5"),
    ("map", "--map", "identity", "--n", "3", "--radii", "2,4", "--step", "0.5"),
    ("map", "--map", "sphere-wrap", "--n", "3", "--radii", "4", "--step", "1"),
)


def command_outcomes() -> list[dict]:
    """Every argv of ``COMMANDS`` through ``cli.main``, in order, with
    what it wrote to stdout and stderr."""
    paths = {p.name.removesuffix(".descriptor"): str(p) for p in cli.corpus_paths()}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in EXTRA_DESCRIPTORS.items():
            paths[name] = str(pathlib.Path(tmp) / f"{name}.descriptor")
            pathlib.Path(paths[name]).write_text(text)
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([paths[a[1:]] if a.startswith("@") else a for a in argv])
            rows.append(
                {
                    "argv": list(argv),
                    "exit": code,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
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
    rows = [json.dumps(row) for row in command_outcomes()]
    COMMANDS_GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {COMMANDS_GOLDEN} ({COMMANDS_GOLDEN.stat().st_size} bytes)", file=sys.stderr)
    sys.exit(cli.EXIT_OK)
