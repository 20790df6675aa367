#!/usr/bin/env python3
"""Regenerate the committed corpus verdict table.

Run from the repository root after changing the corpus or the battery:

    python scripts/regen_golden.py

The table is the structured ``wrapcheck corpus`` report at budget 4000,
with the CLI's defaults of seed 0 and no float restarts.
"""

import pathlib
import sys

from wrapcheck import cli

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "corpus_verdicts.json"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    code = cli.main(["corpus", "--format", "structured", "--budget", "4000", "--out", str(GOLDEN)])
    if code == cli.EXIT_OK:
        print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
    sys.exit(code)
