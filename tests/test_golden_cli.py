"""Byte-for-byte CLI golden test: stdout, stderr and exit code of fixed calls.

tests/golden/cli.txt holds the transcript.  A change that should not move
any output must leave it as it is; to record a deliberate output change,
regenerate it with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.  Temporary paths print as <TMP>.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cayleykit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
TMP = "<TMP>"
CACHE = ("--cache-dir", TMP)

CASES = [
    ["dist", "--model", "sym-circular:7", "e", "(1,7)(2,6)(3,5)"],
    ["dist", "--model", "sym-circular:7", "(1,2)", "(1,3,5)(2,4)", "--format", "json"],
    ["cache", "build", "--model", "sym-circular:6", *CACHE],
    ["cache", "verify", "--model", "sym-circular:6", *CACHE],
    ["dist", "--model", "sym-circular:6", "e", "(1,6)(2,5)(3,4)", *CACHE],
    ["dist", "--model", "sym-custom:6:(1,2,3,4,5,6);(1,2)", "e", "(1,6)"],
    ["dist", "--model", "sym-custom:7:(1,2,3,4,5,6,7);(1,2)", "(1,3)", "(2,7)(4,5)"],
    ["dist", "--model", "sym-custom:5:(1,2);(3,4)", "e", "(1,5)"],
    ["dist", "--model", "sym-circular:10", "e", "(1,2)", "--strategy", "table"],
    ["dist", "--model", "z2", "(0,0)", "(4,-3)"],
    ["dist", "--model", "cyclic:9", "2", "8"],
    ["dist", "--model", "cyclic:9:semigroup", "2", "1"],
    ["interval", "--model", "sym-circular:5", "(1,2)", "(1,3)(2,4)", "--stats"],
    ["interval", "--model", "sym-circular:5", "e", "(1,5)(2,4)", "--stats",
     "--format", "json"],
    ["interval", "--model", "sym-circular:5", "e", "(1,3,5)", "--format", "dot"],
    ["interval", "--model", "sym-circular:6", "e", "(1,6)(2,5)(3,4)", "--partial", "2"],
    ["interval", "--model", "sym-circular:6", "e", "(1,4)(2,5)(3,6)", "--partial", "1",
     "--format", "json"],
    ["median", "--model", "sym-circular:5", "e", "(1,3)", "(2,4,5)"],
    ["median", "--model", "sym-circular:6", "e", "(1,4)", "(2,5,6)", "--format", "text"],
    ["census", "--model", "sym-circular:6", "--figure", "5"],
    ["census", "--model", "sym-circular:6", "--figure", "6"],
    ["classify", "--model", "sym-circular:5", "--relation", "iso", "--all"],
    ["geodesics", "--model", "sym-circular:6", "e", "(1,4)(2,5)(3,6)", "--enumerate",
     "--cap", "3"],
    ["normaliser", "--model", "sym-circular:6", "--enumerate"],
    ["dist", "--model", "sym-circular:4", "(1,9)", "e"],
    ["cache", "verify", "--model", "sym-circular:5", *CACHE],
]


def transcript() -> str:
    """Run every case in-process and return the combined record."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            argv = [tmp if a == TMP else a for a in case]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            parts.append(
                f"$ cayleykit {' '.join(case)}\n"
                f"exit: {code}\n"
                f"--- stdout\n{out.getvalue().replace(tmp, TMP)}"
                f"--- stderr\n{err.getvalue().replace(tmp, TMP)}"
            )
    return "\n".join(parts)


def test_cli_output_matches_the_golden_transcript():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
    sys.exit(0)
