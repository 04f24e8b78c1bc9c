"""Byte-for-byte CLI golden test: stdout, stderr and exit code of fixed calls.

tests/golden/cli.txt holds the transcript.  A change that should not move
any output must leave it as it is; to record a deliberate output change,
regenerate it with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.  Temporary paths print as <TMP>.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

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
    ["classify", "--model", "sym-circular:5", "--relation", "paths", "--all"],
    ["classify", "--model", "sym-circular:5", "--relation", "size", "--all",
     "--format", "json"],
    ["interval", "--model", "sym-custom:5:(1,2,3)(4,5);(1,2,3);(1,4)", "e", "(4,5)",
     "--stats"],
    ["geodesics", "--model", "sym-adjacent:5", "e", "(1,5)(2,4)"],
    ["geodesics", "--model", "sym-custom:6:(1,2,3,4,5,6);(1,2)", "e", "(2,6)",
     "--format", "json"],
    ["census", "--model", "sym-circular:6", "--relation", "length", "--format", "json"],
    ["geodesics", "--model", "sym-circular:6", "e", "(1,4)(2,5)(3,6)", "--enumerate",
     "--cap", "3"],
    ["geodesics", "--model", "z2", "(3,-2)", "(-4,5)", "--format", "json"],
    ["geodesics", "--model", "z2", "(0,0)", "(0,0)"],
    ["geodesics", "--model", "z2", "(1,1)", "(1,-5)", "--enumerate"],
    ["geodesics", "--model", "z2", "(0,0)", "(2,3)", "--enumerate", "--cap", "4"],
    ["geodesics", "--model", "cyclic:8", "1", "5"],
    ["normaliser", "--model", "sym-circular:6", "--enumerate"],
    ["dist", "--model", "sym-circular:4", "(1,9)", "e"],
    ["cache", "verify", "--model", "sym-circular:5", *CACHE],
    ["median", "--model", "sym-circular:8", "(1,5,3)(2,7)", "(4,8,6)", "(1,8)(2,3)",
     "--format", "text"],
    ["median", "--model", "sym-circular:9", "(1,5,3)(2,7)", "(4,9,6)", "(1,8)(2,3)(5,9)",
     "--format", "text"],
    ["median", "--model", "sym-custom:6:(1,2,3,4,5,6);(1,6,5,4,3,2);(1,2)", "(1,3)",
     "(2,5,4)", "(1,6)(3,4)"],
    ["median", "--model", "sym-adjacent:6", "e", "(1,4)", "(2,5,6)"],
    ["median", "--model", "sym-circular:6", "(1,3,5)", "(1,3,5)", "(1,3,5)"],
    ["interval", "--model", "sym-circular:7", "e", "(1,4,5)(2,7)", "--stats"],
    ["interval", "--model", "sym-circular:7", "e", "(1,3,4,6)(5,7)", "--stats"],
    ["interval", "--model", "sym-custom:6:(1,2,3,4,5,6);(1,2)", "e", "(1,3,5)", "--stats"],
    ["interval", "--model", "z2", "(0,0)", "(12,7)", "--stats", "--format", "json"],
    ["census", "--model", "sym-circular:7", "--figure", "6"],
    ["census", "--model", "sym-adjacent:7", "--figure", "6"],
    ["census", "--model", "sym-custom:6:(1,2);(1,2,3,4,5,6)", "--figure", "6"],
    ["census", "--model", "sym-circular:8", "--figure", "6"],
    ["census", "--model", "sym-custom:8:(1,2);(1,2,3,4,5,6,7,8)", "--figure", "6"],
    ["census", "--figure", "6", "--workers", "2", "--model", "sym-circular:6"],
    ["normaliser", "--model", "sym-adjacent:6", "--enumerate"],
    ["normaliser", "--model", "sym-custom:6:(1,2);(1,2,3,4,5,6)", "--enumerate"],
    ["normaliser", "--model", "sym-circular:9", "--enumerate"],
    ["classify", "--model", "sym-circular:6", "--relation", "iso", "--all"],
    ["classify", "--model", "sym-custom:5:(1,2);(1,2,3,4,5)", "--relation", "iso", "--all"],
    ["classify", "--model", "sym-circular:5", "--relation", "iso", "--all", "--iso-cap", "6"],
    ["classify", "--model", "sym-circular:5", "--relation", "iso", "--all", "--iso-cap", "-1"],
    ["census", "--model", "cyclic:9", "--figure", "6"],
    ["census", "--model", "cyclic:7:semigroup", "--relation", "length", "--format", "json"],
    ["classify", "--model", "cyclic:8:semigroup", "--relation", "paths", "--all"],
    ["geodesics", "--model", "sym-circular:6", "--strategy", "bidirectional", "e",
     "(1,4)(2,5)(3,6)"],
    ["classify", "--model", "sym-circular:5", "--relation", "bogus", "--all"],
    ["census", "--model", "sym-circular:5", "--relation", "iso"],
    ["dist", "--model", "sym-circular:5", "e", "(1,2)", "--strategy", "bogus"],
    ["geodesics", "--model", "sym-circular:8", "e", "(1,5)(2,6)(3,7)(4,8)", "--enumerate",
     "--cap", "5"],
    ["geodesics", "--model", "sym-circular:10", "e", "(1,2)(3,4)", "--enumerate"],
    ["geodesics", "--model", "cyclic:7:semigroup", "2", "6", "--enumerate"],
    ["geodesics", "--model", "sym-adjacent:5", "e", "(1,4)", "--enumerate"],
    ["geodesics", "--model", "sym-circular:5", "(1,2)", "(1,2)", "--enumerate"],
    ["geodesics", "--model", "z2", "(0,0)", "(3,2)", "--enumerate", "--cap", "0"],
    ["dist", "--model", "sym-circular:10", "(1,2)", "(3,6,9)(4,10)"],
    ["interval", "--model", "sym-circular:5", "e", "(1,3)(2,4)", "--partial", "1", "--stats"],
    ["geodesics", "--model", "sym-circular:5", "e", "(1,3)(2,4)", "--enumerate", "--cap", "-1"],
    ["dist", "--model", "sym-circular:9", "e", "(1,5,9,4,8,3,7,2,6)"],
    ["dist", "--model", "sym-custom:9:(1,2);(1,2,3,4,5,6,7,8,9)", "e", "(1,2)(3,9,4,8,5,7,6)",
     "--format", "json"],
    ["dist", "--model", "sym-circular:8", "(1,3,5)(2,8)", "(1,3,5)(2,8)"],
    ["dist", "--model", "sym-circular:9", "e", "(1,10)"],
    ["dist", "--model", "sym-circular:9", "--strategy", "table", "(1,2)", "(1,5,9)(2,6)(3,7)"],
]


def _run(argv) -> int:
    """main(argv)'s exit code, including the one argparse raises as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def transcript() -> str:
    """Run every case in-process and return the combined record.

    COLUMNS is fixed at 80 while the cases run: argparse wraps its usage
    lines at the terminal width.
    """
    parts = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        for case in CASES:
            argv = [tmp if a == TMP else a for a in case]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = _run(argv)
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
