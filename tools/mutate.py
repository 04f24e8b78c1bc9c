"""Mutation gate: every listed mutant must fail the tests named beside it.

Each entry of MUTANTS is (file, old text, new text, tests).  The old text
must occur exactly once in the file.  For each mutant the script copies
src/ and tests/ into a temporary directory, replaces the old text with the
new, and runs pytest with -x on the named test files or test ids there.  A
mutant is killed when pytest reports a failing test (exit 1), and survives
when the tests pass.  Any other outcome (old text not found, a collection
error) is reported as an error.

Run it from the repository root (it finds src/ and tests/ beside itself):

    python tools/mutate.py

It prints one line per mutant and then killed/total, and exits 1 if any
mutant survives or errs.

Known equivalent mutants, left off the list:

- `parent_sets_b[j] >= want_parents` for `parent_sets_b[j] == want_parents`
  in `intervals.order_isomorphic`.  Candidates in one color class share
  their in-degree (it is part of the refined color), and the partial
  mapping is injective, so |want_parents| equals the candidate's in-degree
  and a superset of that size is the set itself.
- `dist_to_end(y) <= n - i` for `dist_to_end(y) == n - i` in
  `intervals.grade_walk`.  y is within i steps of the start, which is n
  from the end, so the triangle inequality gives dist_to_end(y) >= n - i.
- `lengths[left] <= level - 1` or `lengths[left] < level` for
  `lengths[left] == level - 1` in `classify._interval_sizes`.  z = s (s^-1 z)
  gives l(s^-1 z) >= l(z) - 1 = level - 1, for directed sets too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # is_lattice tests only consecutive pairs of lower covers
    (
        "src/cayleykit/intervals.py",
        "for a, b in combinations(parents[i], 2):",
        "for a, b in zip(parents[i], parents[i][1:]):",
        ["tests/test_poset_stats.py"],
    ),
    # the half-perimeter bound of the median one too high
    (
        "src/cayleykit/median.py",
        "bound = (sum(sides) + 1) // 2",
        "bound = (sum(sides) + 3) // 2",
        ["tests/test_median.py"],
    ),
    # the size census without its order-reversing conjugators
    (
        "src/cayleykit/classify.py",
        "for source, inverted in ((gens, False), ([oracle.model.inverse(s) for s in gens], True)):",
        "for source, inverted in ((gens, False),):",
        ["tests/test_classify.py"],
    ),
    # translate_interval translating on the right
    (
        "src/cayleykit/intervals.py",
        "    mul = model.multiply\n    rank_sets = [[mul(t, x)",
        "    mul = lambda a, b: model.multiply(b, a)\n    rank_sets = [[mul(t, x)",
        ["tests/test_intervals.py"],
    ),
    # the search answering one more on a backward meet past depth 3
    (
        "src/cayleykit/cayley.py",
        "        return df + db\n",
        "        return df + db + (bwd_frontier is None and db > 3)\n",
        ["tests/test_cayley.py"],
    ),
    # the width one more on intervals of over 400 elements
    (
        "src/cayleykit/intervals.py",
        "return through[0] - cancelled",
        "return through[0] - cancelled + (m > 400)",
        ["tests/test_poset_stats.py"],
    ),
    # one isomorphism class per iso-profile bucket
    (
        "src/cayleykit/classify.py",
        "key = (repr(sig), k)",
        "key = (repr(sig), 0)",
        ["tests/test_classify.py"],
    ),
    # interval membership loosened to steps that may lead away from the top
    (
        "src/cayleykit/intervals.py",
        "dist_to_end(y) == n - i:",
        "dist_to_end(y) <= n - i + 2:",
        ["tests/test_acceptance.py::test_criterion_8_oracle_equivalence_and_membership"],
    ),
    # geodesic words with each element's steps pushed in generator order
    (
        "src/cayleykit/intervals.py",
        "for x, j, y in reversed(interval.cover_edges):",
        "for x, j, y in interval.cover_edges:",
        ["tests/test_cayley.py", "tests/test_golden_cli.py"],
    ),
    # the size census's walk also keeping steps that stay at one length
    (
        "src/cayleykit/classify.py",
        "keep = lengths[left] == level - 1",
        "keep = lengths[left] <= level",
        ["tests/test_classify.py::test_census_size_matches_interval_construction"],
    ),
    # the size census's walk counting each z once per path to it
    (
        "src/cayleykit/classify.py",
        "keys = np.unique((owner * order + left)[keep])",
        "keys = np.sort((owner * order + left)[keep])",
        ["tests/test_classify.py::test_census_size_matches_interval_construction"],
    ),
    # Z^2 words with the +x and -x letters swapped
    (
        "src/cayleykit/cayley.py",
        "(0 if dx >= 0 else 2, abs(dx))",
        "(2 if dx >= 0 else 0, abs(dx))",
        ["tests/test_cayley.py", "tests/test_golden_cli.py"],
    ),
]


def run_mutant(path: str, old: str, new: str, tests: list) -> str:
    """'killed', 'survived' or an error message for one mutant."""
    with tempfile.TemporaryDirectory(prefix="cayleykit-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"error: old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


def main() -> int:
    killed = 0
    for path, old, new, tests in MUTANTS:
        started = time.monotonic()
        outcome = run_mutant(path, old, new, tests)
        killed += outcome == "killed"
        print(f"{outcome:8} {time.monotonic() - started:6.1f}s  {path}: {new.strip()!r}", flush=True)
    print(f"{killed}/{len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
