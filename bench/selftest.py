"""Self-test of the benchmark itself.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

1. A tiny-size run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, with their units, and checks out correct.
2. A deliberately wrong answer fed to each workload's checker is caught, and
   the timed loop counts it as a failed op with an infinite latency.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_tiny_runs_print_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(wl["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want, (wl, trace)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def make_ctx(tmp: Path) -> workloads.Context:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return workloads.Context(7, workloads.TINY, env, tmp, spans.OFF)


def corrupt(workload: str, kind: str, ans):
    """A plausible but wrong answer of the same shape."""
    if (workload, kind) == ("s10-bidir", "interval"):
        ans.rank_sets[1] = ans.rank_sets[1][1:]  # the profile no longer sums to the size
        return ans
    if kind == "interval":
        length, profile, stats = ans
        return length, profile, replace(stats, geodesic_count=stats.geodesic_count + 1)
    if kind == "median":
        return replace(ans, weight=ans.weight + 1)
    if kind == "geodesics":
        return replace(ans, count=ans.count * 2)
    if kind == "distance":
        return ans + 2  # parity still right, so only the exact-length check catches it
    if kind == "census_length":
        return replace(ans, counts={**ans.counts, 0: 2})
    if kind in ("census_size", "census_parallel"):
        sig = max(ans.counts)
        return replace(ans, counts={**ans.counts, sig: ans.counts[sig] - 1, sig + 1: 1})
    if kind == "classify_iso":
        return replace(ans, classes=ans.classes[1:])
    # cli: flip the last digit of the output
    out = ans.stdout
    i = max(i for i, ch in enumerate(out) if ch.isdigit())
    return subprocess.CompletedProcess(ans.args, 0, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:], "")


class Corrupting:
    """Wraps a workload so that one op kind always returns a wrong answer."""

    def __init__(self, wl, kind):
        self.wl, self.kind = wl, kind
        self.fixed_rounds = wl.fixed_rounds

    def rounds(self, rng, ctx):
        return self.wl.rounds(rng, ctx)

    def execute(self, op):
        ans = self.wl.execute(op)
        return corrupt(self.wl.name, op.kind, ans) if op.kind == self.kind else ans

    def check(self, op, ans):
        return self.wl.check(op, ans)


def test_wrong_answers_are_failed_ops():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        ctx = make_ctx(Path(tmp))
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            if name == "cli-cold":
                wl.setup_samples(ctx)  # writes the cache that cache_verify reads
            wl.prepare(ctx)
            for kind in dict.fromkeys(wl.mix):
                loop = bench.Loop(Corrupting(wl, kind), ctx, 7)
                loop.run(0.0)  # one round, or the workload's fixed count
                bad = [k for k in loop.kinds if k == kind]
                assert loop.failed == len(bad) > 0, (name, kind, loop.failures)
                assert all(f["kind"] == kind for f in loop.failures), (name, kind)
                assert sum(math.isinf(x) for x in loop.lat_ms) == len(bad)
                assert math.isclose(loop.ops_per_s * loop.busy, len(loop.lat_ms) - len(bad))


if __name__ == "__main__":
    test_wrong_answers_are_failed_ops()
    print("wrong answers: ok", flush=True)
    test_tiny_runs_print_every_metric()
    print("tiny runs: ok")
