"""cayleykit benchmark: run one workload on one seed, untraced or traced.

    python3 bench/run.py --workload s8-query --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is loaded from ./src.  The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, taken from spans.  The line before
it is a JSON detail record (environment, mix, sample counts, known defects).
See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# set before numpy loads, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAYLEYKIT_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("s8-query", "s10-bidir", "census", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small groups, for the self-test")
    return p.parse_args(argv)


TAIL_BATCH = 250


def latency_summary(lat_ms: list, batch: int) -> dict:
    """Median, and the tail: the highest percentile with 10 samples beyond it.

    The tail is taken in each batch of `batch` consecutive ops and the median
    over batches is reported, so the percentile does not climb, and grow
    noisier, as a faster program or host fits more ops into the run.  A batch
    is TAIL_BATCH ops (p96) on time-bounded workloads and one round on
    fixed-round ones; a run shorter than a batch is one batch.  In a batch of
    20 ops or fewer that percentile would sit at or below the median, so the
    batch's maximum is its tail.
    """
    n = len(lat_ms)
    size = min(batch, n)
    beyond = 0 if size <= 20 else 10
    tails = [sorted(lat_ms[i : i + size])[size - 1 - beyond] for i in range(0, n - size + 1, size)]
    return {"p50_ms": statistics.median(lat_ms), "tail_ms": statistics.median(tails),
            "tail_percentile": 100.0 * (size - beyond) / size, "samples": n,
            "tail_batches": len(tails), "batch_size": size, "beyond_tail": beyond}


class Loop:
    """Closed loop over rounds of ops; times ops only, checks them between ops."""

    def __init__(self, wl, ctx, seed):
        self.wl, self.ctx = wl, ctx
        self.rng = random.Random(seed)
        self.lat_ms: list = []
        self.kinds: list = []
        self.busy = 0.0
        self.failed = 0
        self.failures: list = []

    def run(self, seconds: float):
        """Time-bounded rounds, or exactly wl.fixed_rounds of them when it is set."""
        from workloads import Failure

        tracer = self.ctx.tracer
        fixed = self.wl.fixed_rounds
        last_round = 0.0
        for done, ops in enumerate(self.wl.rounds(self.rng, self.ctx)):
            if fixed is not None and done == fixed:
                break
            if fixed is None and self.lat_ms and self.busy + last_round > seconds:
                break
            start_busy = self.busy
            for op in ops:
                op_id = len(self.lat_ms)
                tracer.op = op_id
                error = None
                with tracer.span(f"op.{op.kind}"):
                    t0 = perf_counter()
                    try:
                        ans = self.wl.execute(op)
                    except Exception as exc:  # an exception is a failed op, not a crash
                        error = ("exception", f"{type(exc).__name__}: {exc}")
                    dt = perf_counter() - t0
                tracer.op = None
                self.busy += dt
                if error is None:
                    try:
                        self.wl.check(op, ans)
                    except Failure as exc:
                        error = (exc.layer, str(exc))
                self.kinds.append(op.kind)
                if error is None:
                    self.lat_ms.append(dt * 1e3)
                else:
                    self.lat_ms.append(float("inf"))
                    self.failed += 1
                    self.failures.append({"op": op_id, "kind": op.kind, "layer": error[0],
                                          "message": error[1][:300]})
            last_round = self.busy - start_busy

    @property
    def ops_per_s(self) -> float:
        return (len(self.lat_ms) - self.failed) / self.busy

    def per_kind(self) -> dict:
        out = {}
        for kind in dict.fromkeys(self.kinds):
            xs = [x for k, x in zip(self.kinds, self.lat_ms) if k == kind]
            out[kind] = {"count": len(xs), "p50_ms": statistics.median(xs)}
        return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cayleykit" / "__init__.py").is_file():
        print(f"error: no cayleykit package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import layers
    import spans
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tracer = spans.Tracer() if args.trace else spans.OFF
    sizes = workloads.TINY if args.tiny else workloads.FULL
    ctx = workloads.Context(args.seed, sizes, env, tmp, tracer)
    wl = workloads.WORKLOADS[args.workload]()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "mix": list(wl.mix),
    }
    try:
        setup = wl.setup_samples(ctx)
        wl.prepare(ctx)
        correct = True
        if args.workload == "cli-cold" or args.trace:
            detail["known_defect"] = workloads.run_known_defect(ctx)
        if args.trace:
            ctx.tracer = spans.OFF  # the same loop untraced, for the tracing overhead
            untraced = Loop(wl, ctx, args.seed)
            untraced.run(args.seconds)
            ctx.tracer = tracer
            uninstall = spans.install(tracer)
            try:
                loop = Loop(wl, ctx, args.seed)
                loop.run(args.seconds)
                probe_failures = workloads.probe(ctx)
            finally:
                uninstall()
            correct = not probe_failures and not untraced.failed
            detail["probe_failures"] = probe_failures
            metrics, notes = layers.per_layer(tracer.spans, sizes, loop, untraced, probe_failures,
                                              detail.get("known_defect"))
            detail["per_layer_notes"] = notes
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
            detail["self_times"] = spans.self_times(tracer.spans)
        else:
            loop = Loop(wl, ctx, args.seed)
            loop.run(args.seconds)
            lat = latency_summary(loop.lat_ms, len(wl.mix) if wl.fixed_rounds else TAIL_BATCH)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
                "latency_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
                "ops_per_s": {"value": loop.ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
            }
            detail["latency"] = lat
        detail.update(
            setup_samples_s=setup, busy_s=loop.busy, per_kind=loop.per_kind(),
            failed_frac=loop.failed / len(loop.lat_ms), failures=loop.failures[:20],
        )
        correct = correct and loop.failed == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": len(loop.lat_ms), "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
