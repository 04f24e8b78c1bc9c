"""Spans around calls into cayleykit's public functions, for the traced run.

A traced run installs wrappers, written here and not in the package, around
the public functions of each module (``cayleykit.intervals.build_interval``,
``DistanceOracle.ball`` and so on).  Every module-level binding of a wrapped
function is replaced, so calls the package makes between its own modules are
recorded too: ``medians`` shows ``interior``, which shows ``deltas`` and
``ball`` beneath it.  Hot per-element functions (``perm_rank``,
``DistanceOracle.distance``) are not wrapped; the benchmark times them at its
own call sites instead.

Each span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("ranking", "groups", "cayley", "intervals", "median", "classify", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "op": self.op,
            "start": perf_counter(),
            "end": None,
            "error": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, attrs=None, result_attrs=None):
        """fn inside a span; attrs(args, kwargs) and result_attrs(result, args) add counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(args, kwargs) if attrs else {})) as rec:
                out = fn(*args, **kwargs)
                if result_attrs:
                    rec["attrs"].update(result_attrs(out, args))
                return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _Off:
    """Stand-in when tracing is off: spans cost one call and record nothing."""

    op = None

    @contextmanager
    def span(self, name, **attrs):
        yield None


OFF = _Off()


def _oracle_attrs(args, kwargs):
    return {"strategy": args[0].strategy}


def _size_attrs(interval, args):
    return {"elements": interval.size, "cover_edges": len(interval.cover_edges)}


def install(tracer: Tracer):
    """Wrap cayleykit's public functions in spans; returns a function that undoes it."""
    # the package re-exports a function named classify, so fetch modules by path
    cayley, classify, groups, intervals, median, ranking = (
        importlib.import_module(f"cayleykit.{name}")
        for name in ("cayley", "classify", "groups", "intervals", "median", "ranking")
    )

    def oracle_attrs(_, args):
        oracle = args[0]
        cache_dir = args[3] if len(args) > 3 else None
        return {"n": getattr(oracle.model, "n", None), "strategy": oracle.strategy,
                "cached": cache_dir is not None}

    functions = [
        (ranking, "rank_rows", None, None),
        (groups, "parse_model", lambda a, k: {"spec": a[0]}, None),
        (cayley, "load_table_cache", None, None),
        (cayley, "save_table_cache", None, None),
        (cayley, "verify_table_cache", None, None),
        (intervals, "build_interval", _oracle_attrs, _size_attrs),
        (intervals, "interval_stats", None, None),
        (intervals, "count_geodesics", None, None),
        (intervals, "max_antichain", None, None),
        (intervals, "is_lattice", None, None),
        (intervals, "order_isomorphic", None, None),
        (median, "deltas", None, None),
        (median, "interior", None, lambda r, a: {"elements": r.size}),
        (median, "medians", None, None),
        (classify, "census", lambda a, k: {"n": getattr(a[0], "n", None), "relation": a[1],
                                           "workers": k.get("workers", a[2] if len(a) > 2 else 1)}, None),
        (classify, "classify", lambda a, k: {"relation": a[2]}, None),
    ]
    modules = [m for name, m in sys.modules.items() if name == "cayleykit" or name.startswith("cayleykit.")]
    undo = []
    for home, fname, attrs, result_attrs in functions:
        orig = getattr(home, fname)
        wrapped = tracer.wrap(f"{home.__name__.split('.')[-1]}.{fname}", orig, attrs, result_attrs)
        for mod in modules:
            if getattr(mod, fname, None) is orig:
                setattr(mod, fname, wrapped)
                undo.append((mod, fname, orig))

    oracle = cayley.DistanceOracle
    methods = [
        ("__init__", "cayley.DistanceOracle", None, oracle_attrs),
        ("ball", "cayley.ball", None, lambda r, a: {"size": len(r)}),
        ("geodesics", "cayley.geodesics", None, lambda r, a: {"count": r.count}),
    ]
    for meth, name, attrs, result_attrs in methods:
        orig = oracle.__dict__[meth]
        setattr(oracle, meth, tracer.wrap(name, orig, attrs, result_attrs))
        undo.append((oracle, meth, orig))

    def uninstall():
        for owner, fname, orig in reversed(undo):
            setattr(owner, fname, orig)

    return uninstall


def self_times(spans: list[dict]) -> dict:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    children run inside their parent on one thread, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict = {}
    for rec, inner in zip(spans, child_time):
        dur = rec["end"] - rec["start"]
        entry = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - inner
    return out
