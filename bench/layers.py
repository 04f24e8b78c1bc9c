"""Per-layer metrics of a traced run, computed from its spans.

Timings are medians over every span of that name in the run (the workload's
own calls plus the layer probe), so one traced run of any workload reports
every metric.  Counts are sums over the run.  See README.md for which
end-to-end metric each of these should move, and on which workload.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, self_times

CLI_KINDS = ("dist_table", "dist_cached", "dist_custom", "interval_stats", "median",
             "geodesics_z2", "cache_verify")

PER_LAYER = [
    ("ranking.rank_rows_s", "s"),
    ("ranking.perm_rank_us", "us"),
    ("groups.parse_model_s", "s"),
    ("cayley.table_build_s", "s"),
    ("cayley.table_build_s9_s", "s"),
    ("cayley.cache_load_s", "s"),
    ("cayley.cache_verify_s", "s"),
    ("cayley.distance_us", "us"),
    ("cayley.bidir_distance_ms", "ms"),
    ("cayley.bidir_distance_sum", "count"),
    ("cayley.ball_ms", "ms"),
    ("cayley.ball_size", "count"),
    ("cayley.geodesics_ms", "ms"),
    ("intervals.build_interval_ms", "ms"),
    ("intervals.build_interval_bidir_ms", "ms"),
    ("intervals.count_geodesics_ms", "ms"),
    ("intervals.max_antichain_ms", "ms"),
    ("intervals.is_lattice_ms", "ms"),
    ("intervals.elements", "count"),
    ("intervals.cover_edges", "count"),
    ("median.deltas_ms", "ms"),
    ("median.interior_ms", "ms"),
    ("median.interior_elements", "count"),
    ("median.hit_ratio", "ratio"),
    ("classify.census_workers1_s", "s"),
    ("classify.census_workers2_s", "s"),
    ("cli.import_s", "s"),
    *[(f"cli.{kind}_ms", "ms") for kind in CLI_KINDS],
    *[(f"{layer}.failed", "count") for layer in LAYERS],
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("trace.overhead_ops_per_s", "1/s"),
]

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer(spans, sizes, loop, untraced, probe_failures, known_defect):
    """(metrics, notes): every PER_LAYER metric, and why any timing is empty."""
    notes = {}

    def timing(metric, name, where=lambda attrs: True, per_call=False):
        """Median duration of the matching spans, in the metric's unit."""
        xs = [(r["end"] - r["start"]) / (r["attrs"]["calls"] if per_call else 1)
              for r in spans if r["name"] == name and where(r["attrs"])]
        if not xs:
            notes[metric] = f"no matching {name} span in this run"
            return 0.0
        return statistics.median(xs) * SCALE[metric.rsplit("_", 1)[1]]

    def total(name, attr, parent=None):
        return sum(r["attrs"].get(attr, 0) for r in spans if r["name"] == name
                   and (parent is None or spans[r["parent"]]["name"] == parent))

    def table_build(n):
        return lambda a: a["n"] == n and a["strategy"] == "table" and not a["cached"]

    values = {
        "ranking.rank_rows_s": timing("ranking.rank_rows_s", "ranking.rank_rows_pass"),
        "ranking.perm_rank_us": timing("ranking.perm_rank_us", "ranking.perm_rank_loop", per_call=True),
        "groups.parse_model_s": timing("groups.parse_model_s", "groups.parse_model",
                                       lambda a: a["spec"].startswith("sym-custom")),
        "cayley.table_build_s": timing("cayley.table_build_s", "cayley.DistanceOracle",
                                       table_build(sizes.query)),
        "cayley.table_build_s9_s": timing("cayley.table_build_s9_s", "cayley.DistanceOracle",
                                          table_build(sizes.table)),
        "cayley.cache_load_s": timing("cayley.cache_load_s", "cayley.load_table_cache"),
        "cayley.cache_verify_s": timing("cayley.cache_verify_s", "cayley.verify_table_cache"),
        "cayley.distance_us": timing("cayley.distance_us", "cayley.distance_loop", per_call=True),
        "cayley.bidir_distance_ms": timing("cayley.bidir_distance_ms", "cayley.distance",
                                           lambda a: a["strategy"] == "bidirectional"),
        "cayley.bidir_distance_sum": total("cayley.distance", "d"),
        "cayley.ball_ms": timing("cayley.ball_ms", "cayley.ball"),
        "cayley.ball_size": total("cayley.ball", "size", parent="median.interior"),
        "cayley.geodesics_ms": timing("cayley.geodesics_ms", "cayley.geodesics"),
        "intervals.build_interval_ms": timing("intervals.build_interval_ms", "intervals.build_interval",
                                              lambda a: a["strategy"] == "table"),
        "intervals.build_interval_bidir_ms": timing("intervals.build_interval_bidir_ms",
                                                    "intervals.build_interval",
                                                    lambda a: a["strategy"] == "bidirectional"),
        "intervals.count_geodesics_ms": timing("intervals.count_geodesics_ms", "intervals.count_geodesics"),
        "intervals.max_antichain_ms": timing("intervals.max_antichain_ms", "intervals.max_antichain"),
        "intervals.is_lattice_ms": timing("intervals.is_lattice_ms", "intervals.is_lattice"),
        "intervals.elements": total("intervals.build_interval", "elements"),
        "intervals.cover_edges": total("intervals.build_interval", "cover_edges"),
        "median.deltas_ms": timing("median.deltas_ms", "median.deltas"),
        "median.interior_ms": timing("median.interior_ms", "median.interior"),
        "median.interior_elements": total("median.interior", "elements"),
        **{f"classify.census_workers{k}_s": timing(
            f"classify.census_workers{k}_s", "classify.census",
            lambda a, k=k: a["n"] == sizes.census_par and a["relation"] == "size" and a["workers"] == k)
           for k in (1, 2)},
        "cli.import_s": timing("cli.import_s", "cli.import"),
        "trace.overhead_ops_per_s": untraced.ops_per_s - loop.ops_per_s,
    }
    balls = values["cayley.ball_size"]
    values["median.hit_ratio"] = values["median.interior_elements"] / balls if balls else 0.0
    for kind in CLI_KINDS:
        values[f"cli.{kind}_ms"] = timing(f"cli.{kind}_ms", f"cli.{kind}")

    failed = dict.fromkeys(LAYERS, 0)
    for f in loop.failures:
        layer = f["layer"] if f["layer"] in failed else innermost_error_layer(spans, f["op"])
        failed[layer] += 1
    for layer, _ in probe_failures:
        failed[layer] += 1
    if known_defect is not None and not known_defect["ok"]:
        failed["cli"] += 1
    selfs = self_times(spans)
    for layer in LAYERS:
        values[f"{layer}.failed"] = failed[layer]
        values[f"{layer}.self_s"] = sum(v["self_s"] for k, v in selfs.items()
                                        if k.split(".")[0] == layer)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, notes


def innermost_error_layer(spans, op_id) -> str:
    """Layer of the deepest span of an op that raised; 'cli' when none did."""
    errored = [r for r in spans if r["op"] == op_id and r["error"] and r["name"].split(".")[0] in LAYERS]
    return errored[-1]["name"].split(".")[0] if errored else "cli"
