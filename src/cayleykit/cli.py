"""Command-line interface: distances, intervals, censuses, medians, caches.

Output is deterministic: identical invocations produce byte-identical text,
JSON, CSV, and DOT.  Exit codes: 2 for malformed models or elements, 3 for
operations a model cannot support (or unreachable targets), 4 for integrity
failures (corrupt caches, violated internal invariants).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cayley import (
    DEFAULT_WORD_CAP,
    DistanceOracle,
    build_oracle,
    cache_path,
    default_cache_dir,
    save_table_cache,
    verify_table_cache,
)
from .classify import DEFAULT_ISO_CAP, RELATIONS, census, classify, in_normaliser, normaliser
from .errors import (
    CacheError,
    CapabilityError,
    ElementSyntaxError,
    InvariantError,
    ModelError,
    UnreachableError,
)
from .groups import SymmetricModel, parse_model
from .intervals import (
    IntervalStats,
    build_interval,
    interval_stats,
    interval_to_dot,
    interval_to_json,
    partial_interval,
)
from .median import make_triangle, median_report

MODEL_HELP = (
    "model descriptor: sym-circular:N, sym-adjacent:N, "
    "sym-custom:N:<gen;gen;...>, cyclic:N[:semigroup], z2"
)


def _add_model_arg(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, metavar="SPEC", help=MODEL_HELP)


def _add_oracle_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--strategy",
        choices=("analytic", "table", "bidirectional"),
        default=None,
        help="override the automatic distance strategy",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory of distance-table caches (default: $CAYLEYKIT_CACHE_DIR)",
    )


def _oracle(args) -> DistanceOracle:
    model = parse_model(args.model)
    cache_dir = getattr(args, "cache_dir", None) or default_cache_dir()
    strategy = getattr(args, "strategy", None)
    return build_oracle(model, strategy=strategy, cache_dir=cache_dir)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _profile_text(profile) -> str:
    return ",".join(str(c) for c in profile)


# -- dist ---------------------------------------------------------------------


def cmd_dist(args) -> int:
    oracle = _oracle(args)
    model = oracle.model
    g = model.parse_element(args.source)
    h = model.parse_element(args.target)
    d = oracle.distance(g, h)
    if args.format == "json":
        _emit_json(
            {
                "model": model.name,
                "source": model.format_element(g),
                "target": model.format_element(h),
                "distance": d,
            }
        )
    else:
        print(d)
    return 0


# -- geodesics ----------------------------------------------------------------


def cmd_geodesics(args) -> int:
    oracle = _oracle(args)
    model = oracle.model
    g = model.parse_element(args.source)
    h = model.parse_element(args.target)
    result = oracle.geodesics(g, h, enumerate_words=args.enumerate, cap=args.cap)
    gens = model.generating_set.generators
    fmt = model.format_element
    words = [[fmt(gens[j]) for j in word] for word in result.words]
    if args.format == "json":
        data = {
            "model": model.name,
            "source": fmt(g),
            "target": fmt(h),
            "distance": result.distance,
            "count": result.count,
            "truncated": result.truncated,
        }
        if args.enumerate:
            data["words"] = words
        _emit_json(data)
        return 0
    print(f"distance: {result.distance}")
    print(f"count: {result.count}")
    if args.enumerate:
        for word in words:
            print(" ".join(word) if word else "e")
        if result.truncated:
            print(f"truncated: enumeration capped at {args.cap}")
    return 0


# -- interval -----------------------------------------------------------------


def _stats_dict(stats: IntervalStats) -> dict:
    return {
        "size": stats.size,
        "length": stats.length,
        "rank_profile": list(stats.rank_profile),
        "geodesic_count": stats.geodesic_count,
        "max_antichain": stats.max_antichain,
        "is_sperner": stats.is_sperner,
        "is_lattice": stats.is_lattice,
    }


def cmd_interval(args) -> int:
    oracle = _oracle(args)
    model = oracle.model
    g = model.parse_element(args.bottom)
    h = model.parse_element(args.top)
    fmt = model.format_element

    if args.partial is not None:
        if args.format == "dot":
            raise ModelError("dot output requires the full interval, not --partial")
        part = partial_interval(oracle, g, h, args.partial)
        if args.format == "json":
            _emit_json(
                {
                    "model": model.name,
                    "bottom": fmt(g),
                    "top": fmt(h),
                    "length": part.length,
                    "k": part.k,
                    "front_profile": list(part.front_profile),
                    "back_profile": list(part.back_profile),
                    "front_sets": [[fmt(x) for x in rs] for rs in part.front_sets],
                    "back_sets": [[fmt(x) for x in rs] for rs in part.back_sets],
                }
            )
            return 0
        print(f"model: {model.name}")
        print(f"bottom: {fmt(g)}")
        print(f"top: {fmt(h)}")
        print(f"length: {part.length}")
        print(f"front profile: {_profile_text(part.front_profile)}")
        print(f"back profile: {_profile_text(part.back_profile)}")
        for i, rs in enumerate(part.front_sets):
            print(f"front {i}: " + " ".join(fmt(x) for x in rs))
        for j, rs in enumerate(part.back_sets):
            print(f"back {j}: " + " ".join(fmt(x) for x in rs))
        return 0

    interval = build_interval(oracle, g, h)
    if args.format == "dot":
        sys.stdout.write(interval_to_dot(interval))
        return 0
    stats = interval_stats(interval) if args.stats else None
    if args.format == "json":
        data = interval_to_json(interval)
        if stats is not None:
            data["stats"] = _stats_dict(stats)
        _emit_json(data)
        return 0
    print(f"model: {model.name}")
    print(f"bottom: {fmt(interval.bottom)}")
    print(f"top: {fmt(interval.top)}")
    print(f"length: {interval.length}")
    print(f"size: {interval.size}")
    print(f"profile: {_profile_text(interval.rank_profile)}")
    for i, rs in enumerate(interval.rank_sets):
        print(f"rank {i}: " + " ".join(fmt(x) for x in rs))
    if stats is not None:
        print(f"geodesics: {stats.geodesic_count}")
        print(f"max antichain: {stats.max_antichain}")
        print(f"sperner: {'yes' if stats.is_sperner else 'no'}")
        print(f"lattice: {'yes' if stats.is_lattice else 'no'}")
    return 0


# -- classify -----------------------------------------------------------------


def cmd_classify(args) -> int:
    oracle = _oracle(args)
    model = oracle.model
    if args.all:
        if not model.is_finite:
            raise CapabilityError(f"--all needs a finite model, not {model.name}")
        elements = list(model.elements())
    else:
        if not args.elements:
            raise ModelError("no elements given; list elements or pass --all")
        elements = [model.parse_element(s) for s in args.elements]
    result = classify(oracle, elements, args.relation, iso_size_cap=args.iso_cap)
    fmt = model.format_element
    numeric = args.relation != "iso"
    if args.format == "json":
        _emit_json(
            {
                "model": model.name,
                "relation": result.relation,
                "classes": [
                    {
                        "signature": result.signatures[i] if numeric else None,
                        "members": [fmt(g) for g in members],
                    }
                    for i, members in enumerate(result.classes)
                ],
                "unclassified": [fmt(g) for g in result.unclassified],
            }
        )
        return 0
    print(f"relation: {result.relation}")
    for i, members in enumerate(result.classes):
        label = f"class {i}"
        if numeric:
            label += f" (signature {result.signatures[i]})"
        print(f"{label}: " + " ".join(fmt(g) for g in members))
    if result.unclassified:
        print("unclassified: " + " ".join(fmt(g) for g in result.unclassified))
    return 0


# -- census -------------------------------------------------------------------


def cmd_census(args) -> int:
    model = parse_model(args.model)
    relation = args.relation
    if relation is None:
        relation = "length" if args.figure == 5 else "size"
    result = census(model, relation, workers=args.workers)
    if args.format == "json":
        rows = [
            [sig, result.counts[sig], result.representatives[sig]]
            for sig in sorted(result.counts)
        ]
        _emit_json(
            {
                "model": result.model_name,
                "relation": result.relation,
                "total": result.total,
                "rows": rows,
            }
        )
        return 0
    for line in result.csv_rows():
        print(line)
    return 0


# -- median -------------------------------------------------------------------


def cmd_median(args) -> int:
    oracle = _oracle(args)
    model = oracle.model
    corners = [model.parse_element(s) for s in (args.c0, args.c1, args.c2)]
    triangle = make_triangle(model, *corners)
    check = args.parity_check or (
        isinstance(model, SymmetricModel) and model.kind == "circular"
    )
    report = median_report(oracle, triangle, parity_check=check)
    if args.format == "json":
        _emit_json(report)
        return 0
    print(f"model: {report['model']}")
    print("corners: " + " ".join(report["corners"]))
    print(f"deltas: {_profile_text(report['deltas'])}")
    print(f"interior: {report['interior_size']}")
    print(f"weight: {report['weight']}")
    print("medians: " + " ".join(report["medians"]))
    if report["parity_ok"] is not None:
        print(f"parity ok: {'yes' if report['parity_ok'] else 'no'}")
    return 0


# -- normaliser ---------------------------------------------------------------


def cmd_normaliser(args) -> int:
    model = parse_model(args.model)
    fmt = model.format_element
    if args.check is not None:
        sigma = model.parse_element(args.check)
        member = in_normaliser(model, sigma)
        if args.format == "json":
            _emit_json({"model": model.name, "element": fmt(sigma), "member": member})
        else:
            print("yes" if member else "no")
        return 0
    result = normaliser(model, mode="enumerate")
    members = sorted(result.members)
    if args.format == "json":
        data = {"model": model.name, "order": result.order}
        if args.enumerate:
            data["members"] = [fmt(g) for g in members]
        _emit_json(data)
        return 0
    print(f"model: {model.name}")
    print(f"order: {result.order}")
    if args.enumerate:
        for g in members:
            print(fmt(g))
    return 0


# -- cache --------------------------------------------------------------------


def _resolved_cache_dir(args) -> Path:
    cache_dir = args.cache_dir or default_cache_dir()
    if cache_dir is None:
        raise ModelError("no cache directory; pass --cache-dir or set CAYLEYKIT_CACHE_DIR")
    return Path(cache_dir)


def cmd_cache_build(args) -> int:
    model = parse_model(args.model)
    cache_dir = _resolved_cache_dir(args)
    oracle = DistanceOracle(model, "table")
    path = save_table_cache(model, oracle.lengths, cache_path(model, cache_dir))
    print(f"wrote {path} ({len(oracle.lengths)} distances)")
    return 0


def cmd_cache_verify(args) -> int:
    model = parse_model(args.model)
    path = cache_path(model, _resolved_cache_dir(args))
    if not path.exists():
        raise CacheError(f"{path}: no cache file")
    verify_table_cache(model, path)
    print(f"ok {path}")
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleykit",
        description="Geodesics, graded intervals, and medians on Cayley graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="geodesic distance between two elements")
    _add_model_arg(p)
    _add_oracle_args(p)
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("geodesics", help="count (and list) geodesic words")
    _add_model_arg(p)
    _add_oracle_args(p)
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--enumerate", action="store_true", help="list the words")
    p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP, help="word list cap")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_geodesics)

    p = sub.add_parser("interval", help="graded interval between two elements")
    _add_model_arg(p)
    _add_oracle_args(p)
    p.add_argument("bottom")
    p.add_argument("top")
    p.add_argument("--stats", action="store_true", help="add poset statistics")
    p.add_argument(
        "--partial",
        type=int,
        default=None,
        metavar="K",
        help="only the first and last K grades",
    )
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(handler=cmd_interval)

    p = sub.add_parser("classify", help="partition elements by interval invariants")
    _add_model_arg(p)
    _add_oracle_args(p)
    p.add_argument("--relation", choices=RELATIONS, required=True)
    p.add_argument("--all", action="store_true", help="classify every group element")
    p.add_argument("elements", nargs="*", help="elements to classify")
    p.add_argument(
        "--iso-cap",
        type=int,
        default=DEFAULT_ISO_CAP,
        help="skip isomorphism testing above this interval size",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("census", help="full-group histogram of an interval invariant")
    _add_model_arg(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--relation", choices=("length", "size"))
    group.add_argument(
        "--figure",
        type=int,
        choices=(5, 6),
        help="preset sweep: 5 = length histogram, 6 = interval-size histogram",
    )
    p.add_argument("--workers", type=int, default=1, help="parallel sweep processes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("median", help="exact medians of a three-corner configuration")
    _add_model_arg(p)
    _add_oracle_args(p)
    p.add_argument("c0")
    p.add_argument("c1")
    p.add_argument("c2")
    p.add_argument(
        "--parity-check",
        action="store_true",
        help="require the even pairwise-distance check (circular sets only)",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_median)

    p = sub.add_parser("normaliser", help="normaliser of the generating set")
    _add_model_arg(p)
    p.add_argument("--enumerate", action="store_true", help="list the members")
    p.add_argument("--check", metavar="ELT", help="test one element for membership")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_normaliser)

    p = sub.add_parser("cache", help="build or verify distance-table caches")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pb = cache_sub.add_parser("build", help="compute and write the table")
    _add_model_arg(pb)
    pb.add_argument("--cache-dir", default=None, metavar="DIR")
    pb.set_defaults(handler=cmd_cache_build)
    pv = cache_sub.add_parser("verify", help="check an existing table file")
    _add_model_arg(pv)
    pv.add_argument("--cache-dir", default=None, metavar="DIR")
    pv.set_defaults(handler=cmd_cache_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ElementSyntaxError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, UnreachableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CacheError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
