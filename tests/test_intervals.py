"""Graded intervals: construction, poset analytics, isomorphism, exports."""

from __future__ import annotations

import ast
import json
import random
from functools import cached_property
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import (
    ModelError,
    adjacent_model,
    build_interval,
    build_oracle,
    circular_model,
    count_geodesics,
    custom_model,
    interval_stats,
    interval_to_dot,
    interval_to_json,
    is_lattice,
    is_sperner,
    max_antichain,
    order_isomorphic,
    partial_interval,
    prefix_le,
    translate_interval,
    z2_model,
)
from cayleykit.intervals import GradedInterval


def _interval_le(oracle, g, x, y):
    """x <= y inside [g, h]: x lies on a geodesic from g through y."""
    return oracle.distance(g, x) + oracle.distance(x, y) == oracle.distance(g, y)


def _brute_max_antichain(oracle, interval):
    els = [x for rs in interval.rank_sets for x in rs]
    g = interval.bottom
    best = 0
    for size in range(len(els), 0, -1):
        if size <= best:
            break
        for subset in combinations(els, size):
            ok = True
            for x, y in combinations(subset, 2):
                if _interval_le(oracle, g, x, y) or _interval_le(oracle, g, y, x):
                    ok = False
                    break
            if ok:
                best = size
                break
        if best:
            break
    return best


def _brute_is_lattice(oracle, interval):
    els = [x for rs in interval.rank_sets for x in rs]
    g = interval.bottom
    le = {
        (x, y): _interval_le(oracle, g, x, y) for x in els for y in els
    }
    for x, y in combinations(els, 2):
        uppers = [z for z in els if le[(x, z)] and le[(y, z)]]
        lowers = [z for z in els if le[(z, x)] and le[(z, y)]]
        join = [u for u in uppers if all(le[(u, v)] for v in uppers)]
        meet = [l for l in lowers if all(le[(v, l)] for v in lowers)]
        if not join or not meet:
            return False
    return True


def test_z2_interval_fixtures():
    oracle = build_oracle(z2_model())
    line = build_interval(oracle, (0, 0), (4, 0))
    assert line.size == 5
    assert count_geodesics(line) == 1
    square = build_interval(oracle, (0, 0), (2, 2))
    assert square.size == 9
    assert count_geodesics(square) == 6
    grid = build_interval(oracle, (0, 0), (4, 3))
    assert grid.rank_profile == (1, 2, 3, 4, 4, 3, 2, 1)
    assert grid.size == 20
    assert grid.length == 7


def test_interval_is_the_between_set():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(2)
    for _ in range(15):
        g = rng.choice(everyone)
        h = rng.choice(everyone)
        interval = build_interval(oracle, g, h)
        d = oracle.distance(g, h)
        expected = {
            x for x in everyone if oracle.distance(g, x) + oracle.distance(x, h) == d
        }
        assert {x for rs in interval.rank_sets for x in rs} == expected
        assert interval.size == len(expected)
        for i, rs in enumerate(interval.rank_sets):
            for x in rs:
                assert oracle.distance(g, x) == i


def test_interval_contains_and_profile():
    model = circular_model(4)
    oracle = build_oracle(model)
    interval = build_interval(oracle, model.identity, model.parse_element("(1,3,4,2)"))
    assert model.parse_element("(1,2)") in interval
    assert model.parse_element("(2,3)") not in interval
    assert interval.rank_profile == (1, 3, 3, 1)
    assert sum(interval.rank_profile) == interval.size == 8


def test_prefix_le():
    model = circular_model(4)
    oracle = build_oracle(model)
    e = model.identity
    s1 = model.parse_element("(1,2)")
    top = model.parse_element("(1,3,4,2)")
    assert prefix_le(oracle, e, s1)
    assert prefix_le(oracle, s1, top)
    assert not prefix_le(oracle, top, s1)
    assert not prefix_le(oracle, model.parse_element("(2,3)"), top)
    sub = custom_model(4, ["(1,2)"], require_generating=False)
    sub_oracle = build_oracle(sub, strategy="table")
    assert not prefix_le(sub_oracle, sub.identity, sub.parse_element("(1,3)"))


def test_translate_interval_preserves_structure():
    model = circular_model(5)
    oracle = build_oracle(model)
    g = model.parse_element("(1,2)")
    h = model.parse_element("(1,3,5)")
    t = model.parse_element("(2,4,3)")
    interval = build_interval(oracle, g, h)
    moved = translate_interval(interval, t)
    assert moved.rank_profile == interval.rank_profile
    assert moved.bottom == model.multiply(t, g)
    assert moved.top == model.multiply(t, h)
    direct = build_interval(oracle, moved.bottom, moved.top)
    assert [set(rs) for rs in moved.rank_sets] == [set(rs) for rs in direct.rank_sets]


def test_count_geodesics_agrees_with_word_enumeration():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(9)
    for _ in range(12):
        g, h = rng.choice(everyone), rng.choice(everyone)
        interval = build_interval(oracle, g, h)
        assert count_geodesics(interval) == oracle.geodesics(g, h).count


def test_antichain_and_lattice_against_brute_force():
    model = circular_model(4)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(4)
    checked = 0
    for _ in range(40):
        g, h = rng.choice(everyone), rng.choice(everyone)
        interval = build_interval(oracle, g, h)
        if interval.size > 12:
            continue
        assert max_antichain(interval) == _brute_max_antichain(oracle, interval)
        assert is_lattice(interval) == _brute_is_lattice(oracle, interval)
        checked += 1
    assert checked >= 20


def test_commuting_transposition_interval_violates_sperner():
    model = circular_model(4)
    oracle = build_oracle(model)
    interval = build_interval(oracle, model.identity, model.parse_element("(1,3,4,2)"))
    stats = interval_stats(interval)
    assert stats.rank_profile == (1, 3, 3, 1)
    assert stats.geodesic_count == 4
    assert stats.max_antichain == 4
    assert not stats.is_sperner
    assert max(stats.rank_profile) == 3


def test_adjacent_interval_with_more_paths_than_antichain():
    model = adjacent_model(5)
    oracle = build_oracle(model)
    interval = build_interval(oracle, model.identity, model.parse_element("(1,3,2)(4,5)"))
    stats = interval_stats(interval)
    assert stats.rank_profile == (1, 2, 2, 1)
    assert stats.geodesic_count == 3
    assert stats.max_antichain == 2
    assert stats.is_sperner


def test_non_lattice_witness_and_lattice_diamond():
    witness = custom_model(5, ["(1,2,3)(4,5)", "(1,2,3)", "(1,4)"])
    oracle = build_oracle(witness)
    interval = build_interval(oracle, witness.identity, witness.parse_element("(4,5)"))
    assert interval.size == 6
    assert interval.rank_profile == (1, 2, 2, 1)
    assert not is_lattice(interval)
    assert not _brute_is_lattice(oracle, interval)

    # two commuting generators span a diamond, which is a lattice
    model = circular_model(4)
    diamond = build_interval(
        build_oracle(model), model.identity, model.parse_element("(1,2)(3,4)")
    )
    assert diamond.size == 4
    assert is_lattice(diamond)


def test_order_isomorphic_fixtures():
    model = adjacent_model(5)
    oracle = build_oracle(model)
    e = model.identity
    a = build_interval(oracle, e, model.parse_element("(1,3)"))
    b = build_interval(oracle, e, model.parse_element("(3,5)"))
    assert order_isomorphic(a, b)
    c = build_interval(oracle, e, model.parse_element("(2,5)"))
    assert not order_isomorphic(a, c)  # lengths 3 vs 5

    # same profile (1,2,2,1), different geodesic counts: grid vs witness
    oz = build_oracle(z2_model())
    grid = build_interval(oz, (0, 0), (2, 1))
    assert grid.rank_profile == (1, 2, 2, 1)
    witness = custom_model(5, ["(1,2,3)(4,5)", "(1,2,3)", "(1,4)"])
    ow = build_oracle(witness)
    knot = build_interval(ow, witness.identity, witness.parse_element("(4,5)"))
    assert not order_isomorphic(grid, knot)


def test_order_isomorphic_is_model_blind():
    # the 3x2 grid in Z^2 and a 2-generator staircase elsewhere share a poset
    oz = build_oracle(z2_model())
    a = build_interval(oz, (0, 0), (1, 1))
    model = circular_model(4)
    b = build_interval(
        build_oracle(model), model.identity, model.parse_element("(1,2)(3,4)")
    )
    assert order_isomorphic(a, b)


def test_order_isomorphic_respects_conjugation_transport():
    model = circular_model(5)
    oracle = build_oracle(model)
    rot = model.parse_element("(1,2,3,4,5)")
    rng = random.Random(6)
    everyone = list(model.elements())
    for _ in range(10):
        g = rng.choice(everyone)
        a = build_interval(oracle, model.identity, g)
        b = build_interval(oracle, model.identity, model.conjugate(g, rot))
        assert order_isomorphic(a, b)


def test_partial_interval_matches_full():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(8)
    for _ in range(10):
        g, h = rng.choice(everyone), rng.choice(everyone)
        full = build_interval(oracle, g, h)
        n = full.length
        k = rng.randint(0, n + 1)
        part = partial_interval(oracle, g, h, k)
        assert part.front_profile == full.rank_profile[: min(k, n) + 1]
        for i, rs in enumerate(part.front_sets):
            assert set(rs) == set(full.rank_sets[i])
        for j, rs in enumerate(part.back_sets):
            assert set(rs) == set(full.rank_sets[n - j])
    with pytest.raises(ModelError):
        partial_interval(oracle, everyone[0], everyone[1], -1)


def test_interval_json_and_dot_exports():
    model = circular_model(4)
    oracle = build_oracle(model)
    interval = build_interval(oracle, model.identity, model.parse_element("(1,2)(3,4)"))
    data = interval_to_json(interval)
    json.dumps(data)  # serializable
    assert data["model"] == "sym-circular:4"
    assert data["size"] == 4
    assert data["rank_profile"] == [1, 2, 1]
    assert len(data["cover_edges"]) == 4
    dot = interval_to_dot(interval)
    assert dot.startswith("digraph interval {")
    assert dot.count("->") == 4
    assert '"e" -> "(1,2)"' in dot


def test_sperner_explicit_antichain_argument():
    model = circular_model(4)
    oracle = build_oracle(model)
    interval = build_interval(oracle, model.identity, model.parse_element("(1,3,4,2)"))
    assert not is_sperner(interval, antichain=4)
    assert is_sperner(interval, antichain=3)


def test_no_module_raises_the_recursion_limit():
    package = Path(__file__).resolve().parent.parent / "src" / "cayleykit"
    sources = sorted(package.glob("**/*.py"))
    assert sources
    for path in sources:
        assert "setrecursionlimit" not in path.read_text(), path


def test_no_function_calls_itself():
    # deep inputs must not hit the interpreter's recursion limit
    package = Path(__file__).resolve().parent.parent / "src" / "cayleykit"
    recursive = []
    for path in sorted(package.glob("**/*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    recursive.append(f"{path.name}:{call.lineno} {fn.name}")
    assert not recursive


_S5 = {"circular": circular_model(5), "adjacent": adjacent_model(5)}
_S5_ORACLES = {kind: build_oracle(model) for kind, model in _S5.items()}
_S5_ELEMENTS = {kind: list(model.elements()) for kind, model in _S5.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_S5)), st.integers(0, 119), st.integers(0, 119), st.integers(0, 119))
def test_interval_properties_against_brute_force(kind, gi, hi, ti):
    model, oracle, everyone = _S5[kind], _S5_ORACLES[kind], _S5_ELEMENTS[kind]
    g, h, t = everyone[gi], everyone[hi], everyone[ti]
    d = oracle.distance(g, h)
    members = {x for x in everyone if oracle.distance(g, x) + oracle.distance(x, h) == d}
    interval = build_interval(oracle, g, h)
    assert set(interval.element_rank) == members
    # paths by dynamic programming over members sorted by distance from g
    paths = dict.fromkeys(members, 0)
    paths[g] = 1
    for x in sorted(members, key=lambda x: oracle.distance(g, x)):
        for s in model.generating_set.generators:
            y = model.multiply(x, s)
            if y in members and oracle.distance(g, y) == oracle.distance(g, x) + 1:
                paths[y] += paths[x]
    assert count_geodesics(interval) == oracle.geodesics(g, h).count == paths[h]
    assert max_antichain(interval) >= max(interval.rank_profile)
    assert interval_stats(translate_interval(interval, t)) == interval_stats(interval)


def test_interval_stats_builds_the_dag_once(monkeypatch):
    builds = []
    build = GradedInterval.__dict__["dag"].func

    def counted(self):
        builds.append("dag")
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(GradedInterval, "dag")
    monkeypatch.setattr(GradedInterval, "dag", prop)
    model = circular_model(5)
    interval = build_interval(build_oracle(model), model.identity, model.parse_element("(1,3)(2,4)"))
    interval_stats(interval)
    assert builds == ["dag"]
