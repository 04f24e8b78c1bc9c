"""Interval classifications, full-group censuses, and normaliser transport."""

from __future__ import annotations

import concurrent.futures
import importlib
import random
import sys

import pytest

from cayleykit import (
    CapabilityError,
    ModelError,
    UnreachableError,
    adjacent_model,
    build_interval,
    build_oracle,
    census,
    circular_model,
    classify,
    custom_model,
    cyclic_model,
    in_normaliser,
    normaliser,
    theorem1_check,
    z2_model,
)
from cayleykit import cayley, ranking
from cayleykit.cayley import DistanceOracle
from cayleykit.intervals import GradedInterval, order_isomorphic
from cayleykit.ranking import perm_unrank

classify_module = importlib.import_module("cayleykit.classify")  # the package exports classify()


def _oracle(model):
    return build_oracle(model)


def test_classify_by_length():
    model = circular_model(4)
    oracle = _oracle(model)
    elements = [
        model.parse_element(s) for s in ("e", "(1,2)", "(3,4)", "(1,2)(3,4)", "(1,3)")
    ]
    result = classify(oracle, elements, "length")
    assert result.signatures == [0, 1, 2, 3]
    assert result.classes[1] == [model.parse_element("(1,2)"), model.parse_element("(3,4)")]
    assert result.signature_of[model.parse_element("(1,3)")] == 3
    assert not result.unclassified


def test_classify_relations_refine_each_other():
    model = circular_model(4)
    oracle = _oracle(model)
    elements = list(model.elements())
    by_iso = classify(oracle, elements, "iso")
    for relation in ("length", "paths", "size"):
        coarse = classify(oracle, elements, relation)
        # members of one iso class never split across classes of a weaker relation
        for members in by_iso.classes:
            sigs = {coarse.signature_of[g] for g in members}
            assert len(sigs) == 1


def test_classify_size_classes_of_the_full_group():
    model = circular_model(4)
    oracle = _oracle(model)
    result = classify(oracle, list(model.elements()), "size")
    histogram = {
        result.signatures[i]: len(members) for i, members in enumerate(result.classes)
    }
    assert histogram == {1: 1, 2: 4, 3: 8, 4: 2, 8: 4, 10: 4, 20: 1}


def test_classify_iso_cap_routes_to_unclassified():
    model = circular_model(4)
    oracle = _oracle(model)
    elements = [model.parse_element("(1,3)(2,4)"), model.parse_element("(1,2)")]
    result = classify(oracle, elements, "iso", iso_size_cap=10)
    assert result.unclassified == [model.parse_element("(1,3)(2,4)")]
    assert result.classes == [[model.parse_element("(1,2)")]]


def _middle_cycles(model, cycle_length):
    """Profile (1, 6, 6, 1); ranks 1 and 2 joined by 2-regular cycles of one length."""
    lower, upper = [f"a{i}" for i in range(6)], [f"c{i}" for i in range(6)]
    half = cycle_length // 2
    edges = [("e", 0, a) for a in lower]  # grade by grade, as grade_walk yields them
    for i, a in enumerate(lower):
        start = i - i % half
        edges += [(a, 0, upper[i]), (a, 0, upper[start + (i + 1 - start) % half])]
    edges += [(c, 0, "top") for c in upper]
    rank_sets = [["e"], lower, upper, ["top"]]
    element_rank = {x: r for r, grade in enumerate(rank_sets) for x in grade}
    return GradedInterval(model, "e", "top", 3, rank_sets, edges, element_rank)


def test_classify_splits_an_iso_profile_bucket(monkeypatch):
    # one 12-cycle against two 6-cycles: every cheap invariant agrees, the orders differ
    model = cyclic_model(5)
    ring, pair = _middle_cycles(model, 12), _middle_cycles(model, 6)
    assert classify_module._iso_profile(ring) == classify_module._iso_profile(pair)
    assert not order_isomorphic(ring, pair)
    assert order_isomorphic(ring, ring) and order_isomorphic(pair, pair)
    intervals = {1: ring, 2: pair, 3: ring}
    monkeypatch.setattr(classify_module, "build_interval", lambda oracle, e, g: intervals[g])
    result = classify(_oracle(model), [1, 2, 3], "iso")
    assert result.classes == [[1, 3], [2]]


def test_classify_refuses_a_negative_iso_cap():
    model = circular_model(4)
    with pytest.raises(ModelError, match="iso cap must be nonnegative, got -1"):
        classify(_oracle(model), [model.identity], "iso", iso_size_cap=-1)
    zero_cap = classify(_oracle(model), [model.identity], "iso", iso_size_cap=0)
    assert zero_cap.unclassified == [model.identity]


def test_classify_rejects_unknown_relations():
    model = circular_model(4)
    with pytest.raises(ModelError):
        classify(_oracle(model), [model.identity], "conjugacy")


def test_census_length_matches_classify():
    model = circular_model(4)
    oracle = _oracle(model)
    result = census(model, "length")
    assert result.total == 24
    coarse = classify(oracle, list(model.elements()), "length")
    assert result.counts == {
        coarse.signatures[i]: len(members) for i, members in enumerate(coarse.classes)
    }
    assert result.representatives[0] == "e"


# circular and adjacent sets, a directed set whose normaliser is trivial, and
# a set that generates a subgroup of order 6 only
CENSUS_MODELS = (
    circular_model(5),
    circular_model(6),
    adjacent_model(6),
    custom_model(6, ["(1,2)", "(1,2,3,4,5,6)"]),
    custom_model(6, ["(1,2,3)", "(1,3,2)", "(4,5)"], require_generating=False),
)


def test_census_size_matches_interval_construction():
    for model in CENSUS_MODELS:
        oracle = _oracle(model)
        counts: dict = {}
        reps: dict = {}
        for g in model.elements():  # rank order, so the first of each size is its lowest rank
            try:
                size = build_interval(oracle, model.identity, g).size
            except UnreachableError:
                continue
            counts[size] = counts.get(size, 0) + 1
            reps.setdefault(size, model.format_element(g))
        result = census(model, "size")
        assert result.counts == counts, model.name
        assert result.representatives == reps, model.name
        # the census's orbits come from the vector normaliser
        want = [g for g in model.elements() if in_normaliser(model, g)]
        assert normaliser(model).members == want, model.name


def test_size_census_counts_one_interval_per_orbit(monkeypatch):
    minima = []
    orbit_minima = classify_module._orbit_minima
    monkeypatch.setattr(
        classify_module, "_orbit_minima", lambda oracle: minima.append(orbit_minima(oracle)) or minima[-1]
    )
    # the directed set has a trivial normaliser, but (1,2)(3,6)(4,5) conjugates S^-1 onto S
    for model, orbits in ((circular_model(7), 260), (CENSUS_MODELS[3], 398)):
        minima.clear()
        assert census(model, "size").total == model.order
        (orbit_min,) = minima
        # the walk counts the intervals of the ranks that are their own orbit minimum
        counted = [perm_unrank(r, model.n) for r, low in enumerate(orbit_min.tolist()) if r == low]
        gens = set(model.generating_set.generators)
        keep = [p for p in model.elements() if {model.conjugate(s, p) for s in gens} == gens]
        flip = [p for p in model.elements()
                if {model.conjugate(model.inverse(s), p) for s in gens} == gens]

        def orbit(g):
            inv = model.inverse(g)
            return {model.conjugate(g, p) for p in keep} | {model.conjugate(inv, p) for p in flip}

        # one count per orbit, made by the orbit's lowest element
        assert len(counted) == len({min(orbit(g)) for g in model.elements()}) == orbits
        assert all(min(orbit(g)) == g for g in counted)


def test_products_rank_only_inverse_and_conjugating_rows(monkeypatch):
    """Once the inverse ranks exist, dist_from and the orbit minima read their
    products from right_tables: rank_rows runs only in _conjugating_ranks,
    1 + |S| times for each of its two calls on circular S7."""
    model = circular_model(7)
    oracle = DistanceOracle(model, "table")
    oracle.inverse_ranks
    want = {g: [oracle.distance(g, x) for x in model.elements()]
            for g in (model.identity, model.parse_element("(1,4,2)(3,7)"))}
    rank_rows = classify_module.rank_rows
    callers = []

    def boom(rows):
        raise AssertionError("a product was ranked")

    def counted(rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return rank_rows(rows)

    monkeypatch.setattr(ranking, "rank_rows", boom)
    monkeypatch.setattr(cayley, "rank_rows", boom)
    for g, column in want.items():
        assert oracle.dist_from(g).tolist() == column
    monkeypatch.setattr(classify_module, "rank_rows", counted)
    classify_module._orbit_minima(oracle)
    assert len(model.generating_set.generators) == 7
    assert callers == ["_conjugating_ranks"] * 16


def test_census_unranks_one_representative_per_class(monkeypatch):
    model = circular_model(6)
    lengths = DistanceOracle(model, "table").lengths
    first = {}
    for r, d in enumerate(lengths.tolist()):
        first.setdefault(d, model.format_element(perm_unrank(r, 6)))
    calls = []
    monkeypatch.setattr(
        classify_module, "perm_unrank", lambda r, n: calls.append(r) or perm_unrank(r, n)
    )
    for relation in ("length", "size"):
        calls.clear()
        result = census(model, relation)
        assert result.total == 720
        assert len(calls) == len(result.counts)
        if relation == "length":
            assert result.representatives == first
            assert all(type(k) is int and type(c) is int for k, c in result.counts.items())


def test_census_worker_pool_agrees_with_single_core(monkeypatch):
    # workers is accepted and ignored: no process pool is started
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    model = circular_model(5)
    solo = census(model, "size", workers=1)
    pooled = census(model, "size", workers=2)
    assert pooled.counts == solo.counts
    assert pooled.representatives == solo.representatives


def test_census_on_cyclic_models():
    result = census(cyclic_model(6), "size")
    assert result.counts == {1: 1, 2: 2, 3: 2, 6: 1}
    assert result.total == 6
    rows = list(result.csv_rows())
    assert rows[0] == "signature,count,representative"
    assert rows[1] == "1,1,0"


def test_census_capability_errors():
    with pytest.raises(CapabilityError):
        census(z2_model(), "size")
    with pytest.raises(ModelError):
        census(circular_model(4), "paths")
    with pytest.raises(CapabilityError):
        census(circular_model(10), "length")


def test_normaliser_orders_are_dihedral():
    for n, expected in ((4, 8), (5, 10), (6, 12)):
        result = normaliser(circular_model(n))
        assert result.order == expected


def test_normaliser_members_rotate_or_reflect():
    model = circular_model(5)
    rot = model.parse_element("(1,2,3,4,5)")
    flip = model.check_element(tuple(4 - i for i in range(5)))
    assert in_normaliser(model, rot)
    assert in_normaliser(model, flip)
    assert not in_normaliser(model, model.parse_element("(1,2)"))
    members = set(normaliser(model).members)
    assert rot in members and flip in members and model.identity in members


def test_adjacent_set_normaliser_is_tiny():
    result = normaliser(adjacent_model(5))
    assert result.order == 2  # identity and the order-reversing relabeling


def test_mixed_seven_point_set_has_dihedral_normaliser():
    gens = ["(1,2)", "(2,3)", "(3,4)", "(4,5)", "(5,6)", "(6,7)", "(7,1)",
            "(1,3)", "(3,5)", "(5,7)", "(7,2)", "(2,4)", "(4,6)", "(6,1)"]
    model = custom_model(7, gens)
    result = normaliser(model)
    assert result.order == 14
    assert result.members == [g for g in model.elements() if in_normaliser(model, g)]


def test_normaliser_modes_and_limits():
    assert normaliser(circular_model(9)).order == 18
    with pytest.raises(CapabilityError):
        normaliser(circular_model(10))
    with pytest.raises(CapabilityError):
        normaliser(z2_model())


def test_theorem1_transport():
    model = circular_model(5)
    oracle = _oracle(model)
    members = normaliser(model).members
    rng = random.Random(13)
    everyone = list(model.elements())
    for _ in range(20):
        g = rng.choice(everyone)
        pi = rng.choice(members)
        assert theorem1_check(oracle, g, pi)
    with pytest.raises(ModelError):
        theorem1_check(oracle, everyone[7], model.parse_element("(1,2)"))
