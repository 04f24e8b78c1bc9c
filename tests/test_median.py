"""Exact medians: interior construction against whole-group brute force."""

from __future__ import annotations

import random
import re
from itertools import combinations

import pytest

import cayleykit.median as median_module
from cayleykit import (
    CapabilityError,
    DistanceOracle,
    InvariantError,
    UnreachableError,
    adjacent_model,
    build_oracle,
    circular_model,
    custom_model,
    cyclic_model,
    deltas,
    interior,
    make_triangle,
    median_parity_check,
    median_report,
    medians,
    perm_rank,
    steiner_weight,
    z2_model,
)


def _brute_medians(model, oracle, corners):
    weights = {
        h: sum(oracle.distance(c, h) for c in corners) for h in model.elements()
    }
    best = min(weights.values())
    return sorted(h for h, w in weights.items() if w == best), best


def test_z2_right_angle_triangle():
    model = z2_model()
    oracle = build_oracle(model)
    tri = make_triangle(model, (0, 0), (4, 0), (0, 4))
    result = medians(oracle, tri)
    assert result.minimizers == [(0, 0)]
    assert result.weight == 8
    assert result.interior_size == 1


def test_z2_collinear_triangle():
    model = z2_model()
    oracle = build_oracle(model)
    tri = make_triangle(model, (0, 0), (2, 0), (4, 0))
    result = medians(oracle, tri)
    assert result.minimizers == [(2, 0)]
    assert result.weight == 4


def test_interior_scan_equals_brute_force_on_circular_s5():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(17)
    for _ in range(30):
        corners = tuple(rng.choice(everyone) for _ in range(3))
        tri = make_triangle(model, *corners)
        result = medians(oracle, tri)
        brute, best = _brute_medians(model, oracle, corners)
        assert result.weight == best
        assert result.minimizers == brute
        region = interior(oracle, tri)
        translated = {model.multiply(tri.translation, x) for x in region.elements}
        assert set(brute) <= translated


def test_interior_scan_equals_brute_force_on_adjacent_s5():
    model = adjacent_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(23)
    for _ in range(10):
        corners = tuple(rng.choice(everyone) for _ in range(3))
        tri = make_triangle(model, *corners)
        result = medians(oracle, tri)
        brute, best = _brute_medians(model, oracle, corners)
        assert result.weight == best
        assert result.minimizers == brute


def test_degenerate_corners():
    model = circular_model(5)
    oracle = build_oracle(model)
    g = model.parse_element("(1,3,5)")
    tri = make_triangle(model, g, g, g)
    result = medians(oracle, tri)
    assert result.minimizers == [g]
    assert result.weight == 0
    # one corner inside the interval of the other two
    e = model.identity
    s = model.parse_element("(1,2)")
    top = model.parse_element("(1,2)(3,4)")
    tri = make_triangle(model, e, s, top)
    result = medians(oracle, tri)
    brute, best = _brute_medians(model, oracle, (e, s, top))
    assert result.minimizers == brute
    assert result.weight == best == 2


def test_translation_invariance():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(29)
    for _ in range(8):
        corners = tuple(rng.choice(everyone) for _ in range(3))
        t = rng.choice(everyone)
        base = medians(oracle, make_triangle(model, *corners))
        moved = medians(
            oracle, make_triangle(model, *(model.multiply(t, c) for c in corners))
        )
        assert moved.weight == base.weight
        assert moved.minimizers == sorted(model.multiply(t, x) for x in base.minimizers)


def test_interior_records_respect_constraints_and_bound():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(31)
    for _ in range(10):
        corners = tuple(rng.choice(everyone) for _ in range(3))
        tri = make_triangle(model, *corners)
        region = interior(oracle, tri)
        d01 = oracle.distance(tri.normalized[0], tri.normalized[1])
        d12 = oracle.distance(tri.normalized[1], tri.normalized[2])
        d02 = oracle.distance(tri.normalized[0], tri.normalized[2])
        floor = (d01 + d12 + d02 + 1) // 2
        for x, rec in region.records.items():
            assert all(rec[i] <= region.deltas[i] for i in range(3))
            assert rec[3] == rec[0] + rec[1] + rec[2]
            assert rec[3] >= floor


def test_steiner_weight_uses_original_corners():
    model = circular_model(5)
    oracle = build_oracle(model)
    c0 = model.parse_element("(1,2)")
    c1 = model.parse_element("(2,4,5)")
    c2 = model.parse_element("(1,3)")
    tri = make_triangle(model, c0, c1, c2)
    h = model.parse_element("(1,2,3)")
    expected = sum(oracle.distance(c, h) for c in (c0, c1, c2))
    assert steiner_weight(oracle, h, tri) == expected
    result = medians(oracle, tri)
    assert all(steiner_weight(oracle, x, tri) == result.weight for x in result.minimizers)


def test_parity_law_on_circular_models():
    model = circular_model(5)
    oracle = build_oracle(model)
    everyone = list(model.elements())
    rng = random.Random(37)
    multi = 0
    for _ in range(40):
        corners = tuple(rng.choice(everyone) for _ in range(3))
        tri = make_triangle(model, *corners)
        result = medians(oracle, tri)
        assert median_parity_check(oracle, tri, result)
        if len(result.minimizers) >= 2:
            multi += 1
            for a, b in combinations(result.minimizers, 2):
                assert oracle.distance(a, b) % 2 == 0
    assert multi >= 3  # the law was exercised, not vacuous


def test_parity_check_refused_off_circular_sets():
    model = adjacent_model(4)
    oracle = build_oracle(model)
    tri = make_triangle(model, model.identity, model.identity, model.identity)
    with pytest.raises(CapabilityError):
        median_parity_check(oracle, tri)


def test_cyclic_symmetric_corners():
    model = cyclic_model(6)
    oracle = build_oracle(model)
    tri = make_triangle(model, 0, 2, 4)
    result = medians(oracle, tri)
    assert result.minimizers == [0, 2, 4]
    assert result.weight == 4


def test_string_corners_are_parsed():
    model = circular_model(5)
    from_strings = make_triangle(model, "e", "(1,3)", "(2,4,5)")
    from_elements = make_triangle(
        model,
        model.identity,
        model.parse_element("(1,3)"),
        model.parse_element("(2,4,5)"),
    )
    assert from_strings == from_elements


def test_median_report_shape():
    model = circular_model(5)
    oracle = build_oracle(model)
    tri = make_triangle(model, "e", "(1,3)", "(2,4,5)")
    report = median_report(oracle, tri)
    assert report["model"] == "sym-circular:5"
    assert report["corners"] == ["e", "(1,3)", "(2,4,5)"]
    assert report["parity_ok"] is True  # the model is circular, so the law is checked
    assert report["weight"] == 6
    assert isinstance(report["interior_size"], int)
    assert report["medians"]
    model = adjacent_model(5)
    silent = median_report(build_oracle(model), make_triangle(model, "e", "(1,3)", "(2,4,5)"))
    assert silent["parity_ok"] is None


# -- directed generating sets ---------------------------------------------------


def _brute_weight(model, oracle, corners):
    return min(sum(oracle.distance(c, h) for c in corners) for h in model.elements())


@pytest.mark.parametrize(
    "model, corners, best",
    [
        (custom_model(6, ["(1,2)", "(1,2,3,4,5,6)"]), ("e", "(1,4)", "(2,5,6)"), 17),
        (cyclic_model(7, inverse_closed=False), (0, 1, 2), 3),
    ],
)
def test_directed_sets_are_refused(model, corners, best):
    oracle = build_oracle(model)
    tri = make_triangle(model, *corners)
    # the interior theorem fails here: the scan reported weight 22, or no interior
    assert _brute_weight(model, oracle, tri.corners) == best
    for call in (interior, medians, median_report, deltas):
        with pytest.raises(CapabilityError, match="inverse-closed"):
            call(oracle, tri)


# -- distance vectors (table oracles) against the interval scan -----------------


def _random_triangles(model, count, seed):
    rng = random.Random(seed)
    everyone = list(model.elements())
    return [make_triangle(model, *(rng.choice(everyone) for _ in range(3))) for _ in range(count)]


def _assert_same_region(table, scan, tri):
    region, expected = interior(table, tri), interior(scan, tri)
    assert deltas(table, tri) == deltas(scan, tri) == expected.deltas
    assert region.deltas == expected.deltas
    assert region.elements == expected.elements
    assert region.records == expected.records
    got, want = medians(table, tri), medians(scan, tri)
    assert (got.weight, got.minimizers) == (want.weight, want.minimizers)


@pytest.mark.parametrize(
    "model, count",
    [
        (circular_model(5), 25),
        (circular_model(6), 4),
        (custom_model(6, ["(1,2,3,4,5,6)", "(1,6,5,4,3,2)", "(1,2)"]), 6),
    ],
    ids=["circular5", "circular6", "custom6"],
)
def test_table_interior_matches_the_interval_scan(model, count):
    table = build_oracle(model)
    scan = DistanceOracle(model, "bidirectional")
    assert table.strategy == "table"
    for tri in _random_triangles(model, count, seed=41 + model.n):
        _assert_same_region(table, scan, tri)


def test_table_interior_builds_no_interval_and_no_ball(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table path scanned intervals or balls")

    model = circular_model(6)
    oracle = build_oracle(model)
    triangles = _random_triangles(model, 10, seed=43)
    monkeypatch.setattr(DistanceOracle, "ball", refuse)
    monkeypatch.setattr(median_module, "build_interval", refuse)
    for tri in triangles:
        result = medians(oracle, tri)
        brute, best = _brute_medians(model, oracle, tri.corners)
        assert (result.minimizers, result.weight) == (brute, best)


def test_table_interior_on_a_non_generating_set():
    # <(1,2,3), (4,5)> has order 6: its cosets are the unreachable regions
    model = custom_model(6, ["(1,2,3)", "(1,3,2)", "(4,5)"], require_generating=False)
    table = build_oracle(model)
    scan = DistanceOracle(model, "bidirectional")
    cross = [
        (("e", "(1,2,3)", "(1,4)"), "no word from (1,2,3) to (1,4)"),
        (("e", "(1,4)", "(1,4)"), "no word from e to (1,4)"),
        (("(5,6)", "(4,6,5)", "(5,6)"), "no word from (4,6) to e"),
    ]
    for corners, message in cross:
        with pytest.raises(UnreachableError) as info:
            interior(table, make_triangle(model, *corners))
        assert str(info.value) == message
    # same coset: every rank outside it reads 255 in all three vectors
    parse, mul = model.parse_element, model.multiply
    for t in ("e", "(1,6)", "(2,4,6)", "(1,5)(3,6)"):
        for triple in [
            ("e", "(1,2,3)", "(4,5)"),
            ("(1,2,3)", "(1,3,2)(4,5)", "(4,5)"),
            ("(4,5)", "(1,2,3)(4,5)", "(1,3,2)"),
        ]:
            corners = [mul(parse(t), parse(h)) for h in triple]
            _assert_same_region(table, scan, make_triangle(model, *corners))


def test_an_inconsistent_table_trips_the_half_perimeter_bound():
    model = circular_model(4)
    oracle = build_oracle(model)
    oracle.lengths[perm_rank(model.parse_element("(3,4)"))] = 0  # a second zero
    for corners, message in [
        (("e", "(3,4)", "(2,3)"), "weight 1 beats the half-perimeter bound 2"),
        (("e", "(3,4)", "(1,2,3)"), "weight 2 beats the half-perimeter bound 3"),
    ]:
        with pytest.raises(InvariantError, match=re.escape(message)):
            interior(oracle, make_triangle(model, *corners))


def test_an_inconsistent_scan_trips_the_half_perimeter_bound():
    # the table test's metric on the ball path: d(x, y) = 0 wherever x^-1 y = (3,4)
    model = circular_model(4)
    oracle = DistanceOracle(model, "bidirectional")
    swap = model.parse_element("(3,4)")
    true_distance = oracle.unchecked_distance

    def distance(x, y):
        return 0 if model.multiply(model.inverse(x), y) == swap else true_distance(x, y)

    oracle.unchecked_distance = distance
    for corners, message in [
        (("e", "(3,4)", "(2,3)"), "weight 1 beats the half-perimeter bound 2"),
        (("e", "(3,4)", "(1,2,3)"), "weight 2 beats the half-perimeter bound 3"),
    ]:
        with pytest.raises(InvariantError, match=re.escape(message)):
            interior(oracle, make_triangle(model, *corners))
