"""Acceptance checks, one test per criterion; each -v line is the verdict."""

from __future__ import annotations

import random
import time
from itertools import combinations

import numpy as np

from cayleykit import (
    DistanceOracle,
    adjacent_model,
    build_interval,
    build_oracle,
    census,
    circular_model,
    count_geodesics,
    cyclic_model,
    interior,
    interval_stats,
    make_triangle,
    medians,
    normaliser,
    order_isomorphic,
    perm_parity,
    theorem1_check,
    z2_model,
)
from cayleykit.cayley import UNREACHED


def test_criterion_1_z2_interval_fixtures():
    started = time.monotonic()
    oracle = build_oracle(z2_model())
    line = build_interval(oracle, (0, 0), (4, 0))
    assert line.size == 5 and count_geodesics(line) == 1
    square = build_interval(oracle, (0, 0), (2, 2))
    assert square.size == 9 and count_geodesics(square) == 6
    grid = build_interval(oracle, (0, 0), (4, 3))
    assert grid.rank_profile == (1, 2, 3, 4, 4, 3, 2, 1)
    assert grid.size == 20
    assert time.monotonic() - started < 1.0


def test_criterion_2_cyclic_fixtures():
    started = time.monotonic()
    for n in range(3, 13):
        semi = build_oracle(cyclic_model(n, inverse_closed=False))
        assert semi.diameter() == n - 1
        group = build_oracle(cyclic_model(n))
        assert group.diameter() == n // 2
        if n % 2 == 0:
            antipode = n // 2
            assert group.geodesics(0, antipode).count == 2
            whole = build_interval(group, 0, antipode)
            assert whole.size == n
            assert {x for rs in whole.rank_sets for x in rs} == set(range(n))
    assert time.monotonic() - started < 1.0


def test_criterion_3_s8_census():
    model = circular_model(8)
    started = time.monotonic()
    oracle = DistanceOracle(model, "table")
    table_elapsed = time.monotonic() - started
    assert table_elapsed <= 10.0

    lengths = census(model, "length")
    assert lengths.total == 40320
    spheres = np.bincount(oracle.lengths[oracle.lengths != UNREACHED])
    assert lengths.counts == {d: int(c) for d, c in enumerate(spheres) if c}

    sizes = census(model, "size")
    census_elapsed = time.monotonic() - started
    assert len(sizes.counts) == 386
    assert max(sizes.counts) == 4280
    assert sizes.total == 40320
    assert census_elapsed <= 900.0


def test_criterion_4_sperner_and_antichain_fixtures():
    model = circular_model(4)
    oracle = build_oracle(model)
    left = interval_stats(
        build_interval(oracle, model.identity, model.parse_element("(1,3,4,2)"))
    )
    assert max(left.rank_profile) == 3
    assert left.max_antichain == 4
    assert not left.is_sperner

    adj = adjacent_model(5)
    adj_oracle = build_oracle(adj)
    right = interval_stats(
        build_interval(adj_oracle, adj.identity, adj.parse_element("(1,3,2)(4,5)"))
    )
    assert right.geodesic_count == 3
    assert right.max_antichain == 2


def test_criterion_5_isomorphism_and_normaliser_transport():
    adj = adjacent_model(5)
    adj_oracle = build_oracle(adj)
    assert adj_oracle.length(adj.parse_element("(1,3)")) == 3
    assert adj_oracle.length(adj.parse_element("(2,5)")) == 5
    a = build_interval(adj_oracle, adj.identity, adj.parse_element("(1,3)"))
    b = build_interval(adj_oracle, adj.identity, adj.parse_element("(3,5)"))
    assert order_isomorphic(a, b)

    rng = random.Random(41)
    for n in (5, 6):
        model = circular_model(n)
        oracle = build_oracle(model)
        members = normaliser(model).members
        everyone = list(model.elements())
        for _ in range(100):
            g = rng.choice(everyone)
            pi = rng.choice(members)
            assert theorem1_check(oracle, g, pi)


def _brute_median_set(model, oracle, corners):
    weights = {
        h: sum(oracle.distance(c, h) for c in corners) for h in model.elements()
    }
    best = min(weights.values())
    return sorted(h for h, w in weights.items() if w == best)


def _random_triangles(model, count, seed):
    rng = random.Random(seed)
    everyone = list(model.elements())
    return [tuple(rng.choice(everyone) for _ in range(3)) for _ in range(count)]


def test_criterion_6_interior_scan_equals_brute_force():
    started = time.monotonic()
    for n, count in ((5, 100), (6, 30)):
        model = circular_model(n)
        oracle = build_oracle(model)
        for corners in _random_triangles(model, count, seed=n):
            tri = make_triangle(model, *corners)
            result = medians(oracle, tri)
            brute = _brute_median_set(model, oracle, corners)
            assert result.minimizers == brute
            region = interior(oracle, tri)
            translated = {model.multiply(tri.translation, x) for x in region.elements}
            assert set(brute) <= translated
    assert time.monotonic() - started <= 300.0


def test_criterion_7_median_parity():
    exercised = 0
    for n, count in ((5, 100), (6, 30)):
        model = circular_model(n)
        oracle = build_oracle(model)
        for corners in _random_triangles(model, count, seed=n):
            tri = make_triangle(model, *corners)
            result = medians(oracle, tri)
            if len(result.minimizers) < 2:
                continue
            exercised += 1
            for x, y in combinations(result.minimizers, 2):
                assert oracle.distance(x, y) % 2 == 0
    assert exercised >= 10


def test_criterion_8_oracle_equivalence_and_membership():
    model = circular_model(7)
    table = DistanceOracle(model, "table")
    bidi = DistanceOracle(model, "bidirectional")
    rng = random.Random(43)
    for _ in range(1000):
        g = tuple(rng.sample(range(7), 7))
        h = tuple(rng.sample(range(7), 7))
        assert table.distance(g, h) == bidi.distance(g, h)

    small = circular_model(5)
    oracle = build_oracle(small)
    everyone = list(small.elements())
    dist = [[oracle.distance(g, h) for h in everyone] for g in everyone]
    for a, g in enumerate(everyone):
        for b, h in enumerate(everyone):
            d = dist[a][b]
            if d > 4:
                continue
            members = {x for rs in build_interval(oracle, g, h).rank_sets for x in rs}
            assert members == {
                x for c, x in enumerate(everyone) if dist[a][c] + dist[c][b] == d
            }


def test_criterion_9_left_invariance_and_parity():
    model = circular_model(6)
    oracle = build_oracle(model)
    rng = random.Random(47)
    for _ in range(1000):
        g = tuple(rng.sample(range(6), 6))
        h = tuple(rng.sample(range(6), 6))
        t = tuple(rng.sample(range(6), 6))
        d = oracle.distance(g, h)
        assert oracle.distance(model.multiply(t, g), model.multiply(t, h)) == d
        assert oracle.length(model.multiply(model.inverse(g), h)) == d
        assert d % 2 == perm_parity(model.multiply(model.inverse(g), h))
        assert oracle.length(g) % 2 == perm_parity(g)
