"""Width and lattice test against independent oracles, on Cayley and synthetic posets.

The oracles here read the order from outside the code they check: on a Cayley
interval [g, h], x <= y iff d(g, x) + d(x, y) = d(g, y), with every distance
from the oracle; on a synthetic poset, from a closure of its edge list.
Neither reads GradedInterval.dag.  The width oracle is Dilworth's
theorem through a bipartite matching on strict comparabilities (Fulkerson's
reduction); the lattice oracle asks, for every pair, that its common upper
bounds be the up-set of one element.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleykit import (
    build_interval,
    build_oracle,
    interval_stats,
    is_lattice,
    max_antichain,
    parse_model,
    z2_model,
)
from cayleykit.intervals import GradedInterval
from cayleykit.ranking import rank_rows


def _distances_among(oracle, members):
    """d(x, y) for every pair of members; a table oracle reads all pairs in one pass."""
    if oracle.strategy != "table":
        return [[oracle.distance(x, y) for y in members] for x in members]
    rows = np.array(members, dtype=np.uint8)
    # row (x, y) is x^-1 y: i -> y[x^-1[i]], and d(x, y) = l(x^-1 y)
    between = rows[:, np.argsort(rows, axis=1)].transpose(1, 0, 2).reshape(-1, rows.shape[1])
    return oracle.lengths[rank_rows(between)].reshape(len(members), -1).tolist()


def _up_sets_from_distances(oracle, g, members):
    """Reflexive up-set bitmasks over members, x <= y read from distances."""
    dist = _distances_among(oracle, [g, *members])
    rank, dist = dist[0][1:], [row[1:] for row in dist[1:]]
    return [
        sum(1 << j for j in range(len(members)) if rank[i] + dist[i][j] == rank[j])
        for i in range(len(members))
    ]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _width_by_matching(up):
    """m minus a maximum matching of u -> v for u < v strictly (Kuhn, iterative)."""
    m = len(up)
    strictly_above = [list(_bits(up[i] & ~(1 << i))) for i in range(m)]
    owner = [-1] * m  # owner[v]: the u matched to v
    matched = 0
    for root in range(m):
        seen = set()
        stack = [(root, iter(strictly_above[root]))]
        chosen = []  # chosen[k]: the v tried from stack[k]
        while stack:
            u, untried = stack[-1]
            v = next((v for v in untried if v not in seen), None)
            if v is None:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            seen.add(v)
            chosen.append(v)
            if owner[v] == -1:
                for (w, _), x in zip(stack, chosen):
                    owner[x] = w
                matched += 1
                break
            stack.append((owner[v], iter(strictly_above[owner[v]])))
    return m - matched


def _all_pairs_have_joins(up):
    principal = set(up)
    return all((a & b) in principal for a, b in combinations(up, 2))


def _check_against_oracles(oracle, g, h, max_size=None):
    """Compare one interval with both oracles; return its lattice flag, or None if skipped."""
    interval = build_interval(oracle, g, h)
    if max_size is not None and interval.size > max_size:
        return None
    # membership itself is checked against a whole-group scan in test_intervals.py
    members = list(interval.element_rank)
    d = oracle.distance(g, h)
    assert all(oracle.distance(g, x) + oracle.distance(x, h) == d for x in members)
    up = _up_sets_from_distances(oracle, g, members)
    assert max_antichain(interval) == _width_by_matching(up)
    lattice = is_lattice(interval)
    assert lattice == _all_pairs_have_joins(up)
    return lattice


def test_width_and_lattice_on_every_interval_from_e():
    for spec in ("sym-circular:5", "sym-adjacent:5", "cyclic:12:semigroup"):
        model = parse_model(spec)
        oracle = build_oracle(model)
        flags = {_check_against_oracles(oracle, model.identity, g) for g in model.elements()}
        if spec == "sym-circular:5":
            assert flags == {True, False}


def test_width_and_lattice_on_sampled_intervals():
    # a directed set: x <= y still reads d(g, x) + d(x, y) = d(g, y)
    # S8 intervals up to 150 elements drawn from seed 81 are all lattices; its
    # smallest non-lattice ones have 157, 282 and 304 elements
    for spec, seed, max_size in (
        ("sym-custom:6:(1,2);(1,2,3,4,5,6)", 61, 150),
        ("sym-circular:7", 71, 150),
        ("sym-circular:8", 81, 320),
    ):
        model = parse_model(spec)
        oracle = build_oracle(model)
        everyone = list(model.elements())
        rng = random.Random(seed)
        pairs = [(rng.choice(everyone), rng.choice(everyone)) for _ in range(60)]
        flags = {_check_against_oracles(oracle, g, h, max_size) for g, h in pairs}
        assert {True, False} <= flags


@st.composite
def _graded_posets(draw):
    """A random graded cover DAG with one bottom and one top, as a GradedInterval."""
    profile = [1, *draw(st.lists(st.integers(1, 4), max_size=5)), 1]
    rank_sets, next_id = [], 0
    for size in profile:
        rank_sets.append(list(range(next_id, next_id + size)))
        next_id += size
    edges = []
    for lower, upper in zip(rank_sets, rank_sets[1:]):
        pairs = [(x, y) for x in lower for y in upper]
        chosen = draw(st.sets(st.sampled_from(pairs)))
        for y in upper:  # every element above the bottom has a lower cover
            if not any(b == y for _, b in chosen):
                chosen.add((draw(st.sampled_from(lower)), y))
        for x in lower:  # every element below the top has an upper cover
            if not any(a == x for a, _ in chosen):
                chosen.add((x, draw(st.sampled_from(upper))))
        edges += sorted(chosen)
    edges = draw(st.permutations(edges))
    element_rank = {x: r for r, rs in enumerate(rank_sets) for x in rs}
    cover_edges = [(x, 0, y) for x, y in edges]
    return GradedInterval(None, 0, next_id - 1, len(profile) - 1, rank_sets, cover_edges,
                          element_rank)


def _up_sets_from_edges(interval):
    above = {x: set() for x in interval.element_rank}
    for x, _, y in interval.cover_edges:
        above[x].add(y)
    up = []
    for x in interval.element_rank:
        reached, todo = {x}, [x]
        while todo:
            for y in above[todo.pop()]:
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
        up.append(sum(1 << y for y in reached))
    return up


@settings(max_examples=300, deadline=None)
@given(_graded_posets())
def test_width_and_lattice_on_synthetic_posets(interval):
    up = _up_sets_from_edges(interval)
    assert max_antichain(interval) == _width_by_matching(up)
    assert is_lattice(interval) == _all_pairs_have_joins(up)


def test_z2_grid_stats_at_scale():
    stats = interval_stats(build_interval(build_oracle(z2_model()), (0, 0), (100, 100)))
    assert stats.size == 10_201
    assert stats.max_antichain == 101
    assert stats.is_sperner and stats.is_lattice
    assert stats.geodesic_count == comb(200, 100)


def test_s8_antipodal_width():
    model = parse_model("sym-circular:8")
    interval = build_interval(
        build_oracle(model), model.identity, model.parse_element("(1,5)(2,6)(3,7)(4,8)")
    )
    assert interval.size == 4_280
    assert max_antichain(interval) == 602
    assert not is_lattice(interval)
