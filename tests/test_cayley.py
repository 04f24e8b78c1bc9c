"""Distance oracles: strategies, geodesics, balls, and cache files."""

from __future__ import annotations

import random
from collections import deque
from itertools import permutations, product
from math import comb, factorial

import numpy as np
import pytest

from cayleykit import (
    CacheError,
    CapabilityError,
    DistanceOracle,
    ModelError,
    UnreachableError,
    adjacent_model,
    apply_word,
    build_oracle,
    cache_path,
    circular_model,
    custom_model,
    cyclic_model,
    load_table_cache,
    parse_model,
    perm_parity,
    save_table_cache,
    verify_table_cache,
    z2_model,
)
from cayleykit import cayley, intervals, ranking
from cayleykit.cayley import UNREACHED


def _bfs_lengths(model):
    """Plain dict BFS, the reference for every table strategy."""
    dist = {model.identity: 0}
    queue = deque([model.identity])
    while queue:
        x = queue.popleft()
        for s in model.generating_set.generators:
            y = model.multiply(x, s)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _inversion_count(perm):
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def test_table_lengths_match_dict_bfs():
    for model in (circular_model(4), circular_model(5)):
        oracle = DistanceOracle(model, "table")
        reference = _bfs_lengths(model)
        for g, d in reference.items():
            assert oracle.length(g) == d


def test_table_lengths_match_dict_bfs_on_a_semigroup_set():
    model = custom_model(5, ["(1,2,3)(4,5)", "(1,2,3)", "(1,4)"])
    oracle = DistanceOracle(model, "table")
    reference = _bfs_lengths(model)
    assert len(reference) == 120
    for g, d in reference.items():
        assert oracle.length(g) == d


def test_z2_distance_is_l1():
    oracle = build_oracle(z2_model())
    assert oracle.distance((0, 0), (4, 3)) == 7
    assert oracle.distance((2, -1), (-1, 5)) == 9
    assert oracle.distance((3, 3), (3, 3)) == 0


def test_cyclic_distances():
    inv = build_oracle(cyclic_model(10))
    assert inv.distance(0, 3) == 3
    assert inv.distance(0, 7) == 3
    assert inv.diameter() == 5
    semi = build_oracle(cyclic_model(10, inverse_closed=False))
    assert semi.distance(0, 7) == 7
    assert semi.distance(7, 0) == 3
    assert semi.diameter() == 9
    # in C_2 the one generator is its own inverse, so both modes give the same metric
    for model in (cyclic_model(2), cyclic_model(2, inverse_closed=False)):
        oracle = build_oracle(model)
        assert [[oracle.distance(a, b) for b in (0, 1)] for a in (0, 1)] == [[0, 1], [1, 0]]
        assert oracle.diameter() == 1


def test_adjacent_distance_is_inversion_count():
    model = adjacent_model(6)
    oracle = build_oracle(model)
    assert oracle.strategy == "analytic"
    rng = random.Random(3)
    for _ in range(50):
        g = tuple(rng.sample(range(6), 6))
        h = tuple(rng.sample(range(6), 6))
        t = model.multiply(model.inverse(g), h)
        assert oracle.distance(g, h) == _inversion_count(t)
    assert oracle.diameter() == 15


def test_left_invariance_between_strategies():
    model = circular_model(6)
    table = DistanceOracle(model, "table")
    bidi = DistanceOracle(model, "bidirectional")
    rng = random.Random(5)
    for _ in range(60):
        g = tuple(rng.sample(range(6), 6))
        h = tuple(rng.sample(range(6), 6))
        t = tuple(rng.sample(range(6), 6))
        d = table.distance(g, h)
        assert bidi.distance(g, h) == d
        assert table.distance(model.multiply(t, g), model.multiply(t, h)) == d
        assert table.length(model.multiply(model.inverse(g), h)) == d


@pytest.mark.parametrize("spec", [
    "sym-circular:8",
    "sym-custom:7:(1,2);(1,2,3,4,5,6,7)",  # not inverse-closed: the search steps back by inverses
    "sym-adjacent:6",  # analytic by default, both strategies forced here
])
def test_bidirectional_search_matches_the_table(spec):
    model = parse_model(spec)
    table = DistanceOracle(model, "table")
    search = DistanceOracle(model, "bidirectional")
    # the antipodes: every rank at the largest distance from e
    far = np.flatnonzero(table.lengths == table.lengths.max())
    antipodes = [tuple(int(v) for v in table.perms[r]) for r in far[:3]]
    rng = random.Random(17)
    pairs = [(model.identity, a) for a in antipodes] + [(a, model.identity) for a in antipodes]
    for _ in range(25):
        g = tuple(rng.sample(range(model.n), model.n))
        pairs += [(g, tuple(rng.sample(range(model.n), model.n))), (g, g)]
    for g, h in pairs:
        assert search.distance(g, h) == table.distance(g, h), (g, h)
    assert search.length(antipodes[0]) == table.diameter()


def test_length_parity_equals_permutation_parity():
    model = circular_model(5)
    oracle = DistanceOracle(model, "table")
    for g in model.elements():
        assert oracle.length(g) % 2 == perm_parity(g)


def test_strategy_validation():
    # model -> the strategies it accepts; the default is the first of them
    # in the order analytic, table, bidirectional
    order = ("analytic", "table", "bidirectional")
    matrix = [
        (z2_model(), {"analytic"}),
        (cyclic_model(7), {"analytic"}),
        (cyclic_model(7, inverse_closed=False), {"analytic"}),
        (adjacent_model(5), {"analytic", "table", "bidirectional"}),
        (circular_model(5), {"table", "bidirectional"}),
        (circular_model(10), {"bidirectional"}),
        (custom_model(5, ["(1,2)", "(1,2,3,4,5)"]), {"table", "bidirectional"}),
    ]
    for model, accepted in matrix:
        for strategy in order:
            if strategy in accepted:
                assert DistanceOracle(model, strategy).strategy == strategy
            else:
                with pytest.raises(CapabilityError, match=f"strategy '{strategy}' unsupported"):
                    DistanceOracle(model, strategy)
        with pytest.raises(ModelError, match="unknown strategy 'dijkstra'"):
            DistanceOracle(model, "dijkstra")
        default = next(s for s in order if s in accepted)
        assert DistanceOracle(model).strategy == default
        assert build_oracle(model).strategy == default


def test_length_refuses_a_tuple_that_is_not_a_permutation():
    oracle = DistanceOracle(circular_model(5), "table")
    with pytest.raises(ModelError, match="not a permutation"):
        oracle.length((0, 0, 0, 0, 0))


NOT_IN_S5 = [(0, 0, 0, 0, 0), (1, 1, 2, 3, 4), (9, 9, 9, 9, 9), (0, 1, 2, 3)]


@pytest.mark.parametrize(
    "spec, strategy, bad",
    [
        ("sym-circular:5", "table", NOT_IN_S5),
        ("sym-circular:5", "bidirectional", NOT_IN_S5),
        ("sym-adjacent:5", "analytic", NOT_IN_S5),
        ("z2", "analytic", [(1.5, 2), (0, 0, 0), (True, 1.0)]),
        ("cyclic:7", "analytic", [7, -1, True, 2.0]),
    ],
)
def test_distance_refuses_non_elements_on_either_side(spec, strategy, bad):
    model = parse_model(spec)
    oracle = DistanceOracle(model, strategy)
    for x in bad:
        for args in ((model.identity, x), (x, model.identity)):
            with pytest.raises(ModelError):
                oracle.distance(*args)


def test_unreachable_is_an_error_not_a_distance():
    sub = custom_model(4, ["(1,2)"], require_generating=False)
    for strategy in ("table", "bidirectional"):
        oracle = DistanceOracle(sub, strategy)
        assert oracle.distance(sub.identity, sub.parse_element("(1,2)")) == 1
        # the message names both elements in cycle notation, whatever the search holds
        with pytest.raises(UnreachableError, match=r"^no word from e to \(1,3\)$"):
            oracle.distance(sub.identity, sub.parse_element("(1,3)"))
        with pytest.raises(UnreachableError, match=r"^no word from \(1,2\) to \(3,4\)$"):
            oracle.distance(*map(sub.parse_element, ("(1,2)", "(3,4)")))
        with pytest.raises(UnreachableError):
            oracle.length(sub.parse_element("(3,4)"))


def test_geodesics_count_and_words():
    model = circular_model(4)
    oracle = build_oracle(model)
    top = model.parse_element("(1,3,4,2)")
    gs = oracle.geodesics(model.identity, top, enumerate_words=True)
    assert gs.distance == 3
    assert gs.count == 4
    assert len(gs.words) == 4
    assert not gs.truncated
    for word in gs.words:
        acc = model.identity
        for j in word:
            acc = model.multiply(acc, model.generating_set.generators[j])
        assert acc == top
    # every geodesic word, in lexicographic order of generator indices
    gens = model.generating_set.generators
    brute = []
    for word in product(range(len(gens)), repeat=3):
        acc = model.identity
        for j in word:
            acc = model.multiply(acc, gens[j])
        if acc == top:
            brute.append(word)
    assert list(gs.words) == brute
    # capped enumeration keeps the exact count and the first words in order
    capped = oracle.geodesics(model.identity, top, enumerate_words=True, cap=2)
    assert capped.count == 4
    assert list(capped.words) == brute[:2]
    assert capped.truncated


def _geodesic_words_by_brute_force(model, g, max_length):
    """h -> (d(g, h), every word of length d(g, h) from g to h, sorted), for h within max_length.

    Words of each length are tried in lexicographic order; an element's
    distance is the first length at which some word reaches it.  A finite
    group stops at the first length by which every element is reached.
    """
    found = {}
    for length in range(max_length + 1):
        if len(found) == model.order:
            break
        for word in product(range(len(model.generating_set)), repeat=length):
            h = apply_word(model, g, word)
            d, words = found.setdefault(h, (length, []))
            if d == length:
                words.append(word)
    return found


@pytest.mark.parametrize(
    "spec, strategy",
    [
        ("sym-circular:4", None),
        ("sym-circular:4", "bidirectional"),
        ("sym-custom:4:(1,2);(1,2,3,4)", None),
        ("cyclic:7:semigroup", None),
    ],
)
def test_enumerated_words_are_every_geodesic_word(spec, strategy):
    model = parse_model(spec)
    oracle = DistanceOracle(model, strategy)
    for g in model.elements():
        brute = _geodesic_words_by_brute_force(model, g, model.order)
        assert len(brute) == model.order
        for h, (d, words) in brute.items():
            gs = oracle.geodesics(g, h, enumerate_words=True)
            assert (gs.distance, gs.count, gs.words) == (d, len(words), tuple(words))


def test_enumerated_z2_words_are_every_geodesic_word():
    model = z2_model()
    oracle = build_oracle(model)
    for g in ((0, 0), (2, -1)):
        brute = _geodesic_words_by_brute_force(model, g, 6)
        for dx, dy in product(range(-3, 4), repeat=2):
            h = (g[0] + dx, g[1] + dy)
            d, words = brute[h]
            gs = oracle.geodesics(g, h, enumerate_words=True)
            assert (gs.distance, gs.count, gs.words) == (d, len(words), tuple(words))
    # a box far too large to walk: the cap bounds the work, and the count stays exact
    gs = oracle.geodesics((0, 0), (40, -40), enumerate_words=True, cap=3)
    assert gs.words == (
        (0,) * 40 + (3,) * 40,
        (0,) * 39 + (3, 0) + (3,) * 39,
        (0,) * 39 + (3, 3, 0) + (3,) * 38,
    )
    assert gs.truncated and gs.count == comb(80, 40)


@pytest.mark.parametrize(
    "spec, g, h",
    [
        ("sym-circular:6", "e", "(1,4)(2,5)(3,6)"),
        ("sym-custom:5:(1,2);(1,2,3,4,5)", "e", "(1,5,2,4)"),
        ("cyclic:7:semigroup", "1", "0"),
        ("z2", "(2,-1)", "(-3,4)"),
    ],
)
def test_enumerating_words_makes_no_distance_call_of_its_own(monkeypatch, spec, g, h):
    model = parse_model(spec)
    oracle = build_oracle(model)
    g, h = model.parse_element(g), model.parse_element(h)
    calls = 0
    unchecked_distance = DistanceOracle.unchecked_distance

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return unchecked_distance(self, x, y)

    monkeypatch.setattr(DistanceOracle, "unchecked_distance", counted)
    counted_only = oracle.geodesics(g, h)
    count_calls, calls = calls, 0
    enumerated = oracle.geodesics(g, h, enumerate_words=True)
    assert calls == count_calls > 0
    assert len(enumerated.words) == enumerated.count == counted_only.count


def _lattice_paths(dx, dy):
    """Monotone unit-step paths across a |dx| by |dy| grid box, by dynamic programming."""
    row = [1] * (abs(dy) + 1)
    for _ in range(abs(dx)):
        for j in range(1, len(row)):
            row[j] += row[j - 1]
    return row[-1]


def test_z2_geodesic_counts_match_a_lattice_path_dp():
    oracle = build_oracle(z2_model())
    for src in ((0, 0), (5, -3)):
        for dx, dy in product(range(-6, 7), repeat=2):
            dst = (src[0] + dx, src[1] + dy)
            gs = oracle.geodesics(src, dst)
            assert (gs.distance, gs.count) == (abs(dx) + abs(dy), _lattice_paths(dx, dy))


def test_z2_geodesic_count_runs_no_grade_walk(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("grade_walk called")

    monkeypatch.setattr(intervals, "grade_walk", boom)
    gs = build_oracle(z2_model()).geodesics((10, -20), (310, 280))
    assert (gs.distance, gs.count) == (600, _lattice_paths(300, 300))


def test_geodesics_of_the_antipode_in_even_cyclic_groups():
    oracle = build_oracle(cyclic_model(8))
    gs = oracle.geodesics(0, 4, enumerate_words=True)
    assert gs.count == 2
    assert sorted(gs.words) == [(0, 0, 0, 0), (1, 1, 1, 1)]


def test_ball_matches_distances():
    model = circular_model(4)
    oracle = build_oracle(model)
    g = model.parse_element("(1,2,3)")
    assert oracle.ball(g, 0) == {g}
    for radius in (1, 2):
        ball = oracle.ball(g, radius)
        for h in model.elements():
            assert (h in ball) == (oracle.distance(g, h) <= radius)


def test_a_ball_past_the_diameter_is_the_whole_group():
    model = circular_model(5)
    assert build_oracle(model).ball(model.identity, 10**9) == set(model.elements())


def test_ball_sizes_follow_the_distance_histogram():
    # each ball is exactly the elements within its radius, on an inverse-closed
    # set and on a directed one
    for model in (circular_model(6), custom_model(6, ["(1,2)", "(1,2,3,4,5,6)"])):
        oracle = DistanceOracle(model, "table")
        for g in (model.identity, model.parse_element("(1,3)(2,5,6)")):
            dist = oracle.dist_from(g)
            for radius in range(int(dist.max()) + 2):
                want = {tuple(int(v) for v in p) for p in oracle.perms[dist <= radius]}
                assert oracle.ball(g, radius) == want


def test_dist_from_matches_distance_and_keeps_the_unreached_marker():
    # <(1,2,3), (4,5)> has order 6 in S6, so most ranks are unreached from g;
    # on the directed set d(g, x) = l(g^-1 x) differs from l(x^-1 g)
    sub = custom_model(6, ["(1,2,3)", "(1,3,2)", "(4,5)"], require_generating=False)
    rng = random.Random(11)
    for model in (circular_model(5), custom_model(5, ["(1,2)", "(1,2,3,4,5)"]), sub):
        oracle = build_oracle(model)
        assert "perms" not in vars(oracle)  # built on first use only
        everyone = list(permutations(range(model.n)))  # lexicographic = rank order
        for g in rng.sample(everyone, 4):
            want = []
            for x in everyone:
                try:
                    want.append(oracle.distance(g, x))
                except UnreachableError:
                    want.append(UNREACHED)
            got = oracle.dist_from(g)
            assert got.tolist() == want
        assert oracle.perms.tolist() == [list(p) for p in everyone]
    # a sum of two vectors must not wrap past the marker, as uint8 would
    assert int((got + got).max()) == 2 * UNREACHED


def test_ball_rejects_negative_radius():
    oracle = build_oracle(z2_model())
    with pytest.raises(ModelError):
        oracle.ball((0, 0), -1)


@pytest.mark.parametrize("model", [circular_model(5), z2_model()], ids=["sym", "z2"])
def test_geodesics_rejects_a_negative_cap(model):
    oracle = build_oracle(model)
    g, h = model.identity, model.generating_set.generators[0]
    with pytest.raises(ModelError, match="cap must be nonnegative, got -1"):
        oracle.geodesics(g, h, enumerate_words=True, cap=-1)
    assert oracle.geodesics(g, h, enumerate_words=True, cap=0).words == ()


def test_diameter_needs_a_table_or_formula():
    with pytest.raises(CapabilityError):
        build_oracle(z2_model()).diameter()
    table = DistanceOracle(circular_model(5), "table")
    assert table.diameter() == max(
        table.length(g) for g in circular_model(5).elements()
    )


def test_cache_round_trip(tmp_path):
    model = circular_model(5)
    fresh = DistanceOracle(model, "table")
    path = cache_path(model, tmp_path)
    save_table_cache(model, fresh.lengths, path)
    assert load_table_cache(model, path).tolist() == fresh.lengths.tolist()
    verify_table_cache(model, path)

    loaded = DistanceOracle(model, "table", cache_dir=tmp_path)
    assert loaded.lengths.tolist() == fresh.lengths.tolist()


def test_cache_rejects_damage(tmp_path):
    model = circular_model(5)
    oracle = DistanceOracle(model, "table")
    path = cache_path(model, tmp_path)
    save_table_cache(model, oracle.lengths, path)

    other = circular_model(6)
    with pytest.raises(CacheError):
        load_table_cache(other, path)

    raw = bytearray(path.read_bytes())
    raw[-30] ^= 0x40  # flip a payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        verify_table_cache(model, path)

    raw = bytearray(path.read_bytes())
    raw[3] ^= 0xFF  # break the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        load_table_cache(model, path)


def _damage_s6_lengths(case):
    """Circular S6 lengths with one kind of damage, checksummed as valid.

    Rank 450 is the unique antipode (distance 9, all six neighbours at 8),
    rank 120 is the identity's neighbour along generator 0, and generator 0
    is a transposition, so ranks 5 and 125 form one of its 2-cycles.

    - identity: the identity stores 1;
    - second zero: the antipode stores 0;
    - jump: the identity's neighbour stores 3;
    - unreached successor: the 2-cycle stores 254 and UNREACHED;
    - unreached antipode: the antipode stores UNREACHED;
    - no predecessor: the antipode stores 8, as all its neighbours do.
    """
    lengths = DistanceOracle(circular_model(6), "table").lengths.copy()
    if case == "identity":
        lengths[0] = 1
    elif case == "second zero":
        lengths[450] = 0
    elif case == "jump":
        lengths[120] = 3
    elif case == "unreached successor":
        lengths[5], lengths[125] = 254, UNREACHED
    elif case == "unreached antipode":
        lengths[450] = UNREACHED
    else:
        lengths[450] = 8
    return lengths


# the first rank in rank order where the equation fails, which may be a
# neighbour of the damaged rank (rank 330 steps onto the zero at 450)
SWEEP_ERRORS = {
    "identity": "rank 0 stores 1, the distance equation gives 0",
    "second zero": "rank 330 stores 8, the distance equation gives 1",
    "jump": "rank 120 stores 3, the distance equation gives 1",
    "unreached successor": "rank 5 stores 254, the distance equation gives 3",
    "unreached antipode": "rank 450 stores 255, the distance equation gives 9",
    "no predecessor": "rank 450 stores 8, the distance equation gives 9",
}


@pytest.mark.parametrize("case", SWEEP_ERRORS)
def test_verify_sweep_refuses_a_checksummed_bad_table(tmp_path, case):
    model = circular_model(6)
    path = cache_path(model, tmp_path)
    save_table_cache(model, _damage_s6_lengths(case), path)
    load_table_cache(model, path)  # the header and CRC are valid
    with pytest.raises(CacheError, match=f": {SWEEP_ERRORS[case]}$"):
        verify_table_cache(model, path)


def test_verify_refuses_every_single_rank_damage_on_s5(tmp_path):
    """Each rank of three S5 tables set to 0, 1, l - 1, l + 1, 254 and 255 in
    turn: every changed table is refused and every dict-BFS table passes,
    the subgroup's with its unreachable ranks included."""
    models = (
        circular_model(5),
        custom_model(5, ["(1,2)", "(1,2,3,4,5)"]),
        custom_model(5, ["(1,2,3)", "(4,5)"], require_generating=False),
    )
    damaged = 0
    for model in models:
        good = np.array(_dict_bfs_by_rank(model), dtype=np.uint8)
        path = cache_path(model, tmp_path)
        save_table_cache(model, good, path)
        verify_table_cache(model, path)
        for r, l in enumerate(good.tolist()):
            for v in sorted(({0, 1, l - 1, l + 1, 254, UNREACHED} - {l}) & set(range(256))):
                lengths = good.copy()
                lengths[r] = v
                save_table_cache(model, lengths, path)
                with pytest.raises(CacheError, match=r": rank \d+ stores \d+, the distance"):
                    verify_table_cache(model, path)
                damaged += 1
    assert damaged == 1771


def test_cache_refuses_a_version_1_file(tmp_path):
    model = circular_model(5)
    path = save_table_cache(model, DistanceOracle(model, "table").lengths, tmp_path / "t.cayd")
    raw = path.read_bytes()
    crc_at = 7 + len(model.name) + 9
    # version 1 had the same header without the payload CRC
    path.write_bytes(raw[:4] + bytes([1]) + raw[5:crc_at] + raw[crc_at + 4 :])
    with pytest.raises(CacheError, match="version 1"):
        load_table_cache(model, path)


def test_cache_save_replaces_the_file_atomically(tmp_path, monkeypatch):
    model = circular_model(5)
    lengths = DistanceOracle(model, "table").lengths
    path = save_table_cache(model, lengths, tmp_path / "t.cayd")
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cayley.os, "replace", interrupted)
    with pytest.raises(CacheError, match="disk full"):
        save_table_cache(model, np.zeros_like(lengths), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.cayd"]
    monkeypatch.undo()
    save_table_cache(model, lengths, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.cayd"]


def test_cache_detects_a_generator_set_swap(tmp_path):
    model = circular_model(4)
    oracle = DistanceOracle(model, "table")
    path = tmp_path / "shared.cayd"
    save_table_cache(model, oracle.lengths, path)
    impostor = custom_model(4, ["(1,2)", "(2,3)", "(3,4)", "(1,4)", "(1,3)"])
    with pytest.raises(CacheError):
        load_table_cache(impostor, path)


def test_bfs_table_is_dense_for_generating_sets():
    oracle = DistanceOracle(circular_model(6), "table")
    assert int(np.count_nonzero(oracle.lengths != UNREACHED)) == 720


def test_cache_loaded_oracle_answers_without_ranking_tables(tmp_path, monkeypatch):
    model = circular_model(6)
    fresh = DistanceOracle(model, "table")
    save_table_cache(model, fresh.lengths, cache_path(model, tmp_path))

    def boom(*args, **kwargs):
        raise AssertionError("rank_rows called on a cache hit")

    monkeypatch.setattr(ranking, "rank_rows", boom)
    monkeypatch.setattr(cayley, "rank_rows", boom)
    loaded = DistanceOracle(model, "table", cache_dir=tmp_path)
    rng = random.Random(7)
    for _ in range(40):
        g = tuple(rng.sample(range(6), 6))
        h = tuple(rng.sample(range(6), 6))
        assert loaded.distance(g, h) == fresh.distance(g, h)


def _rank_index(n):
    """itertools.permutations lists S_n in lexicographic order, which is rank order."""
    return {p: r for r, p in enumerate(permutations(range(n)))}


def _random_custom_model(rng, n, size):
    gens = set()
    while len(gens) < size:
        g = tuple(rng.sample(range(n), n))
        if g != tuple(range(n)):
            gens.add(g)
    return custom_model(n, sorted(gens), require_generating=False)


def _assert_tables_are_right_products(model, perms=None):
    """ranking.right_tables against products ranked by position in itertools order."""
    if perms is None:
        perms = model.generating_set.generators
    index = _rank_index(model.n)
    tables = ranking.right_tables(model.n, perms)
    assert tables.dtype == np.int32
    assert tables.shape == (len(perms), len(index))
    for j, s in enumerate(perms):
        want = [index[model.multiply(p, s)] for p in index]
        assert tables[j].tolist() == want, (model.name, j)


def test_generator_tables_match_products_on_random_sets():
    # S_1 has no generator (the identity is refused), so n starts at 2
    rng = random.Random(2024)
    for n in range(2, 8):
        for size in (1, 2, 3, 4):
            if size < factorial(n):
                _assert_tables_are_right_products(_random_custom_model(rng, n, size))


def test_generator_tables_match_products_at_s8():
    for model in (
        circular_model(8),
        adjacent_model(8),
        custom_model(8, ["(1,2,3,4,5,6,7,8)", "(1,2)"]),
    ):
        _assert_tables_are_right_products(model)


def test_right_tables_match_products_on_lists_that_are_not_generating_sets():
    # the model supplies only the tuple product and the identity
    rng = random.Random(31)
    for n in range(2, 8):
        model = adjacent_model(n)
        one = tuple(rng.sample(range(n), n))
        _assert_tables_are_right_products(model, [one])
        _assert_tables_are_right_products(model, [model.identity])
        _assert_tables_are_right_products(model, [one, model.identity, one])
    # the normaliser of the circular set in S6: the 12 symmetries of a hexagon
    model = circular_model(6)
    gens = set(model.generating_set.generators)
    members = [p for p in permutations(range(6)) if {model.conjugate(s, p) for s in gens} == gens]
    assert len(members) == 12
    _assert_tables_are_right_products(model, members)


def _dict_bfs_by_rank(model):
    reached = _bfs_lengths(model)
    return [reached.get(p, UNREACHED) for p in permutations(range(model.n))]


@pytest.mark.parametrize("n", [6, 7])
def test_bfs_table_matches_dict_bfs(n):
    cycle = "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"
    subgroup = custom_model(n, ["(1,2,3)", "(4,5)"], require_generating=False)
    models = (
        circular_model(n),
        custom_model(n, [cycle, "(1,2)"]),  # directed: the cycle's inverse is absent
        subgroup,
    )
    for model in models:
        lengths = cayley._bfs_table(ranking.right_tables(model.n, model.generating_set.generators))
        assert lengths.dtype == np.uint8
        assert lengths.tolist() == _dict_bfs_by_rank(model), model.name
        assert (UNREACHED in lengths) == (model is subgroup)


def test_table_build_and_verify_rank_no_permutation(tmp_path, monkeypatch):
    model = circular_model(7)
    want = _dict_bfs_by_rank(model)

    def boom(*args, **kwargs):
        raise AssertionError("a permutation was ranked")

    for name in ("rank_rows", "all_perms_array"):
        monkeypatch.setattr(ranking, name, boom)
        monkeypatch.setattr(cayley, name, boom)
    oracle = DistanceOracle(model, "table")
    assert oracle.lengths.tolist() == want
    path = save_table_cache(model, oracle.lengths, cache_path(model, tmp_path))

    def no_bfs(*args, **kwargs):
        raise AssertionError("verify ran the BFS that wrote the table")

    monkeypatch.setattr(cayley, "_bfs_table", no_bfs)
    verify_table_cache(model, path)
