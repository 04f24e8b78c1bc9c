"""Distance oracles: strategies, geodesics, balls, and cache files."""

from __future__ import annotations

import random
from collections import deque
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from cayleykit import (
    CacheError,
    CapabilityError,
    DistanceOracle,
    ModelError,
    UnreachableError,
    adjacent_model,
    build_oracle,
    cache_path,
    circular_model,
    custom_model,
    cyclic_model,
    load_table_cache,
    perm_parity,
    save_table_cache,
    verify_table_cache,
    z2_model,
)
from cayleykit import cayley, ranking
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


def test_length_parity_equals_permutation_parity():
    model = circular_model(5)
    oracle = DistanceOracle(model, "table")
    for g in model.elements():
        assert oracle.length(g) % 2 == perm_parity(g)


def test_strategy_validation():
    with pytest.raises(CapabilityError):
        DistanceOracle(circular_model(5), "analytic")
    with pytest.raises(CapabilityError):
        DistanceOracle(z2_model(), "table")
    with pytest.raises(ModelError):
        DistanceOracle(circular_model(5), "dijkstra")
    assert DistanceOracle(cyclic_model(7)).strategy == "analytic"
    assert DistanceOracle(circular_model(5)).strategy == "table"
    assert build_oracle(circular_model(10)).strategy == "bidirectional"


def test_unreachable_is_an_error_not_a_distance():
    sub = custom_model(4, ["(1,2)"], require_generating=False)
    oracle = DistanceOracle(sub, "table")
    assert oracle.distance(sub.identity, sub.parse_element("(1,2)")) == 1
    with pytest.raises(UnreachableError):
        oracle.distance(sub.identity, sub.parse_element("(1,3)"))
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


def test_ball_rejects_negative_radius():
    oracle = build_oracle(z2_model())
    with pytest.raises(ModelError):
        oracle.ball((0, 0), -1)


def test_diameter_needs_a_table_or_formula():
    with pytest.raises(CapabilityError):
        build_oracle(z2_model()).diameter()
    table = DistanceOracle(circular_model(5), "table")
    assert table.diameter() == max(
        table.length(g) for g in circular_model(5).elements()
    )


def test_word_ranks_are_geodesic_words():
    model = circular_model(5)
    oracle = DistanceOracle(model, "table")
    rng = random.Random(11)
    gens = model.generating_set.generators
    for _ in range(25):
        r = rng.randrange(120)
        word = oracle.word_ranks(r)
        assert len(word) == int(oracle.lengths[r])
        acc = model.identity
        for j in word:
            acc = model.multiply(acc, gens[j])
        assert oracle.rank(acc) == r


def test_cache_round_trip(tmp_path):
    model = circular_model(5)
    fresh = DistanceOracle(model, "table")
    path = cache_path(model, tmp_path)
    save_table_cache(model, fresh.lengths, path)
    assert load_table_cache(model, path).tolist() == fresh.lengths.tolist()
    verify_table_cache(model, path)

    loaded = DistanceOracle(model, "table", cache_dir=tmp_path)
    assert loaded.lengths.tolist() == fresh.lengths.tolist()
    # parents derive from the loaded lengths
    word = loaded.word_ranks(77)
    assert len(word) == int(loaded.lengths[77])


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


def _first_parent_words(model):
    """Dict BFS, one level at a time and generator by generator over the level.

    Each element keeps the first generator that reaches it, so its parent is
    the lowest-index generator stepping from the previous level; the word of
    an element follows those parents back to the identity.
    """
    gens = model.generating_set.generators
    parent = {model.identity: None}
    level = [model.identity]
    while level:
        nxt = []
        for j, s in enumerate(gens):
            for x in level:
                y = model.multiply(x, s)
                if y not in parent:
                    parent[y] = (j, x)
                    nxt.append(y)
        level = nxt
    words = {}
    for g in parent:
        word = []
        x = g
        while parent[x] is not None:
            j, x = parent[x]
            word.append(j)
        words[g] = word[::-1]
    return words


def test_word_ranks_of_a_cache_loaded_oracle_match_first_parent_bfs(tmp_path):
    model = circular_model(6)
    fresh = DistanceOracle(model, "table")
    save_table_cache(model, fresh.lengths, cache_path(model, tmp_path))
    loaded = DistanceOracle(model, "table", cache_dir=tmp_path)
    reference = _first_parent_words(model)
    assert len(reference) == 720
    parents = loaded.parents()
    for g, word in reference.items():
        r = fresh.rank(g)
        assert fresh.word_ranks(r) == word
        assert loaded.word_ranks(r) == word
        assert int(parents[r]) == (word[-1] if word else UNREACHED)


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


def _assert_tables_are_right_products(model):
    index = _rank_index(model.n)
    tables = cayley._generator_tables(model)
    assert tables.dtype == np.int32
    assert tables.shape == (len(model.generating_set.generators), len(index))
    for j, s in enumerate(model.generating_set.generators):
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
        lengths = cayley._bfs_table(cayley._generator_tables(model))
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
    verify_table_cache(model, path)
