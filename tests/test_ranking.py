"""Lexicographic ranking: the scalar and vectorised forms against itertools order."""

from __future__ import annotations

import random
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from cayleykit.ranking import all_perms_array, perm_rank, perm_unrank, rank_rows


def _lehmer_rank(perm) -> int:
    """Textbook rank: each position counts the smaller values after it, weighted by (n-1-i)!."""
    n = len(perm)
    return sum(
        sum(perm[j] < perm[i] for j in range(i + 1, n)) * factorial(n - 1 - i)
        for i in range(n)
    )


@pytest.mark.parametrize("n", range(9))
def test_all_perms_array_is_itertools_order(n):
    perms = all_perms_array(n)
    assert perms.dtype == np.uint8
    assert perms.shape == (factorial(n), n)
    assert perms.tolist() == [list(p) for p in permutations(range(n))]
    ranks = rank_rows(perms)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, np.arange(factorial(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_rows_equals_perm_rank_on_whole_groups(n):
    every = list(permutations(range(n)))
    assert [perm_rank(p) for p in every] == list(range(factorial(n)))
    rows = np.array(every, dtype=np.uint8)
    np.random.default_rng(n).shuffle(rows)
    got = rank_rows(rows)
    assert got.dtype == np.int64 and got.shape == (len(rows),)
    assert got.tolist() == [perm_rank(p) for p in rows.tolist()]


def test_rank_rows_equals_perm_rank_on_random_rows():
    rng = np.random.default_rng(2001)
    for n in range(8, 13):
        rows = np.array([rng.permutation(n) for _ in range(300)], dtype=np.uint8)
        got = rank_rows(rows)
        assert got.dtype == np.int64 and got.shape == (300,)
        want = [perm_rank(p) for p in rows.tolist()]
        assert got.tolist() == want
        assert want == [_lehmer_rank(p) for p in rows.tolist()]
    assert rank_rows(np.zeros((0, 5), dtype=np.uint8)).shape == (0,)


def test_perm_unrank_inverts_perm_rank():
    for n in range(7):
        for r in range(factorial(n)):
            assert perm_rank(perm_unrank(r, n)) == r
    rng = random.Random(12)
    for _ in range(200):
        p = tuple(rng.sample(range(12), 12))
        assert perm_unrank(perm_rank(p), 12) == p
