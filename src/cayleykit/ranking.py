"""Lehmer-code ranking of permutations.

Permutations are 0-based image tuples; ranks run 0 .. n!-1 in lexicographic
order of the image tuple, so the identity always has rank 0.  numpy loads
only when an array function first runs.  right_tables reads products from the
block order of all_perms_array; rank_rows ranks new rows, such as inverses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def perm_rank(perm) -> int:
    """Lexicographic rank of a permutation given as a 0-based image tuple."""
    n = len(perm)
    r = 0
    seen = 0
    for i, v in enumerate(perm):
        smaller = v - (seen & ((1 << v) - 1)).bit_count()
        r = r * (n - i) + smaller
        seen |= 1 << v
    return r


def perm_unrank(r: int, n: int) -> tuple:
    """Inverse of perm_rank."""
    digits = []
    for base in range(1, n + 1):
        r, d = divmod(r, base)
        digits.append(d)
    digits.reverse()
    items = list(range(n))
    return tuple(items.pop(d) for d in digits)


def all_perms_array(n: int) -> np.ndarray:
    """(n!, n) uint8 array of every permutation in rank order.

    S_k is built from S_(k-1) in blocks: block v holds v followed by the
    remaining values rest_v = (0..k-1 without v), arranged as S_(k-1) in rank
    order.  rest_v is increasing, so each block stays lexicographic.
    """
    import numpy as np

    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        block = len(perms)
        out = np.empty((block * k, k), dtype=np.uint8)
        for v in range(k):
            rest = np.delete(np.arange(k, dtype=np.uint8), v)
            rows = out[v * block : (v + 1) * block]
            rows[:, 0] = v
            rows[:, 1:] = rest[perms]
        perms = out
    return perms


def right_tables(n: int, perms) -> np.ndarray:
    """Rank-indexed right multiplication: tables[j][r] = rank(perm_r * perms[j]), int32.

    Built from all_perms_array's blocks (ranks v*(k-1)! onward in S_k), with
    no permutation ranked.  Relabelling the values by p sends block v to
    block p(v), where it acts on S_(k-1) as the compressed permutation
    p_v(i) = p(rest_v[i]) - [p(rest_v[i]) > p(v)], so

        table_k(p) = concat over v of (p(v) * (k-1)! + table_(k-1)(p_v)).

    The distinct p_v are collected from n down (np.unique over their images
    read as base-(k-1) numbers), then the tables are filled from S_1 up.
    """
    import numpy as np

    perms = np.array(perms, dtype=np.uint8)
    levels = []  # per k from n down to 2: (the S_k perms, index of each p_v one level down)
    for k in range(n, 1, -1):
        m = len(perms)
        cols = np.arange(k - 1)
        # rest[i, v] is perms[i] without position v: (m, k, k-1)
        rest = perms[:, cols + (cols >= np.arange(k)[:, None])]
        compressed = (rest - (rest > perms[:, :, None])).reshape(m * k, k - 1)
        digits = (k - 1) ** np.arange(k - 1, dtype=np.int64)
        _, first, below = np.unique(compressed @ digits, return_index=True, return_inverse=True)
        levels.append((perms, below.reshape(m, k)))
        perms = compressed[first]
    tables = np.zeros((len(perms), 1), dtype=np.int32)  # S_1: rank 0 to rank 0
    for perms, children in reversed(levels):
        m, k = children.shape
        block = tables.shape[1]
        out = np.take(tables, children, axis=0)  # (m, k, (k-1)!)
        np.add(out, (perms.astype(np.int32) * block)[:, :, None], out=out)
        tables = out.reshape(m, k * block)
    return tables


def rank_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized perm_rank over the rows of an (m, n) uint8 permutation array, n <= 16.

    One pass per position: seen is the bitmask of the values already placed,
    and each Lehmer digit is v minus the popcount of the seen values below v.
    """
    import numpy as np

    m, n = rows.shape
    ranks = np.zeros(m, dtype=np.int64)
    seen = np.zeros(m, dtype=np.uint16)
    for i in range(n - 1):  # the last digit is always 0
        v = rows[:, i]
        bit = np.left_shift(np.uint16(1), v, dtype=np.uint16)
        ranks *= n - i
        ranks += v - np.bitwise_count(seen & (bit - np.uint16(1)))
        seen |= bit
    return ranks
