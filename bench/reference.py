"""Reference answers that the benchmark checks cayleykit against.

Nothing here imports cayleykit.  Permutations, distance tables, intervals,
geodesic counts and medians are recomputed from first principles (a plain
breadth-first search and whole-group brute force), so a wrong answer in the
package cannot also hide in its check.

Conventions match the package: a permutation is a 0-based image tuple and
products read left to right, (a * b)(i) = b(a(i)).
"""

from __future__ import annotations

import re
from itertools import chain, permutations
from math import comb, factorial

import numpy as np

UNSEEN = 255


def compose(a, b):
    """Apply a first, then b."""
    return tuple(b[x] for x in a)


def inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycle_count(p) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def parity(p) -> int:
    return (len(p) - cycle_count(p)) % 2


_CYCLE = re.compile(r"\((\d+(?:,\d+)*)\)")


def parse_perm(text: str, n: int):
    """1-based cycle notation, 'e' for the identity."""
    img = list(range(n))
    text = text.strip()
    if text in ("e", "()"):
        return tuple(img)
    pos = 0
    while pos < len(text):
        m = _CYCLE.match(text, pos)
        if m is None:
            raise ValueError(f"bad cycle notation {text!r}")
        cyc = [int(v) - 1 for v in m.group(1).split(",")]
        for i, v in enumerate(cyc):
            img[v] = cyc[(i + 1) % len(cyc)]
        pos = m.end()
    return tuple(img)


def format_perm(p) -> str:
    """Cycles that start at their smallest point, in order of that point."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = p[j]
        parts.append("(" + ",".join(cyc) + ")")
    return "".join(parts) or "e"


def circular_generators(n: int) -> list:
    """Transpositions (1,2) ... (n-1,n), (n,1) as image tuples."""
    gens = []
    for i in range(n):
        j = (i + 1) % n
        img = list(range(n))
        img[i], img[j] = j, i
        gens.append(tuple(img))
    return gens


class Table:
    """Word lengths of every element of S_n under one generating set, by BFS.

    Elements are indexed by lexicographic rank of their image tuple, so the
    identity is index 0.  Batches of permutations are held transposed, one row
    per position, which keeps the rank computation to n contiguous compares.
    """

    def __init__(self, n: int, generators):
        self.n = n
        nf = factorial(n)
        perms = np.fromiter(
            chain.from_iterable(permutations(range(n))), dtype=np.uint8, count=nf * n
        ).reshape(nf, n)
        self.perms_t = np.ascontiguousarray(perms.T)
        self.inv_t = np.ascontiguousarray(np.argsort(perms, axis=1).astype(np.uint8).T)
        self.inverse_closed = {inverse(s) for s in generators} == set(generators)
        self.succ = [self.index_rows(np.asarray(s, dtype=np.uint8)[self.perms_t]) for s in generators]
        self.pred = []
        for succ in self.succ:
            pred = np.empty_like(succ)
            pred[succ] = np.arange(nf)
            self.pred.append(pred)
        lengths = np.full(nf, UNSEEN, dtype=np.uint8)
        lengths[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            cand = np.unique(np.concatenate([succ[frontier] for succ in self.succ]))
            frontier = cand[lengths[cand] == UNSEEN]
            lengths[frontier] = level
        if np.any(lengths == UNSEEN):
            raise ValueError("generators do not generate S_n")
        self.lengths = lengths.astype(np.int16)

    @staticmethod
    def index_rows(rows_t: np.ndarray) -> np.ndarray:
        """Lexicographic rank of each column: sum of (smaller later entries) * (n-1-i)!."""
        n = rows_t.shape[0]
        ranks = np.zeros(rows_t.shape[1], dtype=np.int64)
        for i in range(n):
            ranks *= n - i
            ranks += (rows_t[i + 1 :] < rows_t[i]).sum(axis=0)
        return ranks

    def index(self, p) -> int:
        n = len(p)
        rank = 0
        for i in range(n):
            rank = rank * (n - i) + sum(1 for j in range(i + 1, n) if p[j] < p[i])
        return rank

    def element(self, r: int):
        return tuple(int(v) for v in self.perms_t[:, r])

    def length(self, g) -> int:
        return int(self.lengths[self.index(g)])

    def distance(self, g, h) -> int:
        return self.length(compose(inverse(g), h))

    def dist_from(self, g) -> np.ndarray:
        """d(g, x) = l(g^-1 x) for every x; (g^-1 x)(i) = x(g^-1(i))."""
        return self.lengths[self.index_rows(self.perms_t[list(inverse(g))])]

    def dist_to(self, h) -> np.ndarray:
        """d(x, h) = l(x^-1 h) for every x; (x^-1 h)(i) = h(x^-1(i))."""
        return self.lengths[self.index_rows(np.asarray(h, dtype=np.uint8)[self.inv_t])]

    def interval_summary(self, g, h) -> tuple:
        """(length, rank profile, geodesic count) of [g, h] by whole-group scan.

        Left translation by g^-1 maps [g, h] onto [e, g^-1 h] with its grading,
        so only the interval from the identity is scanned.  The geodesic count
        adds, level by level, the counts of each member's predecessors one
        level closer to the identity; counts stay below k**length for k
        generators, so int64 is exact for the sizes the benchmark runs.
        """
        t = compose(inverse(g), h)
        dg = self.lengths
        length = self.length(t)
        mask = dg + self.dist_to(t) == length
        profile = tuple(int(c) for c in np.bincount(dg[mask], minlength=length + 1))
        counts = np.zeros(len(dg), dtype=np.int64)
        counts[0] = 1
        for level in range(1, length + 1):
            here = np.flatnonzero(mask & (dg == level))
            total = np.zeros(len(here), dtype=np.int64)
            for pred in self.pred:
                p = pred[here]
                total += np.where(mask[p] & (dg[p] == level - 1), counts[p], 0)
            counts[here] = total
        return length, profile, int(counts[self.index(t)])

    def interval_rank_sets(self, g, h) -> list:
        """Elements of [g, h] by distance from g."""
        dg = self.dist_from(g)
        length = int(dg[self.index(h)])
        mask = dg + self.dist_to(h) == length
        return [
            {self.element(r) for r in np.flatnonzero(mask & (dg == i))}
            for i in range(length + 1)
        ]

    def median(self, corners) -> tuple:
        """(weight, sorted minimizers, deltas, interior size) by whole-group scan.

        With an inverse-closed set d(x, c) = d(c, x), so the three distance
        vectors also give every interval between two corners.
        """
        if not self.inverse_closed:
            raise ValueError("median reference needs an inverse-closed generating set")
        dist = [self.dist_from(c) for c in corners]
        weight = dist[0] + dist[1] + dist[2]
        best = int(weight.min())
        mins = sorted(self.element(r) for r in np.flatnonzero(weight == best))
        deltas = []
        for i in range(3):
            j, k = (x for x in range(3) if x != i)
            between = dist[j] + dist[k] == dist[j][self.index(corners[k])]
            deltas.append(int(dist[i][between].min()))
        inside = (dist[0] <= deltas[0]) & (dist[1] <= deltas[1]) & (dist[2] <= deltas[2])
        return best, mins, tuple(deltas), int(np.count_nonzero(inside))

    def sphere_sizes(self) -> dict:
        return {d: int(c) for d, c in enumerate(np.bincount(self.lengths)) if c}

    def interval_size_census(self, chunk: int = 256) -> dict:
        """|[e, g]| for every g, as a histogram {size: count}."""
        lengths = self.lengths
        n, nf = self.perms_t.shape
        sizes = []
        for start in range(0, nf, chunk):
            tops = self.perms_t[:, start : start + chunk]
            m = tops.shape[1]
            # rows[:, a, x] = top_a(x^-1(i)) for position i, top a, element x
            rows = tops.T[:, self.inv_t].transpose(1, 0, 2).reshape(n, m * nf)
            to_top = lengths[self.index_rows(rows)].reshape(m, nf)
            on = lengths[None, :] + to_top == lengths[start : start + m, None]
            sizes.append(np.count_nonzero(on, axis=1))
        values, counts = np.unique(np.concatenate(sizes), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def z2_geodesics(source, target) -> tuple:
    """(distance, number of geodesic words) in Z^2 with the four unit steps."""
    dx = abs(target[0] - source[0])
    dy = abs(target[1] - source[1])
    return dx + dy, comb(dx + dy, dx)
