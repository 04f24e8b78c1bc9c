"""Graded intervals of the prefix order: construction, statistics and shape tests.

An interval [g, h] holds every element on some geodesic from g to h, graded by
distance from g.  Construction walks rank sets outward from g: a candidate
g'*s joins rank i exactly when d(g'*s, h) = n - i, which forces d(g, g'*s) = i.
Rank sets keep first-discovered order (parent order, then generator index), so
builds are deterministic.

The statistics read one cover DAG per interval, GradedInterval.dag, built on
first use.  Its index i is the i-th key of element_rank, which lists elements
rank by rank in first-discovered order, so every cover edge runs from a lower
index to a higher one and an index sweep visits parents first.  The bottom is
index 0 and the top index m - 1.  Width and the lattice test work on that DAG
alone: a min flow through it and the meets of lower covers, found in one
sweep up the ranks, with no all-pairs sweep and nothing quadratic kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from typing import TYPE_CHECKING

from .errors import ModelError, UnreachableError

if TYPE_CHECKING:
    from .cayley import DistanceOracle
    from .groups import GroupModel


@dataclass
class GradedInterval:
    model: object
    bottom: object
    top: object
    length: int
    rank_sets: list
    cover_edges: list
    element_rank: dict = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.element_rank)

    @property
    def rank_profile(self) -> tuple:
        return tuple(len(r) for r in self.rank_sets)

    def __contains__(self, el) -> bool:
        return el in self.element_rank

    @cached_property
    def dag(self) -> tuple:
        """(children, parents): cover-edge index lists over element_rank's key order."""
        index = {x: i for i, x in enumerate(self.element_rank)}
        children = [[] for _ in index]
        parents = [[] for _ in index]
        for x, _, y in self.cover_edges:
            i, k = index[x], index[y]
            children[i].append(k)
            parents[k].append(i)
        return children, parents


def grade_walk(model: GroupModel, start, gens, dist_to_end, n: int):
    """Grades 1..n of the n-step geodesics from start to the element dist_to_end measures.

    Yields (steps, grade) per grade i: grade lists each y = x*s (x in grade
    i-1, s in gens) with dist_to_end(y) == n - i in first-discovered order
    (parent order, then generator index), and steps holds the cover steps
    (x, j, y) in the same order.  dist_to_end is not called for an element
    already in the grade.
    """
    grade = [start]
    for i in range(1, n + 1):
        steps = []
        nxt: dict = {}
        for x in grade:
            for j, s in enumerate(gens):
                y = model.multiply(x, s)
                if y in nxt or dist_to_end(y) == n - i:
                    nxt[y] = None
                    steps.append((x, j, y))
        grade = list(nxt)
        yield steps, grade


def build_interval(oracle: DistanceOracle, g, h) -> GradedInterval:
    """All elements on geodesics from g to h, graded by distance from g."""
    model = oracle.model
    g = model.check_element(g)
    h = model.check_element(h)
    n = oracle.distance(g, h)
    rank_sets = [[g]]
    edges = []
    element_rank = {g: 0}
    gens = model.generating_set.generators
    walk = grade_walk(model, g, gens, lambda y: oracle.unchecked_distance(y, h), n)
    for i, (steps, grade) in enumerate(walk, 1):
        edges.extend(steps)
        rank_sets.append(grade)
        element_rank.update(dict.fromkeys(grade, i))
    return GradedInterval(model, g, h, n, rank_sets, edges, element_rank)


def prefix_le(oracle: DistanceOracle, g1, g2) -> bool:
    """g1 <= g2 in the prefix order: l(g2) = l(g1) + d(g1, g2)."""
    try:
        return oracle.length(g2) == oracle.length(g1) + oracle.distance(g1, g2)
    except UnreachableError:
        return False


def translate_interval(interval: GradedInterval, t) -> GradedInterval:
    """Left-translate every element by t; the graded structure is unchanged."""
    model = interval.model
    t = model.check_element(t)
    mul = model.multiply
    rank_sets = [[mul(t, x) for x in rs] for rs in interval.rank_sets]
    edges = [(mul(t, x), j, mul(t, y)) for x, j, y in interval.cover_edges]
    element_rank = {mul(t, x): r for x, r in interval.element_rank.items()}
    return GradedInterval(
        model,
        mul(t, interval.bottom),
        mul(t, interval.top),
        interval.length,
        rank_sets,
        edges,
        element_rank,
    )


# ---------------------------------------------------------------------------
# counting and order-theoretic statistics


def count_geodesics(interval: GradedInterval) -> int:
    """Number of geodesic words from bottom to top (paths in the cover DAG).

    cover_edges run grade by grade, as grade_walk yields them, so each x is
    fully counted before an edge leaves it.
    """
    counts = {interval.bottom: 1}
    for x, _, y in interval.cover_edges:
        counts[y] = counts.get(y, 0) + counts[x]
    return counts.get(interval.top, 0)


def geodesic_words(interval: GradedInterval):
    """Geodesic words (cover paths) from bottom to top, lexicographic in generator index.

    grade_walk emits each element's cover edges in generator order, so a stack DFS
    pushes them reversed and pops the lowest first; only the top has no edge out.
    """
    steps_of: dict = {}  # x -> (y, grade of x, (j,)) per cover step x -> x*s_j, reversed
    for x, j, y in reversed(interval.cover_edges):
        steps_of.setdefault(x, []).append((y, interval.element_rank[x], (j,)))
    word: list[int] = []
    stack = [(interval.bottom, 0, ())]
    while stack:
        x, i, step = stack.pop()
        word[i:] = step  # a step out of grade i is letter i of the word
        if x in steps_of:
            stack.extend(steps_of[x])
        else:
            yield tuple(word)


def max_antichain(interval: GradedInterval) -> int:
    """Width of the interval: the size of its largest antichain.

    By Dilworth's theorem (Ann. Math. 51, 1950) the width is the least number
    of chains that cover every element.  A chain extends to a maximal chain,
    which is a cover path from bottom to top, so the width is the least number
    of bottom-to-top cover paths that together visit every element: a min
    flow through the cover DAG with lower bound 1 on each element (Ntafos &
    Hakimi, IEEE TSE 5, 1979).  Element v splits into nodes 2v (in) and
    2v + 1 (out), joined by arc 2v; a cover edge u -> w runs from 2u + 1 to
    2w.  A greedy path cover that steps to unvisited children first is a
    feasible flow, and a max flow from top to bottom in its residual network,
    found by Dinic's algorithm, cancels as much of it as the lower bounds
    allow.  Cost: O(m + E) to build the 2m-node network, then Dinic's phases;
    no comparability closure is built.
    """
    children, _ = interval.dag
    m = len(children)
    # arc a enters node head[a] and a ^ 1 is its reverse; out[x][0] is the
    # split arc at x.  A forward arc has no upper bound (m exceeds any flow
    # cancelled); a reverse arc holds the arc's flow above its lower bound.
    head, out = [], []
    for v in range(m):
        head += (2 * v + 1, 2 * v)
        out += ([2 * v], [2 * v + 1])
    for u, kids in enumerate(children):
        for w in kids:
            out[2 * u + 1].append(len(head))
            out[2 * w].append(len(head) + 1)
            head += (2 * w, 2 * u + 1)
    cap = [m, 0] * (len(head) // 2)

    # greedy cover: one bottom-to-top path through each element not yet visited
    through = [0] * m
    for v in range(m):
        if through[v]:
            continue
        through[v] = 1
        x = v
        while x:  # down to the bottom, index 0, by the first lower cover
            r = out[2 * x][1]
            cap[r] += 1
            x = head[r] >> 1
            through[x] += 1
        x = v
        while x != m - 1:  # up to the top, the last index, by an unvisited child if any
            arcs = out[2 * x + 1]
            a = next((a for a in arcs[1:] if not through[head[a] >> 1]), arcs[1])
            cap[a ^ 1] += 1
            x = head[a] >> 1
            through[x] += 1
    cap[1 : 2 * m : 2] = [t - 1 for t in through]

    source, sink = 2 * m - 1, 0  # cancel flow from the top's out-node to the bottom's in-node
    cancelled = 0
    while True:
        level = [-1] * (2 * m)
        level[source] = 0
        queue = [source]
        for x in queue:
            for a in out[x]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[x] + 1
                    queue.append(head[a])
        if level[sink] < 0:
            return through[0] - cancelled
        # blocking flow by an iterative depth-first search; nxt[x] is x's current arc
        nxt = [0] * (2 * m)
        path = []
        x = source
        while True:
            if x == sink:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                cancelled += push
                del path[next(i for i, a in enumerate(path) if not cap[a]) :]
                x = head[path[-1]] if path else source
                continue
            arcs, i, want = out[x], nxt[x], level[x] + 1
            while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == want):
                i += 1
            nxt[x] = i
            if i < len(arcs):
                path.append(arcs[i])
                x = head[arcs[i]]
            elif path:  # dead end: back up and skip the arc that led here
                x = head[path.pop() ^ 1]
                nxt[x] += 1
            else:
                break


def is_lattice(interval: GradedInterval) -> bool:
    """True iff every two elements have a meet (a greatest lower bound).

    An interval is finite with a bottom and a top, so meets for every pair
    make it a lattice: the join of a and b is the meet of their common upper
    bounds.  By the dual of Björner, Edelman and Ziegler (Discrete Comput.
    Geom. 5, 1990, Lemma 2.1) it is enough that every two distinct lower
    covers of a common element have a meet.  Sketch: take a pair x, y with no
    meet whose minimal common upper bound c has the lowest rank.  Let c cover
    x1 >= x and y1 >= y; x1 != y1 as c is minimal, so z = x1 ∧ y1 exists.
    The pairs (x, z) and then (x ∧ z, y) have common upper bounds below c, so
    u = x ∧ z and u ∧ y exist, and every common lower bound of x and y lies
    below x1, y1, z, u and u ∧ y: u ∧ y is the meet of x and y.

    So one sweep up the ranks tests the pairs within each parents list, sum
    C(indeg, 2) of them.  It builds each reflexive down-set as a bitmask from
    the lower covers' masks and keeps its size.  A pair's common lower bounds
    D form a down-set holding its highest index h, so D has a greatest
    element, h, iff |D| = |down(h)|.  A rank's masks go once the rank above
    is done: memory is two ranks' masks of at most m bits, time O(m E / 64).
    """
    _, parents = interval.dag
    down = [0] * len(parents)  # down-set masks of this rank and the one below
    size = []  # size[i]: the number of elements at or below index i
    prev = lo = 0  # the first indices of the rank below and of this rank
    for width in interval.rank_profile:
        for i in range(lo, lo + width):
            mask = 1 << i
            for p in parents[i]:
                mask |= down[p]
            for a, b in combinations(parents[i], 2):
                common = down[a] & down[b]
                if common.bit_count() != size[common.bit_length() - 1]:
                    return False
            down[i] = mask
            size.append(mask.bit_count())
        down[prev:lo] = [0] * (lo - prev)
        prev, lo = lo, lo + width
    return True


def is_sperner(interval: GradedInterval, antichain: int | None = None) -> bool:
    if antichain is None:
        antichain = max_antichain(interval)
    return antichain <= max(interval.rank_profile)


@dataclass
class IntervalStats:
    size: int
    length: int
    rank_profile: tuple
    geodesic_count: int
    max_antichain: int
    is_sperner: bool
    is_lattice: bool


def interval_stats(interval: GradedInterval) -> IntervalStats:
    antichain = max_antichain(interval)
    return IntervalStats(
        size=interval.size,
        length=interval.length,
        rank_profile=interval.rank_profile,
        geodesic_count=count_geodesics(interval),
        max_antichain=antichain,
        is_sperner=is_sperner(interval, antichain),
        is_lattice=is_lattice(interval),
    )


# ---------------------------------------------------------------------------
# rank-preserving isomorphism of cover DAGs


def _refine_colors(rank_of, children, parents, m):
    colors = list(rank_of)
    while True:
        sig = [
            (
                colors[i],
                tuple(sorted(colors[c] for c in children[i])),
                tuple(sorted(colors[p] for p in parents[i])),
            )
            for i in range(m)
        ]
        palette = {s: c for c, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def order_isomorphic(a: GradedInterval, b: GradedInterval) -> bool:
    """Exact rank-preserving isomorphism test on the cover DAGs."""
    if a.size != b.size or a.rank_profile != b.rank_profile:
        return False
    if len(a.cover_edges) != len(b.cover_edges):
        return False
    m = a.size
    (ch_a, pa_a), (ch_b, pa_b) = a.dag, b.dag
    rank_a, rank_b = list(a.element_rank.values()), list(b.element_rank.values())
    col_a = _refine_colors(rank_a, ch_a, pa_a, m)
    col_b = _refine_colors(rank_b, ch_b, pa_b, m)
    if Counter(col_a) != Counter(col_b):
        return False
    # rank-major order guarantees all parents are mapped before their children
    order = sorted(range(m), key=lambda i: (rank_a[i], col_a[i], i))
    by_color = {}
    for i in range(m):
        by_color.setdefault((rank_b[i], col_b[i]), []).append(i)
    parent_sets_b = [set(p) for p in pa_b]
    mapping = [-1] * m
    used = [False] * m

    def candidates(pos):
        i = order[pos]
        want_parents = {mapping[p] for p in pa_a[i]}
        key = (rank_a[i], col_a[i])
        return (
            j for j in by_color.get(key, ()) if not used[j] and parent_sets_b[j] == want_parents
        )

    # depth-first search over positions; tries[pos] yields the candidates left there
    tries = [candidates(0)]
    while tries:
        i = order[len(tries) - 1]
        if mapping[i] != -1:  # undo the choice that led to a dead end
            used[mapping[i]] = False
            mapping[i] = -1
        j = next(tries[-1], None)
        if j is None:
            tries.pop()
            continue
        mapping[i] = j
        used[j] = True
        if len(tries) == m:
            return True
        tries.append(candidates(len(tries)))
    return False


# ---------------------------------------------------------------------------
# partial builds


@dataclass
class PartialInterval:
    model: object
    bottom: object
    top: object
    length: int
    k: int
    front_sets: list
    back_sets: list

    @property
    def front_profile(self) -> tuple:
        return tuple(len(r) for r in self.front_sets)

    @property
    def back_profile(self) -> tuple:
        return tuple(len(r) for r in self.back_sets)


def partial_interval(oracle: DistanceOracle, g, h, k: int) -> PartialInterval:
    """First and last k grades of [g, h] without building the middle.

    front_sets holds grades 0..k outward from g; back_sets holds distances
    0..k inward from h (back_sets[0] = {h}).  k >= d(g, h) reproduces the
    full interval on both sides.
    """
    if k < 0:
        raise ModelError(f"k must be nonnegative, got {k}")
    model = oracle.model
    g = model.check_element(g)
    h = model.check_element(h)
    n = oracle.distance(g, h)
    gens = model.generating_set.generators
    depth = min(k, n)
    front = grade_walk(model, g, gens, lambda y: oracle.unchecked_distance(y, h), n)
    inv_gens = [model.inverse(s) for s in gens]
    back = grade_walk(model, h, inv_gens, lambda y: oracle.unchecked_distance(g, y), n)
    front_sets = [[g]] + [grade for _, grade in islice(front, depth)]
    back_sets = [[h]] + [grade for _, grade in islice(back, depth)]
    return PartialInterval(model, g, h, n, k, front_sets, back_sets)


# ---------------------------------------------------------------------------
# exports


def interval_to_json(interval: GradedInterval) -> dict:
    fmt = interval.model.format_element
    return {
        "model": interval.model.name,
        "bottom": fmt(interval.bottom),
        "top": fmt(interval.top),
        "length": interval.length,
        "size": interval.size,
        "rank_profile": list(interval.rank_profile),
        "rank_sets": [[fmt(x) for x in rs] for rs in interval.rank_sets],
        "cover_edges": [[fmt(x), j, fmt(y)] for x, j, y in interval.cover_edges],
    }


def interval_to_dot(interval: GradedInterval) -> str:
    fmt = interval.model.format_element
    gens = interval.model.generating_set.generators
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=box];"]
    for rs in interval.rank_sets:
        names = "; ".join(f'"{fmt(x)}"' for x in rs)
        lines.append("  { rank=same; %s; }" % names)
    for x, j, y in interval.cover_edges:
        lines.append(f'  "{fmt(x)}" -> "{fmt(y)}" [label="{fmt(gens[j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
