"""Distance oracles over Cayley graphs, geodesic sets, balls and table caches.

Strategy selection: analytic formulas where a closed form exists (Z^2 by the
L1 norm, cyclic groups, adjacent transpositions by inversion count), a full
BFS distance table for symmetric models with n <= 9, and bidirectional BFS
for symmetric models with 10 <= n <= 12.  Distances between arbitrary pairs
reduce to lengths through left-invariance: d(g, h) = l(g^-1 h).
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import factorial
from pathlib import Path

import numpy as np

from .errors import CacheError, CapabilityError, ModelError, UnreachableError
from .groups import (
    CyclicModel,
    FreeAbelianModel,
    GroupModel,
    SymmetricModel,
)
from .ranking import all_perms_array, perm_rank, perm_unrank, rank_rows

UNREACHED = 255
DEFAULT_WORD_CAP = 1_000_000


@dataclass
class GeodesicSet:
    """Geodesics from source to target; count is always exact, words may be capped."""

    source: object
    target: object
    distance: int
    count: int
    words: tuple
    truncated: bool


def _inversions(perm) -> int:
    n = len(perm)
    inv = 0
    for i in range(n):
        pi = perm[i]
        for j in range(i + 1, n):
            if pi > perm[j]:
                inv += 1
    return inv


class DistanceOracle:
    """Geodesic distance queries for one model under one strategy."""

    def __init__(self, model: GroupModel, strategy: str | None = None, cache_dir=None):
        self.model = model
        self.strategy = strategy or _default_strategy(model)
        _check_strategy(model, self.strategy)
        if self.strategy == "table":
            self._init_table(cache_dir)

    # -- table internals ----------------------------------------------------

    def _init_table(self, cache_dir):
        if cache_dir is not None:
            path = cache_path(self.model, cache_dir)
            if path.exists():
                self.lengths = load_table_cache(self.model, path)
                return
        self.lengths = _bfs_table(self.gen_tables)

    @cached_property
    def gen_tables(self) -> np.ndarray:
        """gen_tables[j][r] = rank(perm_r * s_j), built on first use."""
        return _generator_tables(self.model)

    @cached_property
    def inv_gen_tables(self) -> np.ndarray:
        """inv_gen_tables[j][r] = rank(perm_r * s_j^-1), built on first use."""
        return _inverse_tables(self.gen_tables)

    @cached_property
    def inverse_ranks(self) -> np.ndarray:
        """inverse_ranks[r] = rank(perm_r^-1), built on first use."""
        perms = all_perms_array(self.model.n)
        return rank_rows(np.argsort(perms, axis=1).astype(np.uint8)).astype(np.int32)

    def rank(self, g) -> int:
        return perm_rank(g)

    def unrank(self, r: int):
        return perm_unrank(r, self.model.n)

    def parents(self) -> np.ndarray:
        """Per-rank generator index of the BFS parent: the lowest j one step closer.

        That is the BFS's own choice, since it sweeps generators in index order.
        """
        dist16 = self.lengths.astype(np.int16)
        want = np.where(self.lengths == UNREACHED, -1, dist16 - 1)
        parent = np.full(len(dist16), UNREACHED, dtype=np.uint8)
        for j in range(len(self.inv_gen_tables) - 1, -1, -1):
            parent[dist16[self.inv_gen_tables[j]] == want] = j
        return parent

    def word_ranks(self, r: int) -> list[int]:
        """Generator indices of the geodesic word from the identity to rank r along parents()."""
        lengths, inv = self.lengths, self.inv_gen_tables
        if lengths[r] == UNREACHED:
            raise UnreachableError(f"rank {r} not reachable in {self.model.name}")
        letters = []
        while r != 0:
            closer = lengths[r] - 1
            j = 0
            while lengths[inv[j, r]] != closer:
                j += 1
            letters.append(j)
            r = int(inv[j, r])
        letters.reverse()
        return letters

    # -- distances -----------------------------------------------------------

    def length(self, g) -> int:
        model = self.model
        if self.strategy == "table":
            d = int(self.lengths[perm_rank(model.check_element(g))])
            if d == UNREACHED:
                raise UnreachableError(
                    f"{model.format_element(g)} not reachable in {model.name}"
                )
            return d
        return self.distance(model.identity, g)

    def distance(self, g, h) -> int:
        model = self.model
        if self.strategy == "analytic":
            return self._analytic_distance(g, h)
        t = model.multiply(model.inverse(g), h)
        if self.strategy == "table":
            d = int(self.lengths[perm_rank(t)])
            if d == UNREACHED:
                raise UnreachableError(
                    f"no word from {model.format_element(g)} to {model.format_element(h)}"
                )
            return d
        return _bidirectional_distance(model, model.identity, t)

    def _analytic_distance(self, g, h) -> int:
        model = self.model
        if isinstance(model, FreeAbelianModel):
            return abs(h[0] - g[0]) + abs(h[1] - g[1])
        if isinstance(model, CyclicModel):
            k = (model.check_element(h) - model.check_element(g)) % model.n
            if model.inverse_closed_set:
                return min(k, model.n - k)
            return k
        # adjacent transpositions: Coxeter length = inversion count
        return _inversions(model.multiply(model.inverse(g), h))

    def diameter(self) -> int:
        model = self.model
        if isinstance(model, CyclicModel):
            return model.n // 2 if model.inverse_closed_set else model.n - 1
        if isinstance(model, SymmetricModel) and model.kind == "adjacent":
            return model.n * (model.n - 1) // 2
        if self.strategy == "table":
            reached = self.lengths[self.lengths != UNREACHED]
            return int(reached.max())
        raise CapabilityError(f"diameter unsupported for {model.name} ({self.strategy})")

    # -- neighborhoods and geodesics -----------------------------------------

    def ball(self, g, radius: int) -> set:
        """Elements h with d(g, h) <= radius."""
        if radius < 0:
            raise ModelError(f"radius must be nonnegative, got {radius}")
        model = self.model
        gens = model.generating_set.generators
        seen = {model.check_element(g)}
        frontier = [g]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                for s in gens:
                    y = model.multiply(x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                break
            frontier = nxt
        return seen

    def geodesics(self, g, h, enumerate_words: bool = False, cap: int = DEFAULT_WORD_CAP) -> GeodesicSet:
        """All geodesic words from g to h; count stays exact when words are capped."""
        model = self.model
        total = self.distance(g, h)
        gens = model.generating_set.generators
        counts = {g: 1}  # paths from g, for the current grade only
        for steps, grade in grade_walk(model, g, gens, lambda y: self.distance(y, h), total):
            nxt = dict.fromkeys(grade, 0)
            for x, _, y in steps:
                nxt[y] += counts[x]
            counts = nxt
        count = counts[h]
        words = ()
        if enumerate_words:
            words = tuple(islice(self._geodesic_words(g, h, total), max(cap, 0)))
        return GeodesicSet(g, h, total, count, words, enumerate_words and count > cap)

    def _geodesic_words(self, g, h, total: int):
        """Geodesic words from g to h, lexicographic in generator index (explicit-stack DFS)."""
        gens = self.model.generating_set.generators
        word: list[int] = []
        stack = [(g, 0)]  # stack[i]: (element reached by word[:i], next generator to try)
        while stack:
            x, j = stack[-1]
            if len(word) == total:
                yield tuple(word)
                j = len(gens)
            if j == len(gens):
                stack.pop()
                if stack:
                    word.pop()
                continue
            stack[-1] = (x, j + 1)
            y = self.model.multiply(x, gens[j])
            if self.distance(y, h) == total - len(word) - 1:
                word.append(j)
                stack.append((y, 0))


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


def _default_strategy(model: GroupModel) -> str:
    if isinstance(model, (FreeAbelianModel, CyclicModel)):
        return "analytic"
    if isinstance(model, SymmetricModel):
        if model.kind == "adjacent":
            return "analytic"
        if model.n <= 9:
            return "table"
        return "bidirectional"
    raise ModelError(f"no strategy for {model!r}")


def _check_strategy(model: GroupModel, strategy: str):
    ok = {
        "analytic": isinstance(model, (FreeAbelianModel, CyclicModel))
        or (isinstance(model, SymmetricModel) and model.kind == "adjacent"),
        "table": isinstance(model, SymmetricModel) and model.n <= 9,
        "bidirectional": isinstance(model, SymmetricModel),
    }.get(strategy)
    if ok is None:
        raise ModelError(f"unknown strategy {strategy!r}")
    if not ok:
        raise CapabilityError(f"strategy {strategy!r} unsupported for {model.name}")


def build_oracle(model: GroupModel, strategy: str | None = None, cache_dir=None) -> DistanceOracle:
    return DistanceOracle(model, strategy, cache_dir)


def _generator_tables(model: SymmetricModel) -> np.ndarray:
    """Rank-indexed right multiplication: tables[j][r] = rank(perm_r * s_j).

    Built from the block structure of rank order, with no permutation ranked.
    Block v of S_k (ranks v*(k-1)! onward) is v followed by the other values
    arranged as S_(k-1) in rank order.  Relabelling the values by s sends
    block v to block s(v), where it acts on S_(k-1) as the compressed
    permutation s_v(i) = s(rest_v[i]) - [s(rest_v[i]) > s(v)], so

        table_k(s) = concat over v of (s(v) * (k-1)! + table_(k-1)(s_v)).

    The distinct s_v are collected level by level from n down to 1, then the
    tables are filled from S_1 up.
    """
    perms = list(model.generating_set.generators)
    levels = []  # per k from n down to 2: (the S_k perms, index of each s_v one level down)
    for k in range(model.n, 1, -1):
        below: dict = {}
        children = np.empty((len(perms), k), dtype=np.intp)
        for i, s in enumerate(perms):
            for v, sv in enumerate(s):
                s_v = tuple(w - (w > sv) for w in s[:v] + s[v + 1 :])
                children[i, v] = below.setdefault(s_v, len(below))
        levels.append((perms, children))
        perms = list(below)
    tables = np.zeros((len(perms), 1), dtype=np.int32)  # S_1: rank 0 to rank 0
    for perms, children in reversed(levels):
        m, k = children.shape
        block = tables.shape[1]
        out = np.take(tables, children, axis=0)  # (m, k, (k-1)!)
        np.add(out, (np.array(perms, dtype=np.int32) * block)[:, :, None], out=out)
        tables = out.reshape(m, k * block)
    return tables


def _inverse_tables(gen_tables: np.ndarray) -> np.ndarray:
    """The inverse permutation of each generator table."""
    inv = np.empty_like(gen_tables)
    idx = np.arange(gen_tables.shape[1], dtype=np.int32)
    for j, table in enumerate(gen_tables):
        inv[j][table] = idx
    return inv


def _bfs_table(gen_tables: np.ndarray) -> np.ndarray:
    """Level-synchronous BFS from the identity over rank-indexed generator tables.

    Each level marks the still-unreached neighbours of the frontier, then
    takes the next frontier as every rank at that level: distances do not
    depend on the frontier's order, so no sort or dedup is needed.
    """
    dist = np.full(gen_tables.shape[1], UNREACHED, dtype=np.uint8)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    level = 0
    while frontier.size:
        level += 1
        for table in gen_tables:
            nbr = table[frontier]
            dist[nbr[dist[nbr] == UNREACHED]] = level
        frontier = np.flatnonzero(dist == level)
    return dist


def _bidirectional_distance(model: GroupModel, g, h) -> int:
    if g == h:
        return 0
    gens = model.generating_set.generators
    inv_gens = tuple(model.inverse(s) for s in gens)
    fwd = {g: 0}
    bwd = {h: 0}
    fwd_frontier, bwd_frontier = [g], [h]
    df = db = 0
    best = None
    while fwd_frontier and bwd_frontier:
        if best is not None and df + db + 1 >= best:
            return best
        if len(fwd_frontier) <= len(bwd_frontier):
            seen, frontier, other, step, depth = fwd, fwd_frontier, bwd, gens, df + 1
        else:
            seen, frontier, other, step, depth = bwd, bwd_frontier, fwd, inv_gens, db + 1
        new = []
        for x in frontier:
            for s in step:
                y = model.multiply(x, s)
                if y not in seen:
                    seen[y] = depth
                    new.append(y)
                    if y in other:
                        total = depth + other[y]
                        if best is None or total < best:
                            best = total
        if seen is fwd:
            fwd_frontier, df = new, depth
        else:
            bwd_frontier, db = new, depth
    if best is not None:
        return best
    raise UnreachableError(
        f"no word from {model.format_element(g)} to {model.format_element(h)}"
    )


# ---------------------------------------------------------------------------
# distance table cache files
#
# Layout (little-endian for multi-byte fields):
#   magic "CAYD" | version u8 | descriptor length u16 + utf-8 bytes |
#   FNV-1a 64-bit hash of the generator text u64 | n u8 |
#   CRC-32 of the payload u32 | n! distance bytes in Lehmer-rank order
#   (255 = unreached).
# Version 2 added the payload CRC; version 1 files are refused.

CACHE_MAGIC = b"CAYD"
CACHE_VERSION = 2


def _fnv1a64(data: bytes) -> int:
    h = 14695981039346656037
    for byte in data:
        h ^= byte
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def generator_text(model: GroupModel) -> str:
    return ";".join(model.format_element(s) for s in model.generating_set)


def cache_path(model: GroupModel, cache_dir) -> Path:
    import re as _re

    stem = _re.sub(r"[^A-Za-z0-9._-]+", "-", model.name)
    return Path(cache_dir) / f"{stem}.cayd"


def default_cache_dir() -> Path | None:
    env = os.environ.get("CAYLEYKIT_CACHE_DIR")
    return Path(env) if env else None


def save_table_cache(model: GroupModel, lengths: np.ndarray, path) -> Path:
    """Write the table to a temp file beside path, then rename it over path."""
    if not isinstance(model, SymmetricModel):
        raise CapabilityError(f"table caches apply to symmetric models, not {model.name}")
    if len(lengths) != factorial(model.n):
        raise CacheError(f"table has {len(lengths)} entries, expected {factorial(model.n)}")
    payload = lengths.astype(np.uint8).tobytes()
    desc = model.name.encode("utf-8")
    header = CACHE_MAGIC + struct.pack("<BH", CACHE_VERSION, len(desc)) + desc
    header += struct.pack(
        "<QBI", _fnv1a64(generator_text(model).encode("utf-8")), model.n, zlib.crc32(payload)
    )
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(header + payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheError(f"{path}: cannot write: {exc.strerror or exc}") from None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
    return path


def _unpack(fmt: str, raw: bytes, pos: int, path) -> tuple:
    if len(raw) < pos + struct.calcsize(fmt):
        raise CacheError(f"{path}: truncated header ({len(raw)} bytes)")
    return struct.unpack_from(fmt, raw, pos)


def load_table_cache(model: GroupModel, path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if raw[:4] != CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic")
    version, desc_len = _unpack("<BH", raw, 4, path)
    if version != CACHE_VERSION:
        raise CacheError(f"{path}: unsupported version {version}")
    (desc,) = _unpack(f"<{desc_len}s", raw, 7, path)
    pos = 7 + desc_len
    stored_hash, n, stored_crc = _unpack("<QBI", raw, pos, path)
    pos += 13
    if desc != model.name.encode("utf-8"):
        desc = desc.decode("utf-8", "replace")
        raise CacheError(f"{path}: descriptor {desc!r} does not match model {model.name!r}")
    want = _fnv1a64(generator_text(model).encode("utf-8"))
    if stored_hash != want:
        raise CacheError(f"{path}: generator-set hash mismatch")
    if n != model.n:
        raise CacheError(f"{path}: n={n} does not match model n={model.n}")
    payload = raw[pos:]
    if len(payload) != factorial(n):
        raise CacheError(f"{path}: payload has {len(payload)} bytes, expected {factorial(n)}")
    if zlib.crc32(payload) != stored_crc:
        raise CacheError(f"{path}: payload checksum mismatch")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def verify_table_cache(model: GroupModel, path) -> None:
    """Load a cache and run the distance sanity sweep; raises CacheError on damage."""
    lengths = load_table_cache(model, path)
    gen_tables = _generator_tables(model)
    inv_gen_tables = _inverse_tables(gen_tables)
    if lengths[0] != 0:
        raise CacheError(f"{path}: identity distance is {lengths[0]}, not 0")
    if int(np.count_nonzero(lengths == 0)) != 1:
        raise CacheError(f"{path}: multiple zero entries")
    reached = lengths != UNREACHED
    dist16 = lengths.astype(np.int16)
    for j in range(len(gen_tables)):
        nbr = dist16[gen_tables[j][reached]]
        if np.any(nbr > dist16[reached] + 1):
            raise CacheError(f"{path}: distance jump along generator {j}")
        if np.any(nbr == UNREACHED):
            raise CacheError(f"{path}: reached element with unreached successor")
    prev_best = np.min(
        np.stack([dist16[inv_gen_tables[j]] for j in range(len(gen_tables))]), axis=0
    )
    interior = reached & (lengths > 0)
    if np.any(prev_best[interior] != dist16[interior] - 1):
        raise CacheError(f"{path}: element with no predecessor one step closer")
