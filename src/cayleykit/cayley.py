"""Distance oracles over Cayley graphs, geodesic sets, balls and table caches.

Strategy selection: analytic formulas where a closed form exists (Z^2 by the
L1 norm, cyclic groups, adjacent transpositions by inversion count), a full
BFS distance table for symmetric models with n <= 9, and bidirectional BFS
for symmetric models with 10 <= n <= 12.  Table distances between arbitrary
pairs reduce to lengths through left-invariance: d(g, h) = l(g^-1 h).  The
search runs from g and h over permutations held as bytes, one bytes.translate
per step, and answers one query faster than a table builds, so the CLI's
`dist` searches unless a table cache exists or `--strategy table` is named.

Table products come from `ranking.right_tables`.  A `.cayd` cache holds one
distance byte per rank; `verify_table_cache` checks it by the BFS equation, no BFS.

numpy loads only when an array is first built or scanned: analytic and
bidirectional queries, and table queries on a cached table, never load it.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb, factorial
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CacheError, CapabilityError, ModelError, UnreachableError
from .groups import (
    CyclicModel,
    FreeAbelianModel,
    GroupModel,
    SymmetricModel,
)
from .ranking import all_perms_array, perm_rank, rank_rows, right_tables

if TYPE_CHECKING:
    import numpy as np

UNREACHED = 255
DEFAULT_WORD_CAP = 1_000_000
# classify's relations and isomorphism cap live here, beside the strategies,
# because the CLI parser reads them on every call
RELATIONS = ("length", "paths", "size", "iso")
DEFAULT_ISO_CAP = 100_000


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
        self.strategy = choose_strategy(model, strategy)
        if self.strategy == "table":
            self._init_table(cache_dir)

    # -- table internals ----------------------------------------------------

    def _init_table(self, cache_dir):
        """_table holds l(perm_r) as one byte per rank r (UNREACHED = 255)."""
        if cache_dir is not None:
            path = cache_path(self.model, cache_dir)
            if path.exists():
                self._table = _read_table_cache(self.model, path)
                return
        self._table = bytearray(_bfs_table(self.gen_tables))

    @cached_property
    def lengths(self) -> np.ndarray:
        """The table as a writable uint8 array over the same bytes, built on first use."""
        import numpy as np

        return np.frombuffer(self._table, dtype=np.uint8)

    @cached_property
    def gen_tables(self) -> np.ndarray:
        """gen_tables[j][r] = rank(perm_r * s_j), built on first use."""
        return right_tables(self.model.n, self.model.generating_set.generators)

    @cached_property
    def perms(self) -> np.ndarray:
        """perms[r] = perm_r as a uint8 row, all n! of them, built on first use."""
        return all_perms_array(self.model.n)

    @cached_property
    def inverse_ranks(self) -> np.ndarray:
        """inverse_ranks[r] = rank(perm_r^-1), built on first use."""
        import numpy as np

        return rank_rows(np.argsort(self.perms, axis=1).astype(np.uint8)).astype(np.int32)

    def dist_from(self, g) -> np.ndarray:
        """Table oracles: d(g, x) for every rank x, lengths[rank(g^-1 x)] (UNREACHED stays 255).

        int16, so sums of distances cannot wrap past UNREACHED as uint8 would.
        """
        import numpy as np

        (table,) = right_tables(self.model.n, [self.model.check_element(g)])
        inv = self.inverse_ranks
        return self.lengths[inv[table[inv]]].astype(np.int16)  # rank(g^-1 x) = inv[rank(x^-1 g)]

    # -- distances -----------------------------------------------------------

    def length(self, g) -> int:
        return self.distance(self.model.identity, g)

    def distance(self, g, h) -> int:
        """d(g, h); raises ModelError unless both are elements of the model."""
        check = self.model.check_element
        return self.unchecked_distance(check(g), check(h))

    def unchecked_distance(self, g, h) -> int:
        """distance() without the checks, for elements a walk over the graph produced."""
        model = self.model
        if self.strategy == "analytic":
            return self._analytic_distance(g, h)
        if self.strategy == "bidirectional":
            return _bidirectional_distance(model, g, h)
        d = self._table[perm_rank(model.multiply(model.inverse(g), h))]
        if d == UNREACHED:
            raise UnreachableError(
                f"no word from {model.format_element(g)} to {model.format_element(h)}"
            )
        return d

    def _analytic_distance(self, g, h) -> int:
        model = self.model
        if isinstance(model, FreeAbelianModel):
            return abs(h[0] - g[0]) + abs(h[1] - g[1])
        if isinstance(model, CyclicModel):
            k = (h - g) % model.n
            if model.generating_set.inverse_closed:
                return min(k, model.n - k)
            return k
        # adjacent transpositions: Coxeter length = inversion count
        return _inversions(model.multiply(model.inverse(g), h))

    def diameter(self) -> int:
        model = self.model
        if isinstance(model, CyclicModel):
            return model.n // 2 if model.generating_set.inverse_closed else model.n - 1
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
        frontier = [model.check_element(g)]
        seen = set(frontier)
        for _ in range(radius):
            frontier = _bfs_layer(frontier, seen, gens, model.multiply)
            if not frontier:
                break
        return seen

    def geodesics(self, g, h, enumerate_words: bool = False, cap: int = DEFAULT_WORD_CAP) -> GeodesicSet:
        """All geodesic words from g to h; count stays exact when words are capped.

        Z^2 counts and words are closed-form.  Other models take both from the
        cover edges of the built interval [g, h], with no further distance call.
        """
        if cap < 0:
            raise ModelError(f"cap must be nonnegative, got {cap}")
        g, h = map(self.model.check_element, (g, h))
        if isinstance(self.model, FreeAbelianModel):
            total = self.unchecked_distance(g, h)
            count = comb(total, abs(h[0] - g[0]))
            words = _z2_words(h[0] - g[0], h[1] - g[1])
        else:
            from .intervals import build_interval, count_geodesics, geodesic_words

            interval = build_interval(self, g, h)
            total, count = interval.length, count_geodesics(interval)
            words = geodesic_words(interval)
        words = tuple(islice(words, cap)) if enumerate_words else ()
        return GeodesicSet(g, h, total, count, words, enumerate_words and count > cap)


def _z2_words(dx: int, dy: int):
    """Z^2 geodesic words in lexicographic order: combinations of the lower letter's places."""
    (low, k), (high, _) = sorted(((0 if dx >= 0 else 2, abs(dx)), (1 if dy >= 0 else 3, abs(dy))))
    total = abs(dx) + abs(dy)
    for places in combinations(range(total), k):
        word = [high] * total
        for i in places:
            word[i] = low
        yield tuple(word)


# which models each strategy serves; the default is the first that applies
STRATEGIES = {
    "analytic": lambda model: isinstance(model, (FreeAbelianModel, CyclicModel))
    or (isinstance(model, SymmetricModel) and model.kind == "adjacent"),
    "table": lambda model: isinstance(model, SymmetricModel) and model.n <= 9,
    "bidirectional": lambda model: isinstance(model, SymmetricModel),
}


def choose_strategy(model: GroupModel, strategy: str | None) -> str:
    """The named strategy if it serves model, else the first that does."""
    if not strategy:
        strategy = next((name for name, fits in STRATEGIES.items() if fits(model)), None)
        if strategy is None:
            raise ModelError(f"no strategy for {model!r}")
    elif strategy not in STRATEGIES:
        raise ModelError(f"unknown strategy {strategy!r}")
    elif not STRATEGIES[strategy](model):
        raise CapabilityError(f"strategy {strategy!r} unsupported for {model.name}")
    return strategy


def build_oracle(model: GroupModel, strategy: str | None = None, cache_dir=None) -> DistanceOracle:
    return DistanceOracle(model, strategy, cache_dir)


def _bfs_table(gen_tables: np.ndarray) -> np.ndarray:
    """Level-synchronous BFS from the identity over rank-indexed generator tables.

    Each level marks the still-unreached neighbours of the frontier, then
    takes the next frontier as every rank at that level: distances do not
    depend on the frontier's order, so no sort or dedup is needed.
    """
    import numpy as np

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


def _bfs_layer(frontier: list, seen: set, steps, step, meet=()) -> list | None:
    """The unseen step(x, s), x in frontier, s in steps, added to seen; None at one in meet."""
    layer = []
    for x in frontier:
        for s in steps:
            y = step(x, s)
            if y not in seen:
                if y in meet:
                    return None
                seen.add(y)
                layer.append(y)
    return layer


def _bidirectional_distance(model: SymmetricModel, g, h) -> int:
    """d(g, h) by BFS from both ends over permutations held as bytes (set members).

    x.translate(bytes(s) + bytes(range(n, 256))) is x*s (x, then s), in C; the
    backward side steps by the inverse generators.  While fwd and bwd hold all
    within df of g and db of h and share nothing, d(g, h) > df + db, so a layer
    stops at its first element on the other side, which meets it at df + db.
    """
    if g == h:
        return 0
    pad = bytes(range(model.n, 256))
    gens = model.generating_set.generators
    fwd_steps = [bytes(s) + pad for s in gens]
    bwd_steps = [bytes(model.inverse(s)) + pad for s in gens]
    fwd_frontier, bwd_frontier = [bytes(g)], [bytes(h)]
    fwd, bwd = set(fwd_frontier), set(bwd_frontier)
    df = db = 0
    while fwd_frontier and bwd_frontier:
        if len(fwd_frontier) <= len(bwd_frontier):
            df += 1
            fwd_frontier = _bfs_layer(fwd_frontier, fwd, fwd_steps, bytes.translate, bwd)
        else:
            db += 1
            bwd_frontier = _bfs_layer(bwd_frontier, bwd, bwd_steps, bytes.translate, fwd)
    if fwd_frontier is None or bwd_frontier is None:
        return df + db
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


# One file-name character per model-name character, so distinct models get
# distinct files; a cycle's ")" is implied by the "(", ";" or end after it.
_FILE_NAME = str.maketrans({":": "-", ",": ".", ";": "+", "(": "_", ")": None})


def cache_path(model: GroupModel, cache_dir) -> Path:
    return Path(cache_dir) / f"{model.name.translate(_FILE_NAME)}.cayd"


def default_cache_dir() -> Path | None:
    env = os.environ.get("CAYLEYKIT_CACHE_DIR")
    return Path(env) if env else None


def save_table_cache(model: GroupModel, lengths: np.ndarray, path) -> Path:
    """Write the table to a temp file beside path, then rename it over path."""
    import numpy as np

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


def _read_table_cache(model: GroupModel, path) -> bytearray:
    """The checked payload of a cache file: one distance byte per rank."""
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
    payload = memoryview(raw)[pos:]
    if len(payload) != factorial(n):
        raise CacheError(f"{path}: payload has {len(payload)} bytes, expected {factorial(n)}")
    if zlib.crc32(payload) != stored_crc:
        raise CacheError(f"{path}: payload checksum mismatch")
    return bytearray(payload)


def load_table_cache(model: GroupModel, path) -> np.ndarray:
    """The cached table as a writable uint8 array."""
    import numpy as np

    return np.frombuffer(_read_table_cache(model, path), dtype=np.uint8)


def verify_table_cache(model: GroupModel, path) -> None:
    """Check a cache against the equation that defines BFS distances.

    d is the only table with d(e) = 0 and d(x) = 1 + min d(y) over the y with
    y*s = x, so l passes iff l = d.  l <= d by induction along a shortest word.
    If some l(x) < d(x), the x with least l has an in-neighbour y with
    l(y) = l(x) - 1 < d(y), a smaller one.  UNREACHED absorbs, so unreachable
    ranks must store it, and a second zero fails: the equation gives at least 1
    off the identity.  The in-neighbours x*s^-1 of every x are read in one gather.
    """
    import numpy as np

    lengths = load_table_cache(model, path)
    gens = model.generating_set.generators
    nearest = lengths[right_tables(model.n, [model.inverse(s) for s in gens])].min(axis=0)
    want = np.minimum(nearest, UNREACHED - 1) + 1
    want[0] = 0
    bad = np.flatnonzero(want != lengths)
    if bad.size:
        r = bad[0]
        raise CacheError(
            f"{path}: rank {r} stores {lengths[r]}, the distance equation gives {want[r]}"
        )
