"""Classification of group elements by interval invariants, censuses, normalisers.

Four equivalences are supported, keyed by the invariant of the interval from
the identity to the element: word length, geodesic count, interval size, and
interval isomorphism type.  They are genuinely different partitions, not a
refinement chain.  Full-group censuses stream elements in Lehmer-rank order
and keep only per-class counts plus one representative, so S_8 sweeps stay
small in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .cayley import UNREACHED, DistanceOracle, build_oracle
from .errors import CapabilityError, ModelError
from .groups import GroupModel, SymmetricModel, parse_model
from .intervals import GradedInterval, build_interval, count_geodesics, order_isomorphic

RELATIONS = ("length", "paths", "size", "iso")
DEFAULT_ISO_CAP = 100_000


@dataclass
class Classification:
    relation: str
    classes: list
    signatures: list
    signature_of: dict = field(repr=False)
    unclassified: list = field(default_factory=list)


def _iso_profile(interval: GradedInterval):
    """Cheap invariants that must agree before a full isomorphism test runs."""
    children, parents = interval.dag
    bounds = list(accumulate(interval.rank_profile, initial=0))  # dag indices run rank by rank

    def per_rank(adj):
        return tuple(tuple(sorted(map(len, adj[a:b]))) for a, b in zip(bounds, bounds[1:]))

    return (interval.rank_profile, per_rank(children), per_rank(parents), count_geodesics(interval))


def classify(
    oracle: DistanceOracle,
    elements,
    relation: str,
    iso_size_cap: int = DEFAULT_ISO_CAP,
) -> Classification:
    """Partition elements by the chosen interval invariant."""
    if relation not in RELATIONS:
        raise ModelError(f"unknown relation {relation!r}; pick one of {RELATIONS}")
    model = oracle.model
    ident = model.identity
    elements = [model.check_element(g) for g in elements]

    if relation == "iso":
        buckets: dict = {}
        unclassified = []
        for g in elements:
            interval = build_interval(oracle, ident, g)
            if interval.size > iso_size_cap:
                unclassified.append(g)
                continue
            profile = _iso_profile(interval)
            for rep_interval, members in buckets.setdefault(profile, []):
                if order_isomorphic(interval, rep_interval):
                    members.append(g)
                    break
            else:
                buckets[profile].append((interval, [g]))
        classes = []
        signatures = []
        signature_of = {}
        for profile in sorted(buckets, key=repr):
            for rep_interval, members in buckets[profile]:
                signature_of.update((g, len(classes)) for g in members)
                signatures.append(profile)
                classes.append(members)
        return Classification(relation, classes, signatures, signature_of, unclassified)

    def signature(g):
        if relation == "length":
            return oracle.length(g)
        interval = build_interval(oracle, ident, g)
        if relation == "paths":
            return count_geodesics(interval)
        return interval.size

    grouped: dict = {}
    for g in elements:
        grouped.setdefault(signature(g), []).append(g)
    classes = []
    signatures = []
    signature_of = {}
    for sig in sorted(grouped):
        signature_of.update((g, len(classes)) for g in grouped[sig])
        signatures.append(sig)
        classes.append(grouped[sig])
    return Classification(relation, classes, signatures, signature_of)


# ---------------------------------------------------------------------------
# full-group censuses


@dataclass
class CensusResult:
    model_name: str
    relation: str
    counts: dict
    representatives: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def csv_rows(self):
        yield "signature,count,representative"
        for sig in sorted(self.counts):
            yield f"{sig},{self.counts[sig]},{self.representatives[sig]}"


def _interval_size_vector(oracle: DistanceOracle) -> np.ndarray:
    """|[e, g]| for every rank, via one membership count per group element.

    Membership x in [e, g] is equivalent to l(x) + l(x^-1 g) = l(g).  The map
    M_g[r] = rank(perm_r^-1 * g) composes one generator table per cover step,
    M_{g*s} = T_s[M_g], so a depth-first walk of the BFS tree costs one table
    gather per group element.
    """
    lengths = oracle.lengths
    parent_gen = oracle.parents()
    tables = oracle.gen_tables
    nf = lengths.shape[0]
    dist16 = lengths.astype(np.int16)

    ranks = np.arange(nf, dtype=np.int64)
    parent = np.full(nf, -1, dtype=np.int64)
    for j in range(len(tables)):
        mask = parent_gen == j
        parent[mask] = oracle.inv_gen_tables[j][ranks[mask]]
    children: list = [[] for _ in range(nf)]
    for r in range(nf):
        p = parent[r]
        if p >= 0:
            children[p].append(r)

    sizes = np.zeros(nf, dtype=np.int64)
    # depth-first over the BFS tree; each entry carries its parent's M, so
    # only the arrays on the current root-to-leaf path stay alive
    stack = [(0, oracle.inverse_ranks)]
    while stack:
        r, m_arr = stack.pop()
        if r:
            m_arr = tables[parent_gen[r]][m_arr]
        sizes[r] = int(np.count_nonzero(dist16 + dist16[m_arr] == int(lengths[r])))
        stack.extend((c, m_arr) for c in children[r])
    sizes[lengths == UNREACHED] = -1
    return sizes


_WORKER_STATE: dict = {}


def _census_worker_init(descriptor: str):
    model = parse_model(descriptor)
    _WORKER_STATE["oracle"] = DistanceOracle(model, "table")


def _census_worker_chunk(bounds):
    start, stop = bounds
    oracle = _WORKER_STATE["oracle"]
    lengths = oracle.lengths
    tables = oracle.gen_tables
    dist16 = lengths.astype(np.int16)
    out = {}
    for r in range(start, stop):
        if lengths[r] == UNREACHED:
            continue
        m_arr = oracle.inverse_ranks.astype(np.int32)
        for j in oracle.word_ranks(r):
            m_arr = tables[j][m_arr]
        size = int(np.count_nonzero(dist16 + dist16[m_arr] == int(lengths[r])))
        entry = out.get(size)
        if entry is None:
            out[size] = [1, r]
        else:
            entry[0] += 1
    return out


def _histogram(oracle: DistanceOracle, relation: str, values, unreached) -> CensusResult:
    """Counts per value over all ranks, each class represented by its lowest rank."""
    keys, first, counts = np.unique(values, return_index=True, return_counts=True)
    fmt = oracle.model.format_element
    result = CensusResult(oracle.model.name, relation, {}, {})
    for key, r, count in zip(keys.tolist(), first.tolist(), counts.tolist()):
        if key != unreached:
            result.counts[key] = count
            result.representatives[key] = fmt(oracle.unrank(r))
    return result


def census(model: GroupModel, relation: str, workers: int = 1) -> CensusResult:
    """Histogram of length or interval size over the whole group."""
    if relation not in ("length", "size"):
        raise ModelError(f"census supports length or size, not {relation!r}")
    if not model.is_finite:
        raise CapabilityError(f"census needs a finite model, not {model.name}")

    if isinstance(model, SymmetricModel):
        if model.n > 9:
            raise CapabilityError(f"census needs a full table; {model.name} is too large")
        oracle = DistanceOracle(model, "table")
        lengths = oracle.lengths
        fmt = model.format_element
        if relation == "length":
            return _histogram(oracle, relation, lengths, UNREACHED)
        if workers > 1:
            # imported here: it loads multiprocessing, which every CLI start would pay for
            from concurrent.futures import ProcessPoolExecutor

            nf = len(lengths)
            step = max(1, nf // (workers * 8))
            bounds = [(a, min(a + step, nf)) for a in range(0, nf, step)]
            merged: dict = {}
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_census_worker_init,
                initargs=(model.name,),
            ) as pool:
                for part in pool.map(_census_worker_chunk, bounds):
                    for size, (cnt, rep) in part.items():
                        entry = merged.get(size)
                        if entry is None:
                            merged[size] = [cnt, rep]
                        else:
                            entry[0] += cnt
                            entry[1] = min(entry[1], rep)
            counts = {s: c for s, (c, _) in merged.items()}
            reps = {s: fmt(oracle.unrank(r)) for s, (_, r) in merged.items()}
            return CensusResult(model.name, relation, counts, reps)
        return _histogram(oracle, relation, _interval_size_vector(oracle), -1)

    # small generic models: walk every element honestly
    oracle = build_oracle(model)
    counts = {}
    reps = {}
    for g in model.elements():
        if relation == "length":
            sig = oracle.length(g)
        else:
            sig = build_interval(oracle, model.identity, g).size
        counts[sig] = counts.get(sig, 0) + 1
        reps.setdefault(sig, model.format_element(g))
    return CensusResult(model.name, relation, counts, reps)


# ---------------------------------------------------------------------------
# normalisers and conjugation transport


@dataclass
class NormaliserResult:
    model_name: str
    members: list | None

    @property
    def order(self) -> int | None:
        return None if self.members is None else len(self.members)


def in_normaliser(model: GroupModel, sigma) -> bool:
    """True iff sigma^-1 S sigma = S as a set."""
    sigma = model.check_element(sigma)
    gens = set(model.generating_set.generators)
    return {model.conjugate(s, sigma) for s in gens} == gens


def normaliser(model: GroupModel, mode: str = "enumerate") -> NormaliserResult:
    """Members of the generating set's normaliser (or a predicate-only result)."""
    if mode == "predicate":
        return NormaliserResult(model.name, None)
    if mode != "enumerate":
        raise ModelError(f"unknown normaliser mode {mode!r}")
    if not model.is_finite:
        raise CapabilityError(f"cannot enumerate the normaliser of {model.name}")
    if isinstance(model, SymmetricModel) and model.n > 8:
        raise CapabilityError(f"normaliser enumeration supports n <= 8, got n={model.n}")
    members = [g for g in model.elements() if in_normaliser(model, g)]
    return NormaliserResult(model.name, members)


def theorem1_check(oracle: DistanceOracle, g, pi) -> bool:
    """Intervals [e, g] and [e, pi^-1 g pi] are order-isomorphic when pi normalises."""
    model = oracle.model
    if not in_normaliser(model, pi):
        raise ModelError(f"{model.format_element(pi)} does not normalise the generating set")
    ident = model.identity
    a = build_interval(oracle, ident, g)
    b = build_interval(oracle, ident, model.conjugate(g, pi))
    return order_isomorphic(a, b)
