"""Classification of group elements by interval invariants, censuses, normalisers.

Four equivalences are supported, keyed by the invariant of the interval from
the identity to the element: word length, geodesic count, interval size, and
interval isomorphism type.  They are genuinely different partitions, not a
refinement chain.  Full-group censuses keep per-class counts plus the
lowest-rank representative; on symmetric models the size census counts one
interval per orbit of the normaliser of the generating set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .cayley import DEFAULT_ISO_CAP, RELATIONS, STRATEGIES, UNREACHED, DistanceOracle, build_oracle
from .errors import CapabilityError, ModelError
from .groups import GroupModel, SymmetricModel
from .intervals import GradedInterval, build_interval, count_geodesics, order_isomorphic
from .ranking import all_perms_array, perm_unrank, rank_rows


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
    if iso_size_cap < 0:
        raise ModelError(f"iso cap must be nonnegative, got {iso_size_cap}")
    model = oracle.model
    ident = model.identity
    elements = [model.check_element(g) for g in elements]

    grouped: dict = {}  # sort key -> (signature, members)
    iso_reps: dict = {}  # iso profile -> one interval per isomorphism bucket
    unclassified = []
    for g in elements:
        if relation == "length":
            key = sig = oracle.length(g)
        else:
            interval = build_interval(oracle, ident, g)
            if relation == "paths":
                key = sig = count_geodesics(interval)
            elif relation == "size":
                key = sig = interval.size
            elif interval.size > iso_size_cap:
                unclassified.append(g)
                continue
            else:
                sig = _iso_profile(interval)
                reps = iso_reps.setdefault(sig, [])
                k = next((k for k, rep in enumerate(reps) if order_isomorphic(interval, rep)), None)
                if k is None:
                    k = len(reps)
                    reps.append(interval)
                key = (repr(sig), k)
        grouped.setdefault(key, (sig, []))[1].append(g)
    classes = []
    signatures = []
    signature_of = {}
    for key in sorted(grouped):
        sig, members = grouped[key]
        signature_of.update((g, len(classes)) for g in members)
        signatures.append(sig)
        classes.append(members)
    return Classification(relation, classes, signatures, signature_of, unclassified)


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


def _conjugating_ranks(perms: np.ndarray, gens, targets) -> np.ndarray:
    """Ranks of the sigma with sigma^-1 s sigma in targets for every s in gens.

    perms holds all of S_n in rank order.  Conjugation is injective, so when
    gens and targets have the same size, sigma maps gens onto targets; with
    targets = gens this is the normaliser N(S), as in_normaliser asks.
    """
    target_ranks = rank_rows(np.array(targets, dtype=np.uint8))
    ranks = np.arange(len(perms))
    for s in np.array(gens, dtype=np.uint8):
        sigma = perms[ranks]
        conj = np.take_along_axis(sigma, s[np.argsort(sigma, axis=1)], axis=1)
        ranks = ranks[np.isin(rank_rows(conj), target_ranks)]
    return ranks


def _orbit_minima(oracle: DistanceOracle) -> np.ndarray:
    """The lowest rank of each rank's orbit under the conjugations that carry intervals.

    For pi in N(S), x -> pi^-1 x pi is a graph automorphism fixing e, so
    [e, g] and [e, pi^-1 g pi] are order-isomorphic.  For pi with
    pi^-1 S^-1 pi = S, a geodesic word s_1 ... s_k for g gives the word
    (pi^-1 s_k^-1 pi) ... (pi^-1 s_1^-1 pi) for pi^-1 g^-1 pi, so
    x -> pi^-1 g^-1 x pi maps [e, g] onto [e, pi^-1 g^-1 pi] with the order
    reversed; when S is inverse-closed those pi are N(S) itself.
    """
    perms, gens = oracle.perms, oracle.model.generating_set.generators
    orbit_min = np.arange(len(perms))
    for source, inverted in ((gens, False), ([oracle.model.inverse(s) for s in gens], True)):
        for pi in perms[_conjugating_ranks(perms, source, gens)]:
            conj = rank_rows(pi[perms[:, np.argsort(pi)]])  # rank(pi^-1 perm_r pi)
            np.minimum(orbit_min, conj[oracle.inverse_ranks] if inverted else conj, out=orbit_min)
    return orbit_min


def _interval_sizes(oracle: DistanceOracle) -> np.ndarray:
    """|[e, g]| for every rank (-1 where unreached), one graded walk per orbit.

    The walk from each orbit's lowest rank g tracks z = y^-1 g for y in
    [e, g], from z = g.  A cover y -> y s sends z to s^-1 z = (z^-1 s)^-1, read
    from the generator tables, and stays in [e, g] iff l(s^-1 z) = l(z) - 1.
    Each y lies on a geodesic from e and gives its own z, so |[e, g]| counts
    the distinct z of every grade.  Representatives of one length walk together.
    """
    orbit_min = _orbit_minima(oracle)
    lengths, tables, inverse = oracle.lengths, oracle.gen_tables, oracle.inverse_ranks
    order = len(lengths)
    reps = np.flatnonzero((orbit_min == np.arange(order)) & (lengths != UNREACHED))
    sizes = np.where(lengths == UNREACHED, -1, 1)  # grade 0 of [e, g] holds z = g alone
    for length in np.unique(lengths[reps]).tolist():
        group = reps[lengths[reps] == length]
        keys = np.arange(len(group), dtype=np.int64) * order + group
        for level in range(length, 0, -1):  # every z of this grade has l(z) = level
            owner, z = np.divmod(keys, order)
            left = inverse[tables[:, inverse[z]]]  # s^-1 z, one row per generator s
            keep = lengths[left] == level - 1
            keys = np.unique((owner * order + left)[keep])
            sizes[group] += np.bincount(keys // order, minlength=len(group))
    return sizes[orbit_min]


def _histogram(oracle: DistanceOracle, relation: str, values, unreached) -> CensusResult:
    """Counts per value over all ranks, each class represented by its lowest rank."""
    keys, first, counts = np.unique(values, return_index=True, return_counts=True)
    fmt = oracle.model.format_element
    result = CensusResult(oracle.model.name, relation, {}, {})
    for key, r, count in zip(keys.tolist(), first.tolist(), counts.tolist()):
        if key != unreached:
            result.counts[key] = count
            result.representatives[key] = fmt(perm_unrank(r, oracle.model.n))
    return result


def census(model: GroupModel, relation: str, workers: int = 1) -> CensusResult:
    """Histogram of length or interval size over the whole group.

    workers is accepted and ignored: a symmetric model's size census is one
    orbit sweep in this process.
    """
    if relation not in ("length", "size"):
        raise ModelError(f"census supports length or size, not {relation!r}")
    if not model.is_finite:
        raise CapabilityError(f"census needs a finite model, not {model.name}")

    if isinstance(model, SymmetricModel):
        if not STRATEGIES["table"](model):
            raise CapabilityError(f"census needs a full table; {model.name} is too large")
        oracle = DistanceOracle(model, "table")
        if relation == "length":
            return _histogram(oracle, relation, oracle.lengths, UNREACHED)
        return _histogram(oracle, relation, _interval_sizes(oracle), -1)

    # small generic models: classify every element, in canonical order
    result = classify(build_oracle(model), model.elements(), relation)
    classes = dict(zip(result.signatures, result.classes))
    counts = {sig: len(members) for sig, members in classes.items()}
    reps = {sig: model.format_element(members[0]) for sig, members in classes.items()}
    return CensusResult(model.name, relation, counts, reps)


# ---------------------------------------------------------------------------
# normalisers and conjugation transport


@dataclass
class NormaliserResult:
    model_name: str
    members: list

    @property
    def order(self) -> int:
        return len(self.members)


def in_normaliser(model: GroupModel, sigma) -> bool:
    """True iff sigma^-1 S sigma = S as a set."""
    sigma = model.check_element(sigma)
    gens = set(model.generating_set.generators)
    return {model.conjugate(s, sigma) for s in gens} == gens


def normaliser(model: GroupModel) -> NormaliserResult:
    """Members of the generating set's normaliser."""
    if not model.is_finite:
        raise CapabilityError(f"cannot enumerate the normaliser of {model.name}")
    if isinstance(model, SymmetricModel):
        if not STRATEGIES["table"](model):
            raise CapabilityError(f"normaliser enumeration needs all of S_n; {model.name} is too big")
        perms = all_perms_array(model.n)
        gens = model.generating_set.generators
        members = list(map(tuple, perms[_conjugating_ranks(perms, gens, gens)].tolist()))
    else:
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
