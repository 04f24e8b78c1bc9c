"""Exact three-point medians via the interior construction.

A triangle is normalized so its first corner is the identity (store the
translation, compute there, translate answers back).  Each corner gets a
radius delta(c_i) = d(c_i, I) where I is the interval between the other two
corners; the interior is the intersection of the three closed balls.  Every
median (minimizer of the summed distance to the corners) lies in the interior,
so an exhaustive interior scan is exact.  The theorem needs a symmetric
metric, so a generating set that is not inverse-closed is refused.

One filter finds the interior in three distance columns D_i[x] = d(c_i, x)
over a candidate list: x is inside where every D_i <= delta_i.  Table oracles
(symmetric models, n <= 9) take all n! ranks as candidates, and delta_i is
the least D_i where D_j + D_k = d(c_j, c_k).  Every other strategy (closed
forms, bidirectional search past the table limit) takes delta_i from the
built intervals and the smallest corner ball as candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cayley import DistanceOracle
from .errors import CapabilityError, InvariantError
from .groups import GroupModel, SymmetricModel
from .intervals import build_interval


@dataclass(frozen=True)
class Triangle:
    model: GroupModel
    corners: tuple
    translation: object
    normalized: tuple


def make_triangle(model: GroupModel, c0, c1, c2) -> Triangle:
    c0, c1, c2 = (
        model.parse_element(c) if isinstance(c, str) else model.check_element(c)
        for c in (c0, c1, c2)
    )
    inv0 = model.inverse(c0)
    normalized = (model.identity, model.multiply(inv0, c1), model.multiply(inv0, c2))
    return Triangle(model, (c0, c1, c2), c0, normalized)


def _require_symmetric(triangle: Triangle):
    model = triangle.model
    if not model.generating_set.inverse_closed:
        raise CapabilityError(
            f"medians need an inverse-closed generating set; {model.name} is directed"
        )


def _table_vectors(oracle: DistanceOracle, triangle: Triangle):
    """D_i[x] = d(c_i, x) over every rank x, the sides d(c_j, c_k) and the radii.

    delta_i is the least D_i where D_j + D_k = d(c_j, c_k).  The sides are
    taken n1->n2, e->n2, e->n1, the order in which the interval scan meets
    them, so an unreachable corner raises the same error.
    """
    e, n1, n2 = triangle.normalized
    sides = (oracle.distance(n1, n2), oracle.distance(e, n2), oracle.distance(e, n1))
    vecs = (oracle.lengths.astype(np.int16), oracle.dist_from(n1), oracle.dist_from(n2))
    radii = tuple(
        int(vecs[i][vecs[j] + vecs[k] == sides[i]].min())
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )
    return vecs, sides, radii


def deltas(oracle: DistanceOracle, triangle: Triangle) -> tuple:
    """Per-corner distance to the interval spanned by the other two corners."""
    _require_symmetric(triangle)
    if oracle.strategy == "table":
        return _table_vectors(oracle, triangle)[2]
    e, n1, n2 = triangle.normalized
    i12 = build_interval(oracle, n1, n2)
    i02 = build_interval(oracle, e, n2)
    i01 = build_interval(oracle, e, n1)
    d0 = min(oracle.unchecked_distance(e, x) for x in i12.element_rank)
    d1 = min(oracle.unchecked_distance(n1, x) for x in i02.element_rank)
    d2 = min(oracle.unchecked_distance(n2, x) for x in i01.element_rank)
    return (d0, d1, d2)


@dataclass
class InteriorRegion:
    """Ball-intersection region in normalized coordinates.

    records maps each element to (d0, d1, d2, steiner weight), distances taken
    from the normalized corners.
    """

    triangle: Triangle
    deltas: tuple
    elements: list
    records: dict

    @property
    def size(self) -> int:
        return len(self.elements)


def _ball_vectors(oracle: DistanceOracle, triangle: Triangle):
    """The smallest corner ball, sorted, D_i over it, the sides and the radii."""
    e, n1, n2 = corners = triangle.normalized
    radii = deltas(oracle, triangle)
    sides = (oracle.distance(n1, n2), oracle.distance(e, n2), oracle.distance(e, n1))
    pivot = radii.index(min(radii))
    candidates = sorted(oracle.ball(corners[pivot], radii[pivot]))
    vecs = tuple(np.array([oracle.unchecked_distance(c, x) for x in candidates]) for c in corners)
    return candidates, vecs, sides, radii


def interior(oracle: DistanceOracle, triangle: Triangle) -> InteriorRegion:
    """Intersection of the three closed corner balls, in candidate order.

    Candidates are all ranks or the sorted smallest ball; rank order is
    lexicographic tuple order, the order of sorted().
    """
    _require_symmetric(triangle)
    if oracle.strategy == "table":
        vecs, sides, radii = _table_vectors(oracle, triangle)
        elements_at = lambda rows: list(map(tuple, oracle.perms[rows].tolist()))
    else:
        candidates, vecs, sides, radii = _ball_vectors(oracle, triangle)
        elements_at = lambda rows: [candidates[i] for i in rows.tolist()]
    pivot = radii.index(min(radii))
    weight = vecs[0] + vecs[1] + vecs[2]
    # half the perimeter floors the weight under a symmetric metric
    bound = (sum(sides) + 1) // 2
    low = np.flatnonzero((vecs[pivot] <= radii[pivot]) & (weight < bound))
    if low.size:
        raise InvariantError(
            f"weight {weight[low[0]]} beats the half-perimeter bound {bound}; "
            "the metric is inconsistent"
        )
    inside = np.flatnonzero((vecs[0] <= radii[0]) & (vecs[1] <= radii[1]) & (vecs[2] <= radii[2]))
    elements = elements_at(inside)
    columns = (v[inside].tolist() for v in (*vecs, weight))
    records = dict(zip(elements, zip(*columns)))
    return InteriorRegion(triangle, radii, elements, records)


def steiner_weight(oracle: DistanceOracle, h, triangle: Triangle) -> int:
    """Sum of distances from the (original) corners to h."""
    return sum(oracle.distance(c, h) for c in triangle.corners)


@dataclass
class MedianResult:
    triangle: Triangle
    minimizers: list
    weight: int
    interior_size: int


def _minimizers(region: InteriorRegion) -> MedianResult:
    if not region.records:
        raise InvariantError("interior region is empty; every median must lie inside it")
    triangle = region.triangle
    best = min(rec[3] for rec in region.records.values())
    model = triangle.model
    t = triangle.translation
    mins = sorted(
        model.multiply(t, x) for x, rec in region.records.items() if rec[3] == best
    )
    return MedianResult(triangle, mins, best, region.size)


def medians(oracle: DistanceOracle, triangle: Triangle) -> MedianResult:
    """All weight minimizers, reported in original coordinates."""
    return _minimizers(interior(oracle, triangle))


def _is_circular(model: GroupModel) -> bool:
    return isinstance(model, SymmetricModel) and model.kind == "circular"


def median_parity_check(
    oracle: DistanceOracle, triangle: Triangle, result: MedianResult | None = None
) -> bool:
    """Pairwise distances between medians are even under a circular set."""
    model = triangle.model
    if not _is_circular(model):
        raise CapabilityError(
            f"the parity law is stated for circular generating sets, not {model.name}"
        )
    if result is None:
        result = medians(oracle, triangle)
    return all(
        oracle.distance(a, b) % 2 == 0 for a, b in combinations(result.minimizers, 2)
    )


def median_report(oracle: DistanceOracle, triangle: Triangle) -> dict:
    """JSON-ready report in original coordinates; parity_ok is None off circular sets."""
    model = triangle.model
    fmt = model.format_element
    region = interior(oracle, triangle)
    result = _minimizers(region)
    return {
        "model": model.name,
        "corners": [fmt(c) for c in triangle.corners],
        "deltas": list(region.deltas),
        "interior_size": result.interior_size,
        "weight": result.weight,
        "medians": [fmt(x) for x in result.minimizers],
        "parity_ok": median_parity_check(oracle, triangle, result) if _is_circular(model) else None,
    }
