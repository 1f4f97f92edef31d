"""Minimum EMD over d-dimensional translations for the L1 and Linf metrics.

For a fixed matching the cost is piecewise linear in the translation;
its pieces are delimited by a finite hyperplane family depending only on
the input points (axis alignments for L1, plus pairwise +/- coordinate
balances for Linf).  Some optimal translation is therefore a vertex of
the arrangement of those hyperplanes, and the solver evaluates the exact
EMD at every vertex.

For L1 all hyperplanes are axis-aligned, so the vertex set is simply the
Cartesian product of the per-axis alignment offsets and is generated
directly.  Linf in dimension >= 2 needs genuine vertex enumeration over
d-subsets of the hyperplane family; a candidate budget guards the
combinatorial growth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Matching, Metric, Point, PointSet, zero_point
from .emd import (
    _as_int_matrix,
    _cost_matrix,
    _lex_min_assignment,
    _min_cost_assignment,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """Raised when candidate enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"candidate enumeration needs {needed} evaluations, "
            f"exceeding the budget of {budget}"
        )
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class Hyperplane:
    """The set {tau : normal . tau + offset = 0}, in canonical form."""

    normal: tuple[Fraction, ...]
    offset: Fraction


def _axis_planes(blue: PointSet, red: PointSet) -> list[Hyperplane]:
    d = blue.dim
    planes = []
    seen = set()
    for i in range(d):
        offsets = {r[i] - b[i] for b in blue.points for r in red.points}
        for c in sorted(offsets):
            normal = tuple(
                Fraction(1) if k == i else Fraction(0) for k in range(d)
            )
            hp = Hyperplane(normal, -c)
            if hp not in seen:
                seen.add(hp)
                planes.append(hp)
    return planes


def hyperplanes_l1(blue: PointSet, red: PointSet) -> list[Hyperplane]:
    """Axis-alignment hyperplanes tau_i = r_i - b_i, de-duplicated."""
    if blue.dim != red.dim:
        raise ValueError("dimension mismatch")
    return _axis_planes(blue, red)


def hyperplanes_linf(blue: PointSet, red: PointSet) -> list[Hyperplane]:
    """Axis alignments plus both sign resolutions of per-pair coordinate ties.

    Per pair (b, r) and axes i < j, the loci |b_i + tau_i - r_i| =
    |b_j + tau_j - r_j| contribute tau_i - tau_j = (r_i-b_i)-(r_j-b_j)
    and tau_i + tau_j = (r_i-b_i)+(r_j-b_j).
    """
    if blue.dim != red.dim:
        raise ValueError("dimension mismatch")
    d = blue.dim
    planes = _axis_planes(blue, red)
    seen = set(planes)
    for i, j in itertools.combinations(range(d), 2):
        for sign in (Fraction(-1), Fraction(1)):
            offsets = {
                (r[i] - b[i]) + sign * (r[j] - b[j])
                for b in blue.points
                for r in red.points
            }
            for c in sorted(offsets):
                normal = tuple(
                    Fraction(1) if k == i else (sign if k == j else Fraction(0))
                    for k in range(d)
                )
                hp = Hyperplane(normal, -c)
                if hp not in seen:
                    seen.add(hp)
                    planes.append(hp)
    return planes


def _solve_intersection(planes: Sequence[Hyperplane], d: int) -> Optional[Point]:
    """Unique solution of d hyperplane equations, or None when singular."""
    rows = [list(p.normal) + [-p.offset] for p in planes]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pr = rows[col]
        inv = Fraction(1) / pr[col]
        for k in range(col, d + 1):
            pr[k] *= inv
        for r in range(d):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                for k in range(col, d + 1):
                    rows[r][k] -= factor * pr[k]
    return tuple(rows[i][d] for i in range(d))


def arrangement_vertices(
    planes: Sequence[Hyperplane], dim: int, budget: int = DEFAULT_BUDGET
) -> tuple[Point, ...]:
    """All intersection points of dim independent hyperplanes, de-duplicated."""
    count = len(planes)
    subsets = 1
    for i in range(dim):
        subsets = subsets * (count - i) // (i + 1)
    if subsets > budget:
        raise BudgetExceeded(subsets, budget)
    vertices = set()
    for combo in itertools.combinations(planes, dim):
        v = _solve_intersection(combo, dim)
        if v is not None:
            vertices.add(v)
    return tuple(sorted(vertices))


def candidate_translations(
    blue: PointSet, red: PointSet, metric: Metric, budget: int = DEFAULT_BUDGET
) -> tuple[Point, ...]:
    """The exact finite set of translations the solver will evaluate."""
    if blue.dim != red.dim:
        raise ValueError("dimension mismatch")
    d = blue.dim
    if len(blue) == 0 or len(red) == 0:
        return ()
    if metric is Metric.L1 or d == 1:
        per_axis = [
            sorted({r[i] - b[i] for b in blue.points for r in red.points})
            for i in range(d)
        ]
        total = 1
        for ax in per_axis:
            total *= len(ax)
        if total > budget:
            raise BudgetExceeded(total, budget)
        return tuple(itertools.product(*per_axis))
    return arrangement_vertices(hyperplanes_linf(blue, red), d, budget)


def emd_value_at(blue: PointSet, red: PointSet, metric: Metric, tau) -> Fraction:
    """Exact EMD of (B + tau, R), solved on the integer-scaled cost matrix."""
    if len(blue) == 0:
        return Fraction(0)
    rows = _cost_matrix(blue.points, red.points, metric, tau)
    if len(rows) == 1:
        return min(rows[0])
    ints, den = _as_int_matrix(rows)
    return Fraction(_min_cost_assignment(ints)[0], den)


def emdut_hd(
    blue: PointSet, red: PointSet, metric: Metric, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, Point, Matching]:
    """Exact minimum EMD over all translations; reports the lexicographically
    smallest optimal translation and a witness matching there."""
    if blue.dim != red.dim:
        raise ValueError("dimension mismatch")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    d = blue.dim
    if m == 0:
        return Fraction(0), zero_point(d), ()
    best_v = None
    best_tau = None
    for tau in candidate_translations(blue, red, metric, budget):
        v = emd_value_at(blue, red, metric, tau)
        if best_v is None or v < best_v or (v == best_v and tau < best_tau):
            best_v, best_tau = v, tau
    cost = _cost_matrix(blue.points, red.points, metric, best_tau)
    return best_v, best_tau, tuple(_lex_min_assignment(cost)[1])


def rotate_45_to_l1(ps: PointSet) -> PointSet:
    """Planar change of coordinates under which Linf distances become L1.

    (x, y) maps to ((x+y)/2, (x-y)/2); then for any two points the L1
    distance of the images equals the Linf distance of the originals.
    """
    if ps.dim != 2:
        raise ValueError("rotation requires 2-dimensional point sets")
    return PointSet(
        2,
        tuple(
            ((p[0] + p[1]) / 2, (p[0] - p[1]) / 2) for p in ps.points
        ),
    )
