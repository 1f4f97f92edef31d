"""Independent oracles: the full Linf hyperplane arrangement, the planar
45-degree rotation and the perturbed lexicographic witness solve.

The solver never builds any of them.  It searches Linf in d >= 3 on an
integer frame and rotates planar integers itself; these reference versions
work in exact rationals on the original coordinates, so the tests can hold
the solver to them.  The witness solver walks the tight edges of one plain
solve; the reference reaches the same witness by a single solve on
perturbed big-int costs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from emdut.core import Point, PointSet
from emdut.emd import _min_cost_assignment
from emdut.emdut_hd import DEFAULT_BUDGET, BudgetExceeded


@dataclass(frozen=True)
class Hyperplane:
    """The set {tau : normal . tau + offset = 0}, in canonical form."""

    normal: tuple[Fraction, ...]
    offset: Fraction


def _linf_families(blue: PointSet, red: PointSet):
    """Yield (i, j, sign, offsets) for the Linf planes tau_i + sign*tau_j = c.

    The axis families (i, i, 0) come first, then sign -1 and +1 for each
    i < j; ``offsets`` is the set of distinct c.
    """
    d = blue.dim
    diffs = [[r[k] - b[k] for k in range(d)] for b in blue.points for r in red.points]
    for i in range(d):
        yield i, i, 0, {x[i] for x in diffs}
    for i, j in itertools.combinations(range(d), 2):
        for sign in (-1, 1):
            yield i, j, sign, {x[i] + sign * x[j] for x in diffs}


def hyperplanes_linf(blue: PointSet, red: PointSet) -> list[Hyperplane]:
    """Axis alignments plus both sign resolutions of per-pair coordinate ties.

    Per pair (b, r) and axes i < j, the loci |b_i + tau_i - r_i| =
    |b_j + tau_j - r_j| contribute tau_i - tau_j = (r_i-b_i)-(r_j-b_j)
    and tau_i + tau_j = (r_i-b_i)+(r_j-b_j).
    """
    d = blue.dim
    planes = []
    for i, j, sign, offsets in _linf_families(blue, red):
        normal = tuple(Fraction(1 if k == i else sign if k == j else 0)
                       for k in range(d))
        planes += [Hyperplane(normal, -c) for c in sorted(offsets)]
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
    subsets = math.comb(len(planes), dim)
    if subsets > budget:
        raise BudgetExceeded(subsets, budget)
    vertices = set()
    for combo in itertools.combinations(planes, dim):
        v = _solve_intersection(combo, dim)
        if v is not None:
            vertices.add(v)
    return tuple(sorted(vertices))


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
            (Fraction(p[0] + p[1], 2), Fraction(p[0] - p[1], 2)) for p in ps.points
        ),
    )


def perturbed_lex_min_assignment(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Optimal total and the lexicographically smallest optimal assignment.

    One solve on the integer costs c*n^m + j*n^(m-1-i): the perturbations
    of any assignment sum to that assignment read as a base-n number,
    which stays below n^m, so the perturbed optimum is the smallest
    optimal assignment and the optimal total is total // n^m.
    """
    m = len(cost)
    n = len(cost[0])
    scale = n**m
    perturbed = []
    for i, row in enumerate(cost):
        digit = n ** (m - 1 - i)
        perturbed.append([c * scale + j * digit for j, c in enumerate(row)])
    total, assignment, _ = _min_cost_assignment(perturbed)
    return total // scale, assignment
