"""Minimum EMD over d-dimensional translations for the L1 and Linf metrics.

For a fixed matching the cost is piecewise linear in the translation;
its pieces are delimited by a finite hyperplane family depending only on
the input points (axis alignments for L1, plus pairwise +/- coordinate
balances for Linf).  Some optimal translation is therefore a vertex of
the arrangement of those hyperplanes.

For L1 every hyperplane is axis-aligned, so the vertices are the
Cartesian product of the per-axis offsets r_a - b_a.  Planar Linf is
L1, halved, after the change of coordinates (x, y) -> (x+y, x-y), whose
breaklines are the diagonals, so it searches the same product on that
rotated grid.  Both scale the points once by the lcm of their
denominators and rotate those integers; the search and the witness solve
run in that frame, and only the answer leaves it.

The product is never built.  The L1 cost at tau is at least
sum_a g_a(tau_a), where g_a is the 1D partial-matching EMD of axis a
alone, computed by the integer monotone DP ``emd._monotone_value``, so
the search walks the product depth-first, each axis in ascending g_a
order, and cuts a branch once its bound is strictly above the best
value found.  The walk keeps on its stack the cost rows P of each axis
prefix.  The distance table D = |b_a + t - r_a| of an axis a and offset
t does not depend on the prefix, so it is built once and cached, up to
``_TABLE_CELLS`` entries in all; past that cap a table is built per
visit.  A child's rows are its prefix's rows plus the table.  At a
leaf, the column potentials v of the last solve bound the cost P + D
from below by sum(v) + sum_i min_j (P_ij - v_j + D_ij) (a neighbour-dual
bound); P - v is reduced once per prefix and per solve, so the bound is
one pass over the table, and a leaf it cuts builds no cost matrix.
Either cut needs a bound strictly above the best value, so ties are
never cut, and the lexicographically smallest optimal translation, in
the original coordinates, is the one reported.

Linf in dimension >= 3 evaluates the exact EMD at every vertex of the
full arrangement, the points and all vertices on one integer frame, and
solves the witness in that frame too.  A candidate budget, checked against the candidate
count before anything is enumerated, guards both paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence

from .core import Metric, Point, PointSet, _int_str, point, zero_point
from .emd import (
    _assignment_value,
    _cost_matrix,
    _frame,
    _lex_min_assignment,
    _min_cost_assignment,
    _monotone_value,
    _pair_sizes,
)
# _as_int_matrix is unused here but kept importable: the benchmark's tracer
# patches ``emdut.emdut_hd._as_int_matrix`` by name.
from .emd import _as_int_matrix  # noqa: F401

DEFAULT_BUDGET = 10_000_000

# Entries, in all, of the distance tables one grid walk keeps: a memory
# bound, like the candidate budget.  On a frame of large coordinates an
# entry takes 40 to 48 bytes, so the cache stays under about 400 KB.
_TABLE_CELLS = 1 << 13


class BudgetExceeded(RuntimeError):
    """Raised when candidate enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"candidate enumeration needs {_int_str(needed)} evaluations, "
            f"exceeding the budget of {_int_str(budget)}"
        )
        self.needed = needed
        self.budget = budget


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
    _pair_sizes(blue, red)
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


def _grid_frame(blue: PointSet, red: PointSet, metric: Metric):
    """(blues, reds, den, rotated): integer points of the grid search.

    Frame L1 distances are the metric's distances times ``den``.  Planar
    Linf is rotated to (x+y, x-y), which doubles distances and so ``den``.
    """
    bs, rs, _, den = _frame(blue, red)
    rotated = metric is Metric.LINF and blue.dim == 2
    if rotated:
        bs = [(x + y, x - y) for x, y in bs]
        rs = [(x + y, x - y) for x, y in rs]
        den *= 2
    return bs, rs, den, rotated


def _grid_offsets(bs, rs, budget: int) -> tuple[list[list[int]], int]:
    """Sorted per-axis offsets r_a - b_a and the size of their product."""
    offsets = [
        sorted({r[a] - b[a] for b in bs for r in rs}) for a in range(len(bs[0]))
    ]
    total = math.prod(len(ax) for ax in offsets)
    if total > budget:
        raise BudgetExceeded(total, budget)
    return offsets, total


def _unrotate(tau: tuple[int, ...], rotated: bool) -> tuple[int, ...]:
    """A frame translation in original coordinates (same denominator)."""
    return (tau[0] + tau[1], tau[0] - tau[1]) if rotated else tau


def _axis_table(bs, rs, a: int, t: int) -> list[list[int]]:
    """The distances |b_a + t - r_a| of axis a alone, a row per blue."""
    col = [r[a] for r in rs]
    return [[abs(x - y) for y in col] for x in (b[a] + t for b in bs)]


def _add_rows(rows, table) -> list[list[int]]:
    """The entrywise sum of two matrices of one shape."""
    return [list(map(add, row, dist)) for row, dist in zip(rows, table)]


def _reduce_rows(rows, v) -> list[list[int]]:
    """Each row minus the column potentials v."""
    return [list(map(sub, row, v)) for row in rows]


def _dual_bound(reduced, table, v_sum: int) -> int:
    """A lower bound on the mincost assignment of P + D from potentials v.

    ``reduced`` is P - v row by row, ``table`` is D and ``v_sum`` is
    sum(v).  With every v_j <= 0, u_i = min_j (P_ij + D_ij - v_j) makes
    (u, v) feasible for the dual of the rectangular assignment, so
    sum(u) + sum(v) is at most the optimum.  With the potentials of
    P + D's own solve it is the optimum.
    """
    return v_sum + sum(min(map(add, q, dist)) for q, dist in zip(reduced, table))


def _grid_search(bs, rs, offsets, rotated: bool):
    """(tau, frame_tau, evaluated): the optimum, unrotated and in the frame.

    Branch and bound over the offset product with the separable bound
    sum_a g_a(tau_a), then at each leaf with the dual bound of the last
    solve's column potentials; either cuts only when its bound is strictly
    above the incumbent, so every optimal translation is evaluated.
    ``evaluated`` counts the Hungarian solves.
    """
    d = len(offsets)
    orders = []
    for a, offs in enumerate(offsets):
        ba = sorted(b[a] for b in bs)
        ra = sorted(r[a] for r in rs)
        orders.append(sorted((_monotone_value(ba, ra, t), t) for t in offs))
    rest = [0] * (d + 1)  # rest[a]: sum of the smallest bounds of axes a..
    for a in range(d - 1, -1, -1):
        rest[a] = rest[a + 1] + orders[a][0][0]
    best_v = best_tau = best_frame = None
    evaluated = 0
    tables = [{} for _ in offsets]  # axis -> offset -> table, within the cap
    size = len(bs) * len(rs)
    cells = 0
    # depth-first without recursion, so d is not bounded by the stack:
    # axis a tries orders[a][nxt[a]] next, under the bound sums[a] and the
    # cost rows rows[a] of axes < a
    nxt = [0] * d
    sums = [0] * d
    tau = [0] * d
    rows = [None] * d
    rows[0] = [[0] * len(rs) for _ in bs]
    duals = reduced = None  # the last solve's potentials; rows[d - 1] - duals
    v_sum = 0
    a = 0
    while a >= 0:
        if nxt[a] == len(orders[a]):
            a -= 1
            continue
        g, t = orders[a][nxt[a]]
        nxt[a] += 1
        bound = sums[a] + g
        if best_v is not None and bound + rest[a + 1] > best_v:
            nxt[a] = len(orders[a])  # g ascends, so the later offsets are cut too
            continue
        tau[a] = t
        dist = tables[a].get(t)
        if dist is None:
            dist = _axis_table(bs, rs, a, t)
            if cells + size <= _TABLE_CELLS:
                tables[a][t] = dist
                cells += size
        if a + 1 < d:
            a += 1
            nxt[a], sums[a], rows[a] = 0, bound, _add_rows(rows[a - 1], dist)
            reduced = None
            continue
        if duals is not None:
            if reduced is None:
                reduced = _reduce_rows(rows[a], duals)
            if _dual_bound(reduced, dist, v_sum) > best_v:
                continue
        evaluated += 1
        v, _, duals = _min_cost_assignment(_add_rows(rows[a], dist))
        v_sum, reduced = sum(duals), None
        frame = tuple(tau)
        orig = _unrotate(frame, rotated)
        if best_v is None or v < best_v or (v == best_v and orig < best_tau):
            best_v, best_tau, best_frame = v, orig, frame
    return best_tau, best_frame, evaluated


def candidate_translations(
    blue: PointSet, red: PointSet, metric: Metric, budget: int = DEFAULT_BUDGET
) -> tuple[Point, ...]:
    """The exact finite set of translations the solver searches, sorted.

    For L1 and planar Linf this is the (rotated) offset grid in original
    coordinates; the solver walks it lazily and evaluates only the part
    its lower bound cannot rule out.
    """
    m, _ = _pair_sizes(blue, red)
    if m == 0:
        return ()
    d = blue.dim
    if metric is Metric.L1 or d <= 2:
        bs, rs, den, rotated = _grid_frame(blue, red, metric)
        offsets, _ = _grid_offsets(bs, rs, budget)
        return tuple(sorted(
            tuple(Fraction(c, den) for c in _unrotate(tau, rotated))
            for tau in itertools.product(*offsets)
        ))
    # each of the d*d plane families holds at least one plane, so refuse
    # at once when even C(d*d, d) vertex subsets exceed the budget
    lower = math.comb(d * d, d)
    if lower > budget:
        err = BudgetExceeded(lower, budget)
        err.args = (str(err).replace("needs", "needs at least", 1),)
        raise err
    # count the planes before building any
    planes = sum(len(offsets) for *_, offsets in _linf_families(blue, red))
    subsets = math.comb(planes, d)
    if subsets > budget:
        raise BudgetExceeded(subsets, budget)
    return arrangement_vertices(hyperplanes_linf(blue, red), d, budget)


def emd_value_at(blue: PointSet, red: PointSet, metric: Metric, tau) -> Fraction:
    """Exact EMD of (B + tau, R), solved in the integer frame of B, R and tau.

    ``tau`` is coerced like any coordinate, so a float raises ``TypeError``.
    """
    m, _ = _pair_sizes(blue, red)
    tau = point(tau)
    if len(tau) != blue.dim:
        raise ValueError(f"translation has {len(tau)} coordinates, expected {blue.dim}")
    if m == 0:
        return Fraction(0)
    bs, rs, (t,), den = _frame(blue, red, tau)
    return Fraction(_assignment_value(_cost_matrix(bs, rs, metric, t)), den)


def emdut_hd(
    blue: PointSet,
    red: PointSet,
    metric: Metric,
    budget: int = DEFAULT_BUDGET,
    *,
    return_stats: bool = False,
):
    """Exact minimum EMD over all translations; reports the lexicographically
    smallest optimal translation and a witness matching there.

    Returns (value, tau, matching); with ``return_stats=True`` the number
    of candidate translations and the number evaluated are appended.
    """
    m, _ = _pair_sizes(blue, red)
    d = blue.dim
    if m == 0:
        out = Fraction(0), zero_point(d), ()
        return (*out, 0, 0) if return_stats else out
    if metric is Metric.L1 or d <= 2:
        bs, rs, den, rotated = _grid_frame(blue, red, metric)
        offsets, candidates = _grid_offsets(bs, rs, budget)
        tau, frame_tau, evaluated = _grid_search(bs, rs, offsets, rotated)
        frame_metric = Metric.L1
    else:
        vertices = candidate_translations(blue, red, metric, budget)
        candidates = evaluated = len(vertices)
        # one frame for the points and every vertex: den > 0, so the smallest
        # (frame cost, frame tau) is the smallest (cost, tau)
        bs, rs, frame_vertices, den = _frame(blue, red, *vertices)
        tau = frame_tau = min(frame_vertices, key=lambda t: (
            _assignment_value(_cost_matrix(bs, rs, metric, t)), t))
        frame_metric = metric
    best_tau = tuple(Fraction(c, den) for c in tau)
    # frame costs are den times the metric's: same witness, value total/den
    total, phi = _lex_min_assignment(_cost_matrix(bs, rs, frame_metric, frame_tau))
    out = Fraction(total, den), best_tau, tuple(phi)
    return (*out, candidates, evaluated) if return_stats else out


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
