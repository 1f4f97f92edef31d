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
run in that frame, and only the answer leaves it.  ``_grid`` is that
set-up, stated once for the solver and ``candidate_translations``: the
frame, the rotation, the sorted per-axis offsets and the budget check
on their product.

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
full arrangement.  The points are framed once and doubled, so every
vertex is an integer there (see ``_linf_vertices``); the vertices are
found by fraction-free elimination on ints, and the costs and the
witness are solved on that frame too.  The vertices are a set in no
order; the optimum is the smallest (frame cost, frame tau) over them,
the key the grid walk compares, kept with the cost matrix it was scored
on, which the witness is then solved on.  A candidate budget, checked
against the candidate count before anything is enumerated, guards both
paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub

from .core import Metric, Point, PointSet, _check_metric, _int_str, point, zero_point
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


def _linf_vertices(blue: PointSet, red: PointSet, budget: int):
    """(vertices, bs, rs, den): the Linf arrangement's distinct vertices, a set
    in no order, on one integer frame with the points.

    The frame is ``emd._frame`` doubled.  The planes are tau_i + s*tau_j = c,
    as (i, j, s, c): the axis families (i, i, 0) first, then s = -1 and +1
    for each i < j, each family's distinct offsets c ascending.  Every normal
    is e_i or e_i +/- e_j, so d independent planes are a signed graph in
    which each component is a spanning tree plus one edge: a ground (axis)
    edge gives the component determinant +/-1, an unbalanced cycle +/-2.
    Every vertex is therefore half-integral on the frame and an integer on
    the doubled one.
    """
    d = blue.dim
    # each of the d*d plane families holds at least one plane, so refuse
    # at once when even C(d*d, d) vertex subsets exceed the budget
    lower = math.comb(d * d, d)
    if lower > budget:
        err = BudgetExceeded(lower, budget)
        err.args = (str(err).replace("needs", "needs at least", 1),)
        raise err
    bs, rs, _, den = _frame(blue, red)
    bs = [[2 * x for x in b] for b in bs]
    rs = [[2 * x for x in r] for r in rs]
    diffs = [[y - x for x, y in zip(b, r)] for b in bs for r in rs]
    families = [(i, i, 0) for i in range(d)] + [
        (i, j, s) for i, j in itertools.combinations(range(d), 2) for s in (-1, 1)]
    offsets = [sorted({x[i] + s * x[j] for x in diffs}) for i, j, s in families]
    subsets = math.comb(sum(map(len, offsets)), d)
    if subsets > budget:
        raise BudgetExceeded(subsets, budget)
    planes = [(*f, c) for f, cs in zip(families, offsets) for c in cs]
    vertices = {_vertex(combo) for combo in itertools.combinations(planes, d)}
    vertices.discard(None)
    return vertices, bs, rs, 2 * den


def _vertex(planes):
    """The int point where d planes (i, j, s, c) meet, or None when singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): each step divides
    exactly by the previous pivot, so every entry stays an integer minor,
    and at the end every diagonal entry is the last pivot, the determinant
    up to sign.  Coordinate k is then row k's right-hand side over it, an
    exact division on the doubled frame.
    """
    d = len(planes)
    rows = []
    for i, j, s, c in planes:
        row = [0] * (d + 1)
        row[i] = 1
        row[j] += s
        row[d] = c
        rows.append(row)
    prev = 1
    for k in range(d):
        p = next((r for r in range(k, d) if rows[r][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        pivot = top[k]
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                rows[r] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return tuple(row[d] // prev for row in rows)


def _grid(blue: PointSet, red: PointSet, metric: Metric, budget: int):
    """(bs, rs, den, rotated, offsets, total): the grid search's set-up.

    Frames the points, so that L1 distances are the metric's times
    ``den``; rotates planar Linf to (x+y, x-y), which doubles distances
    and so ``den``; sorts the per-axis offsets r_a - b_a; and refuses
    their product, of size ``total``, past the budget.
    """
    bs, rs, _, den = _frame(blue, red)
    rotated = metric is Metric.LINF and blue.dim == 2
    if rotated:
        bs = [(x + y, x - y) for x, y in bs]
        rs = [(x + y, x - y) for x, y in rs]
        den *= 2
    offsets = [sorted({r[a] - b[a] for b in bs for r in rs}) for a in range(blue.dim)]
    total = math.prod(map(len, offsets))
    if total > budget:
        raise BudgetExceeded(total, budget)
    return bs, rs, den, rotated, offsets, total


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
    """(tau, cost, evaluated): the optimum, unrotated, and its frame cost matrix.

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
    best_v = best_tau = best_cost = None
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
        cost = _add_rows(rows[a], dist)
        v, _, duals = _min_cost_assignment(cost)
        v_sum, reduced = sum(duals), None
        orig = _unrotate(tuple(tau), rotated)
        if best_v is None or v < best_v or (v == best_v and orig < best_tau):
            best_v, best_tau, best_cost = v, orig, cost
    return best_tau, best_cost, evaluated


def candidate_translations(
    blue: PointSet, red: PointSet, metric: Metric, budget: int = DEFAULT_BUDGET
) -> tuple[Point, ...]:
    """The exact finite set of translations the solver searches, sorted.

    For L1 and planar Linf this is the (rotated) offset grid in original
    coordinates; the solver walks it lazily and evaluates only the part
    its lower bound cannot rule out.  For Linf in d >= 3 it is every
    vertex of the axis-plus-diagonal arrangement, which the solver
    enumerates on ints on the points' doubled frame and evaluates in
    full; here they are scaled back.  Either set is sorted once, on the
    frame: den > 0, so the frame ints sort as the Fractions do.
    """
    _check_metric(metric)
    m, _ = _pair_sizes(blue, red)
    if m == 0:
        return ()
    if metric is Metric.L1 or blue.dim <= 2:
        _, _, den, rotated, offsets, _ = _grid(blue, red, metric, budget)
        taus = (_unrotate(tau, rotated) for tau in itertools.product(*offsets))
    else:
        taus, _, _, den = _linf_vertices(blue, red, budget)
    return tuple(tuple(Fraction(c, den) for c in tau) for tau in sorted(taus))


def emd_value_at(blue: PointSet, red: PointSet, metric: Metric, tau) -> Fraction:
    """Exact EMD of (B + tau, R), solved in the integer frame of B, R and tau.

    ``tau`` is coerced like any coordinate, so a float raises ``TypeError``.
    """
    _check_metric(metric)
    _pair_sizes(blue, red)
    tau = point(tau)
    if len(tau) != blue.dim:
        raise ValueError(f"translation has {len(tau)} coordinates, expected {blue.dim}")
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
    _check_metric(metric)
    m, _ = _pair_sizes(blue, red)
    d = blue.dim
    if m == 0:
        out = Fraction(0), zero_point(d), ()
        return (*out, 0, 0) if return_stats else out
    if metric is Metric.L1 or d <= 2:
        bs, rs, den, rotated, offsets, candidates = _grid(blue, red, metric, budget)
        tau, cost, evaluated = _grid_search(bs, rs, offsets, rotated)
    else:
        vertices, bs, rs, den = _linf_vertices(blue, red, budget)
        candidates = evaluated = len(vertices)
        # the smallest (frame cost, frame tau), the key the grid walk compares;
        # den > 0, so it is the smallest optimal tau in the original frame too.
        # The vertices are distinct, so the cost matrices are never compared.
        _, tau, cost = min((_assignment_value(c := _cost_matrix(bs, rs, metric, t)), t, c)
                           for t in vertices)
    best_tau = tuple(Fraction(c, den) for c in tau)
    # frame costs are den times the metric's: same witness, value total/den
    total, phi = _lex_min_assignment(cost)
    out = Fraction(total, den), best_tau, tuple(phi)
    return (*out, candidates, evaluated) if return_stats else out
