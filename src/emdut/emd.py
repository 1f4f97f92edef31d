"""Exact Earth Mover's Distance at a fixed translation.

Three routes with one contract (minimum total matched distance of an
injective blue-to-red matching):

* ``emd_1d_monotone``  -- 1D match-or-skip dynamic program,
  :func:`_monotone_rows`, in O(|B|*(|R|-|B|+1)) on the sorted integer
  frame of :func:`_sorted_frame`; an optimal matching always exists that
  is monotone, so the DP is exact.  Every 1D routine of the package runs
  on that frame, and the DP also gives the translation solvers their
  per-axis bounds.
* ``emd_hungarian``    -- general-dimension mincost matching via shortest
  augmenting paths with exact integer potentials.
* ``emd_bruteforce``   -- factorial enumeration, the test oracle.

Every cost matrix, here and in the translation solvers, comes from
:func:`_cost_matrix`, a fold over the axes of :func:`_add_axis`, which
adds one axis's distances to the rows (L1) or takes their maximum with
it (Linf).  The grid walk of the translation solver keeps the folded
rows of each axis prefix, so a new translation folds in only its last
axis.  Rationals become integers only in :func:`_as_int_matrix`: each
solve, 1D or not, scales its points (with the translation, if any) once
by the lcm of their denominators, so every DP row and every Hungarian
cost matrix is built from ints.  The lexicographically smallest optimal
witness comes from that same single solve: :func:`_lex_min_assignment`
appends the assignment, read as a base-n number, below the lowest digit
of the integer cost.

The Hungarian solver also returns its column potentials, all <= 0.  With
them, :func:`_dual_bound` gives a lower bound on the optimum of any other
cost matrix of the same shape in one pass over it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .core import Matching, Metric, PointSet

_INF = float("inf")  # comparison-only sentinel; never mixed into results


def _sorted_frame(blue: PointSet, red: PointSet):
    """(bs, rs, border, rorder, den): 1D points on one integer frame, sorted.

    ``bs`` and ``rs`` are the scaled coordinates of ``_as_int_matrix`` in
    stable sorted order (equal coordinates keep index order); ``border``
    and ``rorder`` map sorted positions back to the original indices.
    """
    ints, den = _as_int_matrix(blue.points + red.points)
    xs = [p[0] for p in ints]
    m = len(blue)
    border = sorted(range(m), key=xs.__getitem__)
    rorder = sorted(range(len(red)), key=xs[m:].__getitem__)
    return [xs[i] for i in border], [xs[m + j] for j in rorder], border, rorder, den


def _monotone_rows(bs: Sequence[int], rs: Sequence[int], shift: int = 0) -> list[list[int]]:
    """The match-or-skip DP of sorted ``bs`` shifted by ``shift`` into sorted ``rs``.

    rows[i][k] is the cheapest monotone matching of blues i.. into reds
    i+k..; only k <= |R| - |B| can complete, so each row has that many
    plus one entries, and rows[0][0] is the EMD.
    """
    m = len(bs)
    slack = len(rs) - m
    rows = [None] * m + [[0] * (slack + 1)]
    for i in range(m - 1, -1, -1):
        b = bs[i] + shift
        row = rows[i + 1][:]  # entry k is read as the next row's before it is set
        best = None
        for k in range(slack, -1, -1):
            take = abs(b - rs[i + k]) + row[k]
            if best is None or take < best:
                best = take
            row[k] = best
        rows[i] = row
    return rows


def emd_1d_monotone(blue: PointSet, red: PointSet) -> tuple[Fraction, Matching]:
    """Exact 1D EMD with a monotone witness matching.

    Runs the O(|B|*(|R|-|B|+1)) match-or-skip DP on the sorted integer
    frame, and reconstructs greedily from the left so the witness is the
    lexicographically smallest monotone matching (in sorted order).  The
    returned matching is expressed over the original indices.
    """
    if blue.dim != 1 or red.dim != 1:
        raise ValueError("emd_1d_monotone requires 1-dimensional point sets")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    if m == 0:
        return Fraction(0), ()
    bs, rs, border, rorder, den = _sorted_frame(blue, red)
    rows = _monotone_rows(bs, rs)
    assignment = [0] * m
    k = 0
    for i in range(m):
        # take the first red that some optimal completion matches to blue i
        while abs(bs[i] - rs[i + k]) + rows[i + 1][k] != rows[i][k]:
            k += 1
        assignment[border[i]] = rorder[i + k]
    return Fraction(rows[0][0], den), tuple(assignment)


def _min_cost_assignment(
    cost: Sequence[Sequence[int]],
) -> tuple[int, list[int], list[int]]:
    """Rectangular (m <= n) mincost assignment by shortest augmenting paths.

    Returns (total, assignment, column potentials).  Callers pass integer
    costs, so potentials and reduced costs stay exact ints of any size;
    float infinity appears only as an untouched-column sentinel in
    comparisons, which Python makes exactly against ints.  Unmatched
    columns behave like zero-cost dummy rows, which is exactly the padding
    semantics the EMD contract asks for.  A column's potential only ever
    drops, so every potential is <= 0, and a column left free was never
    reached and keeps 0.
    """
    m = len(cost)
    n = len(cost[0]) if m else 0
    assert m <= n
    u = [0] * (m + 1)
    v = [0] * (n + 1)
    match_row = [0] * (n + 1)  # 1-based column -> 1-based row, 0 = free
    way = [0] * (n + 1)
    for i in range(1, m + 1):
        match_row[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        ci = cost[i - 1]
        while True:
            used[j0] = True
            i0 = match_row[j0]
            delta = _INF
            j1 = -1
            ui0 = u[i0]
            ri = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = ri[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    if minv[j] is not _INF:
                        minv[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    assignment = [-1] * m
    for j in range(1, n + 1):
        if match_row[j]:
            assignment[match_row[j] - 1] = j - 1
    return sum(cost[i][assignment[i]] for i in range(m)), assignment, v[1:]


def _dual_bound(cost: Sequence[Sequence[int]], v: Sequence[int]) -> int:
    """A lower bound on the mincost assignment of ``cost`` from potentials v.

    With every v_j <= 0, u_i = min_j (c_ij - v_j) makes (u, v) feasible for
    the dual of the rectangular assignment, so sum(u) + sum(v) is at most
    the optimum.  With the potentials of ``cost``'s own solve it is the
    optimum.
    """
    return sum(v) + sum(min(map(operator.sub, row, v)) for row in cost)


def _add_axis(rows, blues, reds, a: int, shift, metric: Metric) -> list[list]:
    """``rows`` with |b_a + shift - r_a| added (L1) or maxed in (Linf).

    Entries keep the type of the coordinates, ints or Fractions.
    """
    col = [r[a] for r in reds]
    shifted = [b[a] + shift for b in blues]
    if metric is Metric.L1:
        return [[c + abs(x - y) for c, y in zip(row, col)]
                for row, x in zip(rows, shifted)]
    # max(e, c) written out: the builtin call per entry takes twice as long
    return [[e if (e := abs(x - y)) >= c else c for c, y in zip(row, col)]
            for row, x in zip(rows, shifted)]


def _cost_matrix(blues, reds, metric: Metric, tau=None) -> list[list]:
    """Distances from each blue (shifted by ``tau``) to each red.

    Points are coordinate tuples of ints or Fractions; entries keep their
    type.  The distances are folded in one axis at a time from zeros.
    """
    rows = [[0] * len(reds) for _ in blues]
    for a in range(len(blues[0]) if blues else 0):
        rows = _add_axis(rows, blues, reds, a, 0 if tau is None else tau[a], metric)
    return rows


def _as_int_matrix(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(integer rows, den) with rows == integer rows / den exactly.

    Rows are point coordinates, plus a translation framed with them; the
    distances of scaled rows are the true distances times ``den``.
    """
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _lex_min_assignment(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
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


def emd_hungarian(
    blue: PointSet, red: PointSet, metric: Metric
) -> tuple[Fraction, Matching]:
    """Exact EMD with |B| <= |R| and a deterministic witness.

    Blue deficits are padded implicitly: columns left unmatched cost
    nothing, exactly as if dummy blue points at distance zero to every
    red point had been added and stripped from the result.  Among
    equal-cost matchings the lexicographically smallest assignment list
    is returned.
    """
    if blue.dim != red.dim:
        raise ValueError("blue and red dimension mismatch")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    if m == 0:
        return Fraction(0), ()
    ints, den = _as_int_matrix(blue.points + red.points)
    total, assignment = _lex_min_assignment(_cost_matrix(ints[:m], ints[m:], metric))
    return Fraction(total, den), tuple(assignment)


def emd_bruteforce(blue: PointSet, red: PointSet, metric: Metric) -> Fraction:
    """Minimum over all injections, at tau = 0.  Guarded to |R| <= 8."""
    if blue.dim != red.dim:
        raise ValueError("blue and red dimension mismatch")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    if n > 8:
        raise ValueError(f"|R| = {n} exceeds the brute-force guard of 8")
    if m == 0:
        return Fraction(0)
    cost = _cost_matrix(blue.points, red.points, metric)
    best = None
    for perm in itertools.permutations(range(n), m):
        total = Fraction(0)
        for i, j in enumerate(perm):
            total += cost[i][j]
            if best is not None and total > best:
                break
        else:
            if best is None or total < best:
                best = total
    return best
