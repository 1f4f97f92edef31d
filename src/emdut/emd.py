"""Exact Earth Mover's Distance at a fixed translation.

Three routes with one contract (minimum total matched distance of an
injective blue-to-red matching):

* ``emd_1d_monotone``  -- 1D match-or-skip dynamic program,
  :func:`_monotone_rows`, in O(|B|*(|R|-|B|+1)) on the sorted integer
  frame of :func:`_sorted_frame`; an optimal matching always exists that
  is monotone, so the DP is exact.  Every 1D routine of the package runs
  on that frame, and each one that returns a matching finds it on sorted
  positions and maps it back to the input indices by the frame's one
  map.  The alignment oracle and the translation solver's
  per-axis bounds read only the value, so they run
  :func:`_monotone_value`, the same DP on one rolling row.
* ``emd_hungarian``    -- general-dimension mincost matching via shortest
  augmenting paths with exact integer potentials.
* ``emd_bruteforce``   -- factorial enumeration, the test oracle.

Every solver of the package, here and in the translation and 1D
modules, shares three helpers.  :func:`_pair_sizes` is the one
contract: both sets have one dimension (1 for the 1D routines) and
|B| <= |R|.  :func:`_frame` is the one frame: each solve puts its
points, with any translations, on the lcm of their denominators, so
every DP row and every cost matrix is built from ints.  Each set gives
its one integer form, ``PointSet._ints``: a set read from text holds
it, and a set built from Fractions, like a translation, is framed by
:func:`_as_int_matrix`, the one place rationals become integers.  A
block is rescaled only when its denominator differs from the lcm,
which for integer inputs it never does.  :func:`_min_cost_assignment`
is the one solve of an integer cost matrix, started from the row
minima for every caller.

Every cost matrix comes from :func:`_cost_matrix`, a fold over the axes
of :func:`_add_axis`, which adds one axis's distances to the rows (L1)
or takes their maximum with it (Linf); the grid walk of the translation
solver alone adds cached per-axis distance tables to the rows of each
axis prefix instead.  The lexicographically
smallest optimal witness comes from that same solve:
:func:`_lex_min_assignment` walks the tight edges of its potentials and
moves each row, in order, to the smallest column some optimal
assignment gives it.

The Hungarian solver also returns its column potentials, all <= 0, from
which the grid walk bounds the optimum of any other cost matrix of the
same shape.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .core import Matching, Metric, PointSet, _as_int_matrix, _check_metric

_INF = float("inf")  # comparison-only sentinel; never mixed into results


def _pair_sizes(blue: PointSet, red: PointSet, dim: int | None = None) -> tuple[int, int]:
    """(|B|, |R|) once the input meets the contract every solver shares.

    Both sets have one dimension, ``dim`` when it is given, and
    |B| <= |R|; each failure raises ``ValueError`` in one wording.
    """
    if blue.dim != red.dim:
        raise ValueError(f"blue and red dimension mismatch: {blue.dim} vs {red.dim}")
    if dim is not None and blue.dim != dim:
        raise ValueError(f"{dim}-dimensional point sets required, got {blue.dim}")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    return m, n


def _frame(blue: PointSet, red: PointSet, *extra):
    """(bs, rs, extra, den): the points and ``extra`` rows on one integer frame.

    Each block, the blues, the reds and the extra rows (translations),
    comes on its own frame: a set's integer form, ``PointSet._ints``, and
    :func:`_as_int_matrix` of the rows.  ``den`` is the lcm of the three,
    and a block whose own denominator differs is scaled up to it, so
    frame distances are the true ones times ``den``.
    """
    blocks = [blue._ints(), red._ints(), _as_int_matrix(extra)]
    den = math.lcm(*(d for _, d in blocks))
    return (*(ints if d == den else [[x * (den // d) for x in row] for row in ints]
              for ints, d in blocks), den)


def _sorted_frame(blue: PointSet, red: PointSet):
    """(bs, rs, to_input, den): 1D points on one integer frame, sorted.

    ``bs`` and ``rs`` are the scaled coordinates of :func:`_frame` in
    stable sorted order (equal coordinates keep index order).
    ``to_input`` maps a matching on sorted positions, whose entry i is
    the red position of blue position i, to the matching tuple on the
    input indices.
    """
    bs, rs, _, den = _frame(blue, red)
    bx = [p[0] for p in bs]
    rx = [p[0] for p in rs]
    border = sorted(range(len(bx)), key=bx.__getitem__)
    rorder = sorted(range(len(rx)), key=rx.__getitem__)

    def to_input(phi: Sequence[int]) -> Matching:
        return tuple(rorder[k] for _, k in sorted(zip(border, phi)))

    return [bx[i] for i in border], [rx[j] for j in rorder], to_input, den


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


def _monotone_value(bs: Sequence[int], rs: Sequence[int], shift: int = 0) -> int:
    """``_monotone_rows(bs, rs, shift)[0][0]``, the EMD alone, on one rolling row."""
    slack = len(rs) - len(bs)
    row = [0] * (slack + 1)
    for i in range(len(bs) - 1, -1, -1):
        b = bs[i] + shift
        best = abs(b - rs[i + slack]) + row[slack]
        row[slack] = best
        for k in range(slack - 1, -1, -1):
            take = abs(b - rs[i + k]) + row[k]
            if take < best:
                best = take
            row[k] = best
    return row[0]


def emd_1d_monotone(blue: PointSet, red: PointSet) -> tuple[Fraction, Matching]:
    """Exact 1D EMD with a monotone witness matching.

    Runs the O(|B|*(|R|-|B|+1)) match-or-skip DP on the sorted integer
    frame, and reconstructs greedily from the left so the witness is the
    lexicographically smallest monotone matching (in sorted order).  The
    returned matching is expressed over the original indices.
    """
    m, _ = _pair_sizes(blue, red, 1)
    bs, rs, to_input, den = _sorted_frame(blue, red)
    rows = _monotone_rows(bs, rs)
    phi = []
    k = 0
    for i in range(m):
        # take the first red that some optimal completion matches to blue i
        while abs(bs[i] - rs[i + k]) + rows[i + 1][k] != rows[i][k]:
            k += 1
        phi.append(i + k)
    return Fraction(rows[0][0], den), to_input(phi)


def _min_cost_assignment(cost: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Rectangular (m <= n) mincost assignment by shortest augmenting paths.

    Returns (total, assignment, column potentials).  Callers pass integer
    costs, so potentials and reduced costs stay exact ints of any size;
    float infinity appears only as an untouched-column sentinel in
    comparisons, which Python makes exactly against ints.  Unmatched
    columns behave like zero-cost dummy rows, which is exactly the padding
    semantics the EMD contract asks for.  A column's potential only ever
    drops, so every potential is <= 0, and a column left free was never
    reached and keeps 0.

    The solve starts from the row minima (Jonker and Volgenant): row i's
    potential is its minimum, and it is matched to the first column that
    attains it while that column is still free.  Only the rows left over
    are augmented, so a single row needs no search at all.

    Each augmentation is one Dijkstra search from row i over the columns.
    The distance to the last column taken into the tree is one offset that
    only grows; ``minv`` holds the tentative distances of the columns
    outside the tree on that same scale, so a step scans only those
    columns and nothing is shifted.  Once a free column is reached, each
    tree column's potential (and its row's) moves by the offset gained
    since it joined, in one pass per augmentation.
    """
    m = len(cost)
    n = len(cost[0]) if m else 0
    assert m <= n
    u = [0] * m
    v = [0] * n
    match_row = [-1] * n  # column -> row, -1 = free
    way = [-1] * n  # column -> the tree column before it, -1 = the root row
    rows = []
    for i, ri in enumerate(cost):
        u[i] = low = min(ri)
        j = ri.index(low)
        if match_row[j] < 0:
            match_row[j] = i
        else:
            rows.append(i)
    for i in rows:
        minv = [_INF] * n
        outside = list(range(n))  # columns not in the tree, in scan order
        tree = []  # (column, offset when it joined)
        i0, j0, joined = i, -1, 0
        while True:
            base = joined - u[i0]
            ri = cost[i0]
            offset = _INF
            j1 = -1
            for j in outside:
                cur = ri[j] + base - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                else:
                    cur = minv[j]
                if cur < offset:
                    offset = cur
                    j1 = j
            outside.remove(j1)
            if match_row[j1] < 0:
                break
            tree.append((j1, offset))
            i0, j0, joined = match_row[j1], j1, offset
        u[i] += offset
        for j, joined in tree:
            u[match_row[j]] += offset - joined
            v[j] -= offset - joined
        while j1 >= 0:
            j0 = way[j1]
            match_row[j1] = match_row[j0] if j0 >= 0 else i
            j1 = j0
    assignment = [-1] * m
    for j, r in enumerate(match_row):
        if r >= 0:
            assignment[r] = j
    return sum(cost[i][assignment[i]] for i in range(m)), assignment, v


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


def _lex_min_assignment(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Optimal total and the lexicographically smallest optimal assignment.

    One plain solve gives the total, an optimal assignment a and the
    column potentials v; row i's potential is
    c[i][a_i] - v[a_i], and an edge is tight when c[i][j] - v[j] equals
    it.  The optimal assignments are exactly the matchings of every row
    on tight edges that cover each column with v < 0.  A free column is
    held by a zero-cost dummy row, tight on every column with v = 0.

    The rows are then fixed in order: row i moves to the smallest tight
    column j < a_i, held by no earlier row, from which a search over
    columns reaches a_i.  A column held by a row leads to that row's
    other tight columns, a free one to every column with v = 0 that an
    unfixed row holds.  Moving each holder one step along the path
    closes the cycle: every row stays on a tight edge, every column with
    v < 0 stays covered and the earlier rows keep their columns.  A
    failed search changes nothing, so no column it reached is searched
    again for the same row, and one row costs at most one search of the
    tight edges: O(m^2 n) for the pass on top of the solve.
    """
    total, a, v = _min_cost_assignment(cost)
    m, n = len(a), len(v)
    held = [-1] * n  # column -> row, -1 = free
    for i, j in enumerate(a):
        held[j] = i
    tight = [None] * m  # row -> its tight columns, listed when first needed
    zero = [k for k, x in enumerate(v) if x == 0]
    for i in range(m):
        target = a[i]
        ri = cost[i]
        low = ri[target] - v[target]
        starts = [j for j in range(target) if ri[j] - v[j] == low]
        if not starts:
            continue
        prev = [-2] * n  # column -> the column before it on its path, -2 = unseen
        dummies = True  # the columns a dummy row may take are searched once per row
        for j in starts:
            if prev[j] != -2 or 0 <= held[j] < i:
                continue
            prev[j] = -1
            queue = [j]
            for c in queue:
                r = held[c]
                if r >= 0:
                    step = tight[r]
                    if step is None:
                        rr = cost[r]
                        ur = rr[c] - v[c]
                        step = tight[r] = [k for k, (e, x) in enumerate(zip(rr, v))
                                           if e - x == ur]
                elif dummies:
                    dummies, step = False, zero
                else:
                    continue
                for k in step:  # a dummy gains nothing by moving to a free column
                    if prev[k] == -2 and (held[k] >= i or (held[k] < 0 and r >= 0)):
                        prev[k] = c
                        queue.append(k)
                if prev[target] != -2:
                    break
            if prev[target] != -2:
                k = target
                while k != j:  # each holder moves one step along the path
                    c = prev[k]
                    held[k] = r = held[c]
                    if r >= 0:
                        a[r] = k
                    k = c
                held[j], a[i] = i, j
                break
    return total, a


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
    _check_metric(metric)
    m, _ = _pair_sizes(blue, red)
    if m == 0:
        return Fraction(0), ()
    bs, rs, _, den = _frame(blue, red)
    total, assignment = _lex_min_assignment(_cost_matrix(bs, rs, metric))
    return Fraction(total, den), tuple(assignment)


def emd_bruteforce(blue: PointSet, red: PointSet, metric: Metric) -> Fraction:
    """Minimum over all injections, at tau = 0.  Guarded to |R| <= 8."""
    _check_metric(metric)
    m, n = _pair_sizes(blue, red)
    if n > 8:
        raise ValueError(f"|R| = {n} exceeds the brute-force guard of 8")
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
