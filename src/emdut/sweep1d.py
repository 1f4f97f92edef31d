"""Translation-optimal 1D matching: median algorithm and event sweep.

``emdut_1d_symmetric`` handles |B| = |R|: with both sets sorted, the
identity matching is optimal for every translation, so the best
translation is a median of the pairwise differences.

``emdut_1d_sweep`` handles |B| <= |R| by sweeping the translation from
below the first blue/red alignment to above the last one while
maintaining the current optimal monotone matching (as runs of
consecutive blues matched to consecutive reds) and the linear piece of
the cost function.  Each blue keeps its switch piece, the line in tau of
the cost change if it moved on to its next red.  A run is only its blue
range; its suffix-cost envelope lines are the suffix sums of its pieces,
computed when its root is queried and never stored, and a move computes
pieces only for the blues it moves.  Two event kinds drive the sweep:
alignment events (a blue meets a red, changing one slope and one piece)
and reassignment events (a run suffix shifts to the next reds, triggered
by a root of the run's envelope).  Alignments at one time only mark
their runs, each run once, in an insertion-ordered record, and each
marked run's root is queried once, in marking order, after the last of
them; the cost is compared once per event time, as it is continuous,
and the best matching is copied only before the matching next changes.

All three routines here, the alignment oracle included, run on one
frame, ``emd._sorted_frame``: the coordinates scaled once by the lcm of
their denominators and stably sorted.  The median algorithm takes the
median of integer differences, and the oracle runs the value-only DP
``emd._monotone_value`` at each integer offset.  In the sweep every
event time is then a pair p/q of ints: q = 1 at an alignment, and a
root's q divides 2i with i <= m, as run slopes lie in {0, -2, ..., -2m}.
Distinct times differ by at least 1/(4m^2), so the heap key
``(p << K) // q`` with K = (4m^2).bit_length() orders them exactly at
any magnitude.  Each blue's alignments start at its own red, and one
that pops behind the blue's matched red is moved up to that red
uncounted: the matching only advances, so it would change nothing.
A moved suffix slides on, one counted move per red, while its next free
red lies below the next run and has the suffix's first coordinate: its
switch pieces are all (0, 0) there, so each step is the move a fresh run
would pop at this same time, and as the cost is continuous and the best
matching changes only on a strict improvement, taking it early is exact.
``Fraction`` is built only for the output, which is scaled back, and
the cost pieces.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import PointSet
from .emd import _monotone_value, _pair_sizes, _sorted_frame
from .envelope import TreeEnvelope

ORACLE_PAIR_LIMIT = 10_000


class SweepStats(NamedTuple):
    events: int
    alignment_events: int  # those at or after the blue's matched red
    reassignment_events: int  # slid steps over equal reds included
    pieces: Optional[list]  # (tau_lo, tau_hi, slope, intercept), descaled
    moves: Optional[list]   # (run_bs, run_bt, first_moved_blue), check mode only


def emdut_1d_symmetric(blue: PointSet, red: PointSet):
    """Minimum EMD over translations for equal-size 1D sets.

    Returns (value, tau, matching); tau is the lower median of the
    sorted pairwise differences, which is also the smallest optimal
    translation.
    """
    m, n = _pair_sizes(blue, red, 1)
    if m != n:
        raise ValueError(f"|B| = {m} is less than |R| = {n}")
    if n == 0:
        return Fraction(0), Fraction(0), ()
    bs, rs, to_input, den = _sorted_frame(blue, red)
    diffs = sorted(r - b for b, r in zip(bs, rs))
    tau = diffs[(n - 1) // 2]
    value = sum(abs(tau - d) for d in diffs)
    return Fraction(value, den), Fraction(tau, den), to_input(range(n))


def emdut_1d_alignment_oracle(blue: PointSet, red: PointSet) -> Fraction:
    """Exhaustive reference: try every translation aligning a blue with a red.

    For any fixed monotone matching the cost is convex piecewise linear
    in tau and is minimized at a median of the matched differences, so
    some optimal translation aligns at least one pair.  Minimizing the
    1D EMD over all pairwise differences is therefore exact.
    """
    m, n = _pair_sizes(blue, red, 1)
    if m * n > ORACLE_PAIR_LIMIT:
        raise ValueError(
            f"|B|*|R| = {m * n} exceeds the oracle guard of {ORACLE_PAIR_LIMIT}"
        )
    bs, rs, _, den = _sorted_frame(blue, red)
    offsets = {r - b for b in bs for r in rs}
    return Fraction(min((_monotone_value(bs, rs, t) for t in offsets), default=0), den)


@dataclass(eq=False)  # hashed by identity, as a key of _Sweep.marked
class _Run:
    rid: int
    bs: int            # first blue (sorted order)
    bt: int            # last blue; its red is phi[bt]
    live: bool         # phi[bt] is not the last red, so the run can still move
    epoch: int = 0         # heap entries of older epochs are stale
    event: object = None   # (p, q, blue) of the one live queued reassignment


class _Sweep:
    """One sweep over integer-scaled coordinates; a time is p/q in lowest terms.

    Blue j's switch piece, the line pa[j]*tau + pb[j], is the cost
    |x - r'| - |x - r| at x = bc[j] + tau of moving it from its red r to
    the next red r'.  A live run [bs, bt] moves the suffix from blue j on
    when the sum of the pieces j..bt falls to zero, so the run's envelope
    lines are the suffix sums of its pieces, tagged by blue; they are never
    stored, and the tree reference is built on them per root query.  Both
    root queries return what an envelope's ``root_piece`` returns, (p, q,
    blue); a move reads the moved suffix's line off its pieces as it shifts
    them.  Pieces are kept current for the blues of live runs only.
    """

    def __init__(self, bc, rc, root_query, check: bool):
        self.bc = bc
        self.rc = rc
        self.m = len(bc)
        self.n = len(rc)
        self.shift = (4 * self.m * self.m).bit_length()  # K of the heap keys
        self.check = check
        self.phi = list(range(self.m))  # the matching: blue j -> red phi[j]
        self.pa = [0] * self.m  # switch piece slopes
        self.pb = [0] * self.m  # switch piece intercepts
        self.root_query = root_query  # an entry of _ENVELOPES, called with self
        self.blue_run = [None] * self.m  # blue j -> the _Run holding it
        # runs whose pieces changed at the current alignment time, as keys in
        # the order they were first marked, the order they are rescheduled in
        self.marked = {}
        self.next_rid = 0
        self.fs = -self.m
        self.fi = sum(rc[j] - bc[j] for j in range(self.m))
        self.align_events = 0  # every event is one of these or a move
        self.move_events = 0
        self.move_log: Optional[list] = [] if check else None

    # -- switch pieces and root queries -------------------------------------

    def _set_pieces(self, lo, hi, floor_tau):
        # the switch pieces of blues lo..hi between floor_tau and
        # floor_tau + 1; a piece changes only at integer times, where x
        # meets r or r', so floor(tau) selects it.  No blue here has the
        # last red, so r' exists.
        phi, bc, rc, pa, pb = self.phi, self.bc, self.rc, self.pa, self.pb
        for j in range(lo, hi + 1):
            v = phi[j]
            r, rp = rc[v], rc[v + 1]
            b = bc[j]
            x = b + floor_tau
            if x < r:
                pa[j] = 0
                pb[j] = rp - r
            elif x < rp:
                pa[j] = -2
                pb[j] = r + rp - 2 * b
            else:
                pa[j] = 0
                pb[j] = r - rp

    def _root_naive(self, bs, bt, p0, q0):
        # the envelopes' root rule on the run's lines, in one backward pass
        # over its pieces: the first line <= 0 at t0 answers at t0, else the
        # first falling line with the smallest root -b/a does (<= keeps the
        # first on ties, as the pass runs backward).  Returns (p, q, blue),
        # as ``root_piece`` does, or None.
        pa, pb = self.pa, self.pb
        a = b = 0
        hit = -1
        root_p, root_q = 1, 0  # the smallest root so far; 1/0 is above all
        for j in range(bt, bs - 1, -1):
            a += pa[j]
            b += pb[j]
            if a * p0 + b * q0 <= 0:
                hit = j
            elif a < 0 and b * root_q <= root_p * -a:
                root_p, root_q, root_j = b, -a, j
        if hit >= 0:
            return p0, q0, hit
        if not root_q:
            return None
        g = math.gcd(root_p, root_q)
        return root_p // g, root_q // g, root_j

    def _root_tree(self, bs, bt, p0, q0):
        # the same rule and return, answered by a tree built on the run's lines
        return TreeEnvelope(self._range_lines(bs, bt)).root_piece(p0, q0)

    def _range_lines(self, bs, bt):
        # the run's lines, the suffix sums of its pieces, tagged by blue
        out, a, b = [], 0, 0
        for j in range(bt, bs - 1, -1):
            a += self.pa[j]
            b += self.pb[j]
            out.append((a, b, j))
        return out[::-1]

    def _attach(self, run, lo, hi, p, q):
        # blues lo..hi start a fresh run (run is None) or join the front of
        # run; a live run gets their pieces and is rescheduled
        if run is None:
            run = _Run(self.next_rid, lo, hi, self.phi[hi] < self.n - 1)
            self.next_rid += 1
        run.bs = lo
        self.blue_run[lo:hi + 1] = [run] * (hi - lo + 1)
        if run.live:
            self._set_pieces(lo, hi, p // q)
            self._reschedule(run, p, q)

    def _reschedule(self, run: _Run, p, q):
        # queue the live run's next reassignment unless it is already queued
        got = self.root_query(self, run.bs, run.bt, p, q)
        if got != run.event:
            run.epoch += 1
            run.event = got
            if got is not None:
                # (rid, epoch) is unique per entry, so ties never compare runs
                rp, rq = got[0], got[1]
                heapq.heappush(self.heap, ((rp << self.shift) // rq, 1, run.rid,
                                           run.epoch, rp, rq, run))

    def _reschedule_marked(self, t):
        for run in self.marked:
            self._reschedule(run, t, 1)
        self.marked.clear()

    def _verify_runs(self, floor_tau):
        # check-mode only: each run matches its blues to consecutive reds and
        # is live unless its last red is the last one; a live run's pieces
        # equal pieces recomputed from scratch strictly inside the interval
        assert not self.marked
        phi, j = self.phi, 0
        while j < self.m:
            run = self.blue_run[j]
            bs, bt = run.bs, run.bt
            assert bs == j and all(r is run for r in self.blue_run[j:bt + 1])
            assert phi[j:bt + 1] == list(range(phi[j], phi[bt] + 1))
            assert run.live == (phi[bt] < self.n - 1)
            if run.live:
                # each piece from its definition, at tau = t2/2 strictly
                # between two integers, where no blue meets a red; all doubled
                t2 = 2 * floor_tau + 1
                for k in range(bs, bt + 1):
                    r2, rp2 = 2 * self.rc[phi[k]], 2 * self.rc[phi[k] + 1]
                    x2 = 2 * self.bc[k] + t2
                    a = (1 if x2 > rp2 else -1) - (1 if x2 > r2 else -1)
                    b2 = abs(x2 - rp2) - abs(x2 - r2) - a * t2
                    assert (self.pa[k], 2 * self.pb[k]) == (a, b2), (run.rid, k, a, b2)
            j = bt + 1

    # -- event handlers -------------------------------------------------------

    def _handle_alignment(self, j, v, w):
        # blue j meets its own red w (its cost's slope gains 2) or the next
        # red (its switch piece's slope flips sign); the main loop skips the
        # later reds, which change nothing.  The run is only marked: it is
        # rescheduled once, after every alignment at this time, and marking
        # it again keeps its place in the marking order.
        if v == w:
            self.fs += 2
            self.fi += 2 * (self.bc[j] - self.rc[v])
        run = self.blue_run[j]
        if run.live:
            d = 2 if v == w else -2
            self.pa[j] -= d
            self.pb[j] += d * (self.rc[v] - self.bc[j])
            self.marked[run] = None

    def _handle_move(self, run: _Run, p, q):
        rp, rq, j = run.event
        run.event = None
        bs, bt = run.bs, run.bt
        if self.check:
            assert (rp, rq) == (p, q)
            assert min(a * p + b * q for a, b, _ in self._range_lines(bs, bt)) == 0
            assert bs <= j <= bt
            self.move_log.append((bs, bt, j))
        phi, rc, pa, pb = self.phi, self.rc, self.pa, self.pb
        # shrink the source run: its pieces j..bt leave its suffix sums, which
        # rebases the rest on line j; a run that moves whole is dropped, as
        # its one queued event was just consumed
        if j > bs:
            run.bt = j - 1
            self._reschedule(run, p, q)
        # slide: while the next free red lies below the next run and has the
        # suffix's first coordinate, every switch piece of the suffix is
        # (0, 0), so a fresh run would pop its whole-run move at this same
        # time; count those moves, then shift the suffix once for all
        nxt = self.blue_run[bt + 1] if bt + 1 < self.m else None
        limit = phi[nxt.bs] if nxt is not None else self.n
        first, top = phi[j] + 1, phi[bt] + 1  # the suffix's reds after the move
        r0 = rc[first]
        slid = 0
        while top + slid + 1 < limit and rc[top + slid + 1] == r0:
            slid += 1
        if slid:
            if self.check:
                # a switch piece is (0, 0) exactly when a blue's red and the
                # next one are equal, so each step's lines are all (0, 0)
                assert all(x == r0 for x in rc[first:top + slid + 1])
                self.move_log.extend([(j, bt, j)] * slid)
            self.move_events += slid
        # shift the suffix; its line, the sum of its pieces, is zero now and
        # joins the cost, read before the pieces are set for the new reds
        line_a = line_b = 0
        for k in range(j, bt + 1):
            phi[k] += 1 + slid
            line_a += pa[k]
            line_b += pb[k]
        if self.check:
            assert line_a * p + line_b * q == 0
        self.fs += line_a
        self.fi += line_b
        # attach the moved suffix: merge with the next run when the red
        # indices become consecutive, otherwise start a fresh run; either way
        # only the moved blues get new pieces
        self._attach(nxt if limit == phi[bt] + 1 else None, j, bt, p, q)

    # -- main loop -------------------------------------------------------------

    def run(self, collect_pieces: bool):
        m, n, bc, rc = self.m, self.n, self.bc, self.rc
        phi, shift, marked = self.phi, self.shift, self.marked
        # entries (key, kind, blue or rid, red or epoch, p, q, run); each
        # blue's first alignment is with its own red
        self.heap = heap = []
        for j in range(m):
            t = rc[j] - bc[j]
            heapq.heappush(heap, (t << shift, 0, j, j, t, 1, None))
        # the identity matching holds up to the first alignment; the first
        # piece starts where the last blue meets red 0, or at an earlier event
        t = rc[0] - bc[m - 1]
        self._attach(None, 0, m - 1, t - 1, 1)
        prev_key, prev_p, prev_q = min((t << shift, t, 1), (heap[0][0], *heap[0][4:6]))

        # the cost fs*tau + fi is continuous, so it is compared once per event
        # time, before that time's first event, as num/q by cross-
        # multiplication; the best matching is copied only before the
        # matching next changes, or at the end
        best_num, best_p, best_q = self.fs * prev_p + self.fi * prev_q, prev_p, prev_q
        best_phi, copy_due = None, True
        pieces = [] if collect_pieces else None
        key = p = None
        while True:
            # alignments at one time only mark their runs; each marked run is
            # rescheduled once, before the first entry that is not one of them
            if marked and (not heap or heap[0][0] != key or heap[0][1]):
                self._reschedule_marked(p)
            if not heap:
                break
            key, kind, x, y, p, q, run = heapq.heappop(heap)
            if kind == 0:
                w = phi[x]
                if y < w:  # a no-op behind x's red, like all up to red w
                    t = rc[w] - bc[x]
                    heapq.heappush(heap, (t << shift, 0, x, w, t, 1, None))
                    continue
            elif run.epoch != y:
                continue  # stale: the run was rescheduled since
            if key != prev_key:
                if pieces is not None:
                    pieces.append((prev_p, prev_q, p, q, self.fs, self.fi))
                if self.check:
                    self._verify_runs((prev_p * q + p * prev_q) // (2 * prev_q * q))
                prev_key, prev_p, prev_q = key, p, q
                num = self.fs * p + self.fi * q
                if num * best_q < best_num * q:
                    best_num, best_q, best_p = num, q, p
                    copy_due = True
            if kind == 0:
                self.align_events += 1
                if y <= w + 1:
                    self._handle_alignment(x, y, w)
                if y + 1 < n:
                    t = rc[y + 1] - bc[x]
                    heapq.heappush(heap, (t << shift, 0, x, y + 1, t, 1, None))
            else:
                if copy_due:
                    best_phi, copy_due = phi[:], False
                self.move_events += 1
                self._handle_move(run, p, q)
        if copy_due:
            best_phi = phi[:]
        return best_num, best_p, best_q, best_phi, pieces


# "naive" builds no envelope: a root query is one pass over the run's
# pieces, and an alignment changes one piece.  "tree" answers each root
# query with a blocked envelope built on the run's own lines, as a
# differential reference that emits the same event log.
_ENVELOPES = {"naive": _Sweep._root_naive, "tree": _Sweep._root_tree}


def emdut_1d_sweep(
    blue: PointSet,
    red: PointSet,
    *,
    envelope: str = "naive",
    return_stats: bool = False,
    collect_pieces: bool = False,
    check: bool = False,
):
    """Exact minimum 1D EMD over all translations, |B| <= |R|.

    Returns (value, tau, matching) where tau is the smallest optimal
    translation; with ``return_stats=True`` a :class:`SweepStats` is
    appended.  ``envelope`` picks how run roots are found: ``naive`` scans
    the run's switch pieces, ``tree`` builds a :class:`TreeEnvelope` on
    the run's lines for each query, as a reference.  Both give the same
    return, event log included.  ``check`` enables internal invariant
    assertions.
    """
    if envelope not in _ENVELOPES:
        raise ValueError(
            f"unknown envelope kind {envelope!r}; expected one of "
            + ", ".join(_ENVELOPES)
        )
    m, _ = _pair_sizes(blue, red, 1)
    if m == 0:
        out = Fraction(0), Fraction(0), ()
        if return_stats:
            return (*out, SweepStats(0, 0, 0, [] if collect_pieces else None,
                                     [] if check else None))
        return out

    bc, rc, to_input, denom = _sorted_frame(blue, red)
    sweep = _Sweep(bc, rc, _ENVELOPES[envelope], check)
    best_num, best_p, best_q, best_phi, pieces = sweep.run(collect_pieces)

    den = best_q * denom
    result = (Fraction(best_num, den), Fraction(best_p, den), to_input(best_phi))
    if return_stats:
        descaled = None if pieces is None else [
            (Fraction(lo_p, lo_q * denom), Fraction(hi_p, hi_q * denom), fs,
             Fraction(fi, denom))
            for lo_p, lo_q, hi_p, hi_q, fs, fi in pieces]
        stats = SweepStats(sweep.align_events + sweep.move_events,
                           sweep.align_events, sweep.move_events,
                           descaled, sweep.move_log)
        return (*result, stats)
    return result
