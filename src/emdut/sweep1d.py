"""Translation-optimal 1D matching: median algorithm and event sweep.

``emdut_1d_symmetric`` handles |B| = |R|: with both sets sorted, the
identity matching is optimal for every translation, so the best
translation is a median of the pairwise differences.

``emdut_1d_sweep`` handles |B| <= |R| by sweeping the translation from
below the first blue/red alignment to above the last one while
maintaining the current optimal monotone matching (as runs of
consecutive blues matched to consecutive reds), the linear piece of the
cost function, and one suffix-cost lower envelope per run.  Two event
kinds drive the sweep: alignment events (a blue meets a red, changing a
slope) and reassignment events (a run suffix shifts to the next reds,
triggered by a root of the run's envelope).

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
switch lines are all (0, 0) there, so each step is the move a fresh run
would pop at this same time, and as the cost is continuous and the best
matching changes only on a strict improvement, taking it early is exact.
``Fraction`` is built only for the output, which is scaled back, the
cost pieces and checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import PointSet
from .emd import _monotone_value, _pair_sizes, _sorted_frame
from .envelope import NaiveEnvelope, TreeEnvelope

ORACLE_PAIR_LIMIT = 10_000
# The sweep runs the list envelope: it beat the blocked tree on random
# n = 2m sets at m = 65..400, where runs are short.  On one long run (blues
# 10 apart, m = 520) the tree was faster, 31.6 against 37.0 s of CPU time on
# a 2-vCPU machine, so it stays, as a differential reference and for long runs.
_ENVELOPES = {"naive": NaiveEnvelope, "tree": TreeEnvelope}


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
    bs, rs, border, rorder, den = _sorted_frame(blue, red)
    diffs = sorted(r - b for b, r in zip(bs, rs))
    tau = diffs[(n - 1) // 2]
    value = sum(abs(tau - d) for d in diffs)
    assignment = [0] * n
    for i in range(n):
        assignment[border[i]] = rorder[i]
    return Fraction(value, den), Fraction(tau, den), tuple(assignment)


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
    if m == 0:
        return Fraction(0)
    bs, rs, _, _, den = _sorted_frame(blue, red)
    offsets = {r - b for b in bs for r in rs}
    return Fraction(min(_monotone_value(bs, rs, t) for t in offsets), den)


@dataclass
class _Run:
    rid: int
    bs: int            # first blue (sorted order)
    bt: int            # last blue; its red is phi[bt]
    env: object = None     # suffix-cost envelope, None when phi[bt] is the last red
    epoch: int = 0         # heap entries of older epochs are stale
    event: object = None   # (p, q, blue) of the one live queued reassignment


class _Sweep:
    """One sweep over integer-scaled coordinates; a time is p/q in lowest terms."""

    def __init__(self, bc, rc, envelope_cls, check: bool):
        self.bc = bc
        self.rc = rc
        self.m = len(bc)
        self.n = len(rc)
        self.shift = (4 * self.m * self.m).bit_length()  # K of the heap keys
        self.check = check
        self.envelope_cls = envelope_cls
        self.phi = list(range(self.m))  # the matching: blue j -> red phi[j]
        self.blue_run = [None] * self.m  # blue j -> the _Run holding it
        self.next_rid = 0
        self.fs = -self.m
        self.fi = sum(rc[j] - bc[j] for j in range(self.m))
        self.align_events = 0  # every event is one of these or a move
        self.move_events = 0
        self.move_log: Optional[list] = [] if check else None

    # -- envelope helpers ---------------------------------------------------

    def _run_lines(self, bs, bt, floor_tau, acc_a=0, acc_b=0):
        # suffix sums of the per-blue switch costs on top of the base line
        # (acc_a, acc_b), the line of blue bt coming last.  Blue j's switch
        # from its red r to the next red rp costs a piece of
        # |x - rp| - |x - r| at x = bc[j] + tau, which changes only at
        # integer times, so floor(tau) selects it; the run's last red is
        # not the last one, so rp exists for every blue of the run.
        phi, bc, rc = self.phi, self.bc, self.rc
        out = [None] * (bt - bs + 1)
        for j in range(bt, bs - 1, -1):
            v = phi[j]
            r, rp = rc[v], rc[v + 1]
            b = bc[j]
            x = b + floor_tau
            if x < r:
                acc_b += rp - r
            elif x < rp:
                acc_a -= 2
                acc_b += r + rp - 2 * b
            else:
                acc_b += r - rp
            out[j - bs] = (acc_a, acc_b, j)
        return out

    def _make_run(self, bs, bt, p, q) -> _Run:
        run = _Run(self.next_rid, bs, bt)
        self.next_rid += 1
        if self.phi[bt] < self.n - 1:
            run.env = self.envelope_cls(self._run_lines(bs, bt, p // q))
        self.blue_run[bs:bt + 1] = [run] * (bt - bs + 1)
        self._reschedule(run, p, q)
        return run

    def _reschedule(self, run: _Run, p, q):
        # queue the run's next reassignment unless it is already queued
        got = run.env.root_piece(p, q) if run.env is not None else None
        if got != run.event:
            run.epoch += 1
            run.event = got
            if got is not None:
                # (rid, epoch) is unique per entry, so ties never compare runs
                rp, rq, _ = got
                heapq.heappush(self.heap, ((rp << self.shift) // rq, 1, run.rid,
                                           run.epoch, rp, rq, run))

    def _verify_runs(self, floor_tau):
        # check-mode only: each run matches its blues to consecutive reds,
        # has an envelope unless its last red is the last one, and stores
        # suffix-cost lines equal to pieces recomputed from scratch
        # strictly inside the current interval
        phi, j = self.phi, 0
        while j < self.m:
            run = self.blue_run[j]
            assert run.bs == j and all(r is run for r in self.blue_run[j:run.bt + 1])
            assert phi[j:run.bt + 1] == list(range(phi[j], phi[run.bt] + 1))
            assert (run.env is None) == (phi[run.bt] == self.n - 1)
            if run.env is not None:
                want = [(a, b) for a, b, _ in self._run_lines(run.bs, run.bt, floor_tau)]
                got = [(a, b) for a, b, _ in run.env.lines()]
                assert got == want, (run.rid, got, want)
            j = run.bt + 1

    # -- event handlers -------------------------------------------------------

    def _handle_alignment(self, j, v, w, t):
        # blue j meets its own red w (its cost's slope gains 2) or the next
        # red (its switch cost's slope flips sign); the main loop skips the
        # later reds, which change nothing
        if v == w:
            self.fs += 2
            self.fi += 2 * (self.bc[j] - self.rc[v])
        run = self.blue_run[j]
        if run.env is not None:
            d = 2 if v == w else -2
            run.env.add_range(0, j - run.bs + 1, -d, d * (self.rc[v] - self.bc[j]))
            self._reschedule(run, t, 1)

    def _handle_move(self, run: _Run, p, q):
        rp, rq, j = run.event
        run.event = None
        pos = j - run.bs
        line_a, line_b, _ = run.env.get(pos)
        if self.check:
            assert (rp, rq) == (p, q) and line_a * p + line_b * q == 0
            assert run.env.value_at(Fraction(p, q)) == 0
            assert run.bs <= j <= run.bt
            self.move_log.append((run.bs, run.bt, j))
        self.fs += line_a
        self.fi += line_b
        bt = run.bt
        phi, rc = self.phi, self.rc
        # shrink the source run; a run that moves whole is dropped, as its
        # one queued event was just consumed
        if pos > 0:
            for _ in range(len(run.env) - pos):
                run.env.remove(pos)
            run.env.add_range(0, pos, -line_a, -line_b)
            run.bt = j - 1
            self._reschedule(run, p, q)
        # slide: while the next free red lies below the next run and has the
        # suffix's first coordinate, every switch line of the suffix is
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
                # a switch line is (0, 0) exactly when a blue's red and the
                # next one are equal, so each step's lines are all (0, 0)
                assert all(x == r0 for x in rc[first:top + slid + 1])
                self.move_log.extend([(j, bt, j)] * slid)
            self.move_events += slid
        for k in range(j, bt + 1):
            phi[k] += 1 + slid
        # attach the moved suffix: merge with the next run when the red
        # indices become consecutive, otherwise start a fresh run
        if nxt is not None and limit == phi[bt] + 1:
            if nxt.env is not None:
                base_a, base_b, _ = nxt.env.get(0)
                for a, b, k in reversed(self._run_lines(j, bt, p // q, base_a, base_b)):
                    nxt.env.insert(0, a, b, k)
            nxt.bs = j
            self.blue_run[j:bt + 1] = [nxt] * (bt - j + 1)
            self._reschedule(nxt, p, q)
        else:
            self._make_run(j, bt, p, q)

    # -- main loop -------------------------------------------------------------

    def run(self, collect_pieces: bool):
        m, n, bc, rc = self.m, self.n, self.bc, self.rc
        phi, shift = self.phi, self.shift
        # entries (key, kind, blue or rid, red or epoch, p, q, run); each
        # blue's first alignment is with its own red
        self.heap = heap = []
        for j in range(m):
            t = rc[j] - bc[j]
            heapq.heappush(heap, (t << shift, 0, j, j, t, 1, None))
        # the identity matching holds up to the first alignment; the first
        # piece starts where the last blue meets red 0, or at an earlier event
        t = rc[0] - bc[m - 1]
        self._make_run(0, m - 1, t - 1, 1)
        prev_key, prev_p, prev_q = min((t << shift, t, 1), (heap[0][0], *heap[0][4:6]))

        best_num = best_q = best_p = best_phi = None
        pieces = [] if collect_pieces else None
        while heap:
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
            # the cost fs*tau + fi as num/q, compared by cross-multiplication
            num = self.fs * p + self.fi * q
            if best_num is None or num * best_q < best_num * q:
                best_num, best_q, best_p = num, q, p
                best_phi = phi[:]
            if kind == 0:
                self.align_events += 1
                if y <= w + 1:
                    self._handle_alignment(x, y, w, p)
                if y + 1 < n:
                    t = rc[y + 1] - bc[x]
                    heapq.heappush(heap, (t << shift, 0, x, y + 1, t, 1, None))
            else:
                self.move_events += 1
                self._handle_move(run, p, q)
        return best_num, best_p, best_q, best_phi, pieces


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
    appended.  ``envelope`` picks the run envelope: ``naive`` runs the
    list, ``tree`` the blocks of static envelopes.  ``check`` enables
    internal invariant assertions.
    """
    envelope_cls = _ENVELOPES.get(envelope)
    if envelope_cls is None:
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

    bc, rc, border, rorder, denom = _sorted_frame(blue, red)
    sweep = _Sweep(bc, rc, envelope_cls, check)
    best_num, best_p, best_q, best_phi, pieces = sweep.run(collect_pieces)

    assignment = [0] * m
    for j, v in enumerate(best_phi):
        assignment[border[j]] = rorder[v]
    den = best_q * denom
    result = (Fraction(best_num, den), Fraction(best_p, den), tuple(assignment))
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
