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

Internally the sweep rescales all coordinates by the common denominator
and works in integers, so alignment times are integers and only envelope
roots can be proper fractions.  Heap keys are float-filtered exact keys
``(float(t), t, ...)``: rounding to float is monotone, so unequal floats
order the exact times ``t`` correctly, and ``t`` itself decides only when
the floats tie.  Floats never enter a value, a translation or an
envelope.  Results are scaled back, so the output is exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import PointSet
from .emd import emd_1d_monotone
from .envelope import NaiveEnvelope, TreeEnvelope

ORACLE_PAIR_LIMIT = 10_000
# The list envelope beats the tree at every measured run size (m = 65..400);
# the tree stays as a differential reference.
_ENVELOPES = {"naive": NaiveEnvelope, "tree": TreeEnvelope}


class SweepStats(NamedTuple):
    events: int
    alignment_events: int
    reassignment_events: int
    pieces: Optional[list]  # (tau_lo, tau_hi, slope, intercept), descaled
    moves: Optional[list]   # (run_bs, run_bt, first_moved_blue), check mode only


def _sorted_scaled(ps: PointSet, scale: int) -> tuple[list[int], list[int]]:
    """Sort 1D points by (coordinate, index); return scaled coords and indices."""
    order = sorted(range(len(ps)), key=lambda i: (ps.points[i][0], i))
    coords = []
    for i in order:
        c = ps.points[i][0] * scale
        coords.append(int(c))
    return coords, order


def emdut_1d_symmetric(blue: PointSet, red: PointSet):
    """Minimum EMD over translations for equal-size 1D sets.

    Returns (value, tau, matching); tau is the lower median of the
    sorted pairwise differences, which is also the smallest optimal
    translation.
    """
    if blue.dim != 1 or red.dim != 1:
        raise ValueError("1-dimensional point sets required")
    if len(blue) != len(red):
        raise ValueError(f"size mismatch: |B| = {len(blue)}, |R| = {len(red)}")
    n = len(blue)
    if n == 0:
        return Fraction(0), Fraction(0), ()
    border = sorted(range(n), key=lambda i: (blue.points[i][0], i))
    rorder = sorted(range(n), key=lambda i: (red.points[i][0], i))
    diffs = sorted(
        red.points[rorder[i]][0] - blue.points[border[i]][0] for i in range(n)
    )
    tau = diffs[(n - 1) // 2]
    value = sum((abs(tau - d) for d in diffs), Fraction(0))
    assignment = [0] * n
    for i in range(n):
        assignment[border[i]] = rorder[i]
    return value, tau, tuple(assignment)


def emdut_1d_alignment_oracle(blue: PointSet, red: PointSet) -> Fraction:
    """Exhaustive reference: try every translation aligning a blue with a red.

    For any fixed monotone matching the cost is convex piecewise linear
    in tau and is minimized at a median of the matched differences, so
    some optimal translation aligns at least one pair.  Minimizing the
    1D EMD over all pairwise differences is therefore exact.
    """
    if blue.dim != 1 or red.dim != 1:
        raise ValueError("1-dimensional point sets required")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    if m * n > ORACLE_PAIR_LIMIT:
        raise ValueError(
            f"|B|*|R| = {m * n} exceeds the oracle guard of {ORACLE_PAIR_LIMIT}"
        )
    if m == 0:
        return Fraction(0)
    candidates = sorted({r[0] - b[0] for b in blue.points for r in red.points})
    best = None
    for tau in candidates:
        value, _ = emd_1d_monotone(blue.translate((tau,)), red)
        if best is None or value < best:
            best = value
    return best


def _fkey(t) -> float:
    """Monotone float filter for an exact event time (±inf past the range)."""
    try:
        return float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf


@dataclass
class _Run:
    rid: int
    bs: int            # first blue (sorted order)
    bt: int            # last blue; its red is phi[bt]
    env: object = None     # suffix-cost envelope, None when phi[bt] is the last red
    epoch: int = 0         # heap entries of older epochs are stale
    event: object = None   # (tau, blue) of the one live queued reassignment


class _Sweep:
    """One sweep execution over integer-scaled coordinates."""

    def __init__(self, bc, rc, envelope_cls, check: bool):
        self.bc = bc
        self.rc = rc
        self.m = len(bc)
        self.n = len(rc)
        self.check = check
        self.envelope_cls = envelope_cls
        self.phi = list(range(self.m))  # the matching: blue j -> red phi[j]
        self.blue_run = [None] * self.m  # blue j -> the _Run holding it
        self.next_rid = 0
        self.heap: list = []
        self.fs = -self.m
        self.fi = sum(rc[j] - bc[j] for j in range(self.m))
        self.events = 0
        self.align_events = 0
        self.move_events = 0
        self.move_log: Optional[list] = [] if check else None

    # -- envelope helpers ---------------------------------------------------

    def _delta_prime(self, j, floor_tau):
        # current linear piece of the cost change when blue j switches from
        # its red to the next one; caller guarantees the next red exists.
        # The piece changes only at integer times, so floor(tau) selects it.
        v = self.phi[j]
        r, rp = self.rc[v], self.rc[v + 1]
        x = self.bc[j] + floor_tau
        if x < r:
            return 0, rp - r
        if x < rp:
            return -2, r + rp - 2 * self.bc[j]
        return 0, r - rp

    def _run_lines(self, bs, bt, tau, acc_a=0, acc_b=0):
        # suffix sums of the per-blue switch costs on top of the base line
        # (acc_a, acc_b), the line of blue bt coming last
        floor_tau = math.floor(tau)
        out = []
        for j in range(bt, bs - 1, -1):
            da, db = self._delta_prime(j, floor_tau)
            acc_a += da
            acc_b += db
            out.append((acc_a, acc_b, j))
        out.reverse()
        return out

    def _make_run(self, bs, bt, tau) -> _Run:
        run = _Run(self.next_rid, bs, bt)
        self.next_rid += 1
        if self.phi[bt] < self.n - 1:
            run.env = self.envelope_cls(self._run_lines(bs, bt, tau),
                                        seed=0xABCD + self.next_rid)
        self.blue_run[bs:bt + 1] = [run] * (bt - bs + 1)
        self._reschedule(run, tau)
        return run

    def _reschedule(self, run: _Run, tau):
        # queue the run's next reassignment unless it is already queued
        got = run.env.root_piece(tau) if run.env is not None else None
        if got != run.event:
            run.epoch += 1
            run.event = got
            if got is not None:
                # (rid, epoch) is unique per entry, so ties never compare runs
                root = got[0]
                heapq.heappush(self.heap,
                               (_fkey(root), root, 1, run.rid, run.epoch, run))

    def _verify_runs(self, tau):
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
                want = [(a, b) for a, b, _ in self._run_lines(run.bs, run.bt, tau)]
                got = [(a, b) for a, b, _ in run.env.lines()]
                assert got == want, (run.rid, got, want)
            j = run.bt + 1

    # -- event handlers -------------------------------------------------------

    def _handle_alignment(self, j, v, tau):
        # blue j meets its own red (its cost's slope gains 2) or the next red
        # (its switch cost's slope flips sign); other alignments change nothing
        w = self.phi[j]
        if v == w:
            self.fs += 2
            self.fi += 2 * (self.bc[j] - self.rc[v])
        elif v != w + 1:
            return
        run = self.blue_run[j]
        if run.env is not None:
            d = 2 if v == w else -2
            run.env.add_range(0, j - run.bs + 1, -d, d * (self.rc[v] - self.bc[j]))
            self._reschedule(run, tau)

    def _handle_move(self, run: _Run, tau):
        root, j = run.event
        run.event = None
        pos = j - run.bs
        line_a, line_b, _ = run.env.get(pos)
        if self.check:
            assert root == tau
            assert run.env.value_at(tau) == 0 == line_a * tau + line_b
            assert run.bs <= j <= run.bt
            self.move_log.append((run.bs, run.bt, j))
        self.fs += line_a
        self.fi += line_b
        bt = run.bt
        phi = self.phi
        for k in range(j, bt + 1):
            phi[k] += 1
        # shrink the source run; a run that moves whole is dropped, as its
        # one queued event was just consumed
        if pos > 0:
            for _ in range(len(run.env) - pos):
                run.env.remove(pos)
            run.env.add_range(0, pos, -line_a, -line_b)
            run.bt = j - 1
            self._reschedule(run, tau)
        # attach the moved suffix: merge with the next run when the red
        # indices become consecutive, otherwise start a fresh run
        nxt = self.blue_run[bt + 1] if bt + 1 < self.m else None
        if nxt is not None and phi[nxt.bs] == phi[bt] + 1:
            if nxt.env is not None:
                base_a, base_b, _ = nxt.env.get(0)
                for a, b, k in reversed(self._run_lines(j, bt, tau, base_a, base_b)):
                    nxt.env.insert(0, a, b, k)
            nxt.bs = j
            self.blue_run[j:bt + 1] = [nxt] * (bt - j + 1)
            self._reschedule(nxt, tau)
        else:
            self._make_run(j, bt, tau)

    # -- main loop -------------------------------------------------------------

    def run(self, collect_pieces: bool):
        m, n, bc, rc = self.m, self.n, self.bc, self.rc
        heap = self.heap
        for j in range(m):
            t = rc[0] - bc[j]
            heapq.heappush(heap, (_fkey(t), t, 0, j, 0, None))
        self._make_run(0, m - 1, heap[0][1] - 1)

        best_num = best_den = best_tau = best_phi = None
        pieces = [] if collect_pieces else None
        prev_f = prev_tau = None
        while heap:
            f, tau, kind, x, y, run = heapq.heappop(heap)
            if kind == 1 and run.epoch != y:
                continue  # stale: the run was rescheduled since
            # pops come in non-decreasing order, so a new time is an unequal one
            if prev_tau is not None and (f != prev_f or tau != prev_tau):
                if pieces is not None:
                    pieces.append((prev_tau, tau, self.fs, self.fi))
                if self.check:
                    self._verify_runs(Fraction(prev_tau + tau, 2))
            prev_f, prev_tau = f, tau
            # the cost fs*tau + fi as num/den, compared by cross-multiplication
            den = tau.denominator
            num = self.fs * tau.numerator + self.fi * den
            if best_num is None or num * best_den < best_num * den:
                best_num, best_den, best_tau = num, den, tau
                best_phi = self.phi[:]
            self.events += 1
            if kind == 0:
                self.align_events += 1
                self._handle_alignment(x, y, tau)
                if y + 1 < n:
                    t = rc[y + 1] - bc[x]
                    heapq.heappush(heap, (_fkey(t), t, 0, x, y + 1, None))
            else:
                self.move_events += 1
                self._handle_move(run, tau)
        return Fraction(best_num, best_den), best_tau, best_phi, pieces


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
    list, ``tree`` the balanced tree.  ``check`` enables internal
    invariant assertions.
    """
    envelope_cls = _ENVELOPES.get(envelope)
    if envelope_cls is None:
        raise ValueError(
            f"unknown envelope kind {envelope!r}; expected one of "
            + ", ".join(_ENVELOPES)
        )
    if blue.dim != 1 or red.dim != 1:
        raise ValueError("1-dimensional point sets required")
    m, n = len(blue), len(red)
    if m > n:
        raise ValueError(f"|B| = {m} exceeds |R| = {n}")
    if m == 0:
        out = Fraction(0), Fraction(0), ()
        if return_stats:
            return (*out, SweepStats(0, 0, 0, [] if collect_pieces else None,
                                     [] if check else None))
        return out

    denom = 1
    for ps in (blue, red):
        for p in ps.points:
            denom = math.lcm(denom, p[0].denominator)
    bc, border = _sorted_scaled(blue, denom)
    rc, rorder = _sorted_scaled(red, denom)

    sweep = _Sweep(bc, rc, envelope_cls, check)
    best_v, best_tau, best_phi, pieces = sweep.run(collect_pieces)

    value = Fraction(best_v, denom)
    tau = Fraction(best_tau, denom)
    assignment = [0] * m
    for j, v in enumerate(best_phi):
        assignment[border[j]] = rorder[v]
    result = (value, tau, tuple(assignment))
    if return_stats:
        descaled = None
        if pieces is not None:
            descaled = [
                (Fraction(lo, denom), Fraction(hi, denom), fs, Fraction(fi, denom))
                for lo, hi, fs, fi in pieces
            ]
        stats = SweepStats(sweep.events, sweep.align_events, sweep.move_events,
                           descaled, sweep.move_log)
        return (*result, stats)
    return result
