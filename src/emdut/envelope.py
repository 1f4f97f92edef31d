"""Reference lower envelopes of slope-ordered lines.

Holds a sequence of lines ``L[0..k-1]`` whose slopes are non-decreasing
with position, and answers queries about the whole envelope
``g(tau) = min_i L[i](tau)``:

* ``value_at(tau)``     -- exact value of g at an int or ``Fraction`` tau,
* ``root_piece(p0, q0)`` -- the smallest tau >= t0 = p0/q0 with
  g(tau) <= 0, as a pair (p, q) with q > 0, together with the tag of
  the first line, in position order, whose value there is <= 0.  It
  needs q0 > 0.  When g(t0) <= 0 it returns t0 as passed; otherwise the
  root comes back in lowest terms.  With q0 < 0 the sign tests flip:
  ``NaiveEnvelope([(-2, 4, 0)]).root_piece(0, -1)`` returns ``(0, -1, 0)``
  though g(0) = 4.

while supporting insertion/removal of single lines and adding a linear
function to a contiguous range of positions.  Positions count from 0,
never from the end: ``get`` and ``remove`` take 0 <= pos < k, ``insert``
0 <= pos <= k and ``add_range`` 0 <= lo <= hi <= k, and both backends
refuse anything else with ``IndexError`` before changing a line.  Both
backends follow that root rule exactly, and so does the sweep's own scan
of a run's switch pieces, so a sweep emits the same event log either way.

There is one time type: a pair (p, q) of ints with q > 0.  Lines are
``(slope, intercept, tag)`` triples with integer slope and intercept, so
every crossing and every root is such a pair, and a line's value at p/q
has the sign of slope*p + intercept*q.  Times are compared by
cross-multiplication; ``value_at`` reads its argument's pair and builds
the one value it returns from it.

Both classes are references; no production path runs either one:

* :class:`NaiveEnvelope` keeps a plain list; every query is O(k).  It
  is the reference the tree is tested against.  The sweep's default
  path finds a run's root in one pass over the run's switch pieces,
  which is this list's query on lines it never stores.
* :class:`TreeEnvelope` cuts the positions into blocks of about sqrt(k)
  consecutive lines, each with its own static lower envelope: pieces in
  time order and the breaks between them.  A block that ``add_range``
  covers whole only gains a pending offset (fa, fb): adding one line to
  all of its lines moves no crossing of two of them, so its pieces and
  breaks stay valid.  An update rebuilds at most two blocks, O(sqrt(k))
  lines each, plus O(k) re-cuts, amortized O(sqrt(k)) per update; a
  query binary-searches every block, O(sqrt(k) log k).  The sweep with
  ``envelope="tree"`` builds one of these on a run's lines for each
  root query, as a differential reference.

The tag is an opaque payload (the sweep stores blue-point ids there) and
plays no part in the geometry.  Callers keep the slope order; the
backends do not check it.
"""

from __future__ import annotations

import math

_LINES_READ = 0  # lines read by block rebuilds, for the complexity smoke test


def node_allocations() -> int:
    return _LINES_READ


def _isect(l1, l2):
    # the time (p, q) where l1 meets l2; l1's slope is the larger, so q > 0
    return l2[1] - l1[1], l1[0] - l2[0]


def _lt(s, t) -> bool:
    return s[0] * t[1] < t[0] * s[1]


def _at(line, t) -> int:
    # q * line(p/q) for t = (p, q): the sign of the line's value there
    return line[0] * t[0] + line[1] * t[1]


def _check_span(lo: int, hi: int, size: int) -> None:
    # positions [lo, hi) must lie in [0, size]: no negative index counts
    # from the end and no range is clamped, so a refused call changes nothing
    if not 0 <= lo <= hi <= size:
        raise IndexError(f"positions [{lo}, {hi}) outside [0, {size}]")


class _Block:
    """Consecutive lines and their static lower envelope.

    ``lines`` are stored without the pending offset (fa, fb), which
    applies to every one of them.  ``pieces`` are the envelope's lines in
    time order (slopes strictly decreasing), also without the offset, and
    ``breaks[i]`` is the time where ``pieces[i]`` hands over to
    ``pieces[i + 1]``.  Adding one line to every line moves no crossing
    of two of them, so the offset leaves pieces and breaks valid.
    """

    __slots__ = ("lines", "fa", "fb", "pieces", "breaks")

    def __init__(self, lines):
        self.lines = lines
        self.fa = self.fb = 0
        self.rebuild()

    def rebuild(self) -> None:
        global _LINES_READ
        _LINES_READ += len(self.lines)
        hull = []
        for a, b, _ in reversed(self.lines):  # slopes non-increasing
            if hull and hull[-1][0] == a:
                if hull[-1][1] <= b:
                    continue
                hull.pop()
            while len(hull) > 1 and not _lt(_isect(hull[-2], hull[-1]),
                                            _isect(hull[-1], (a, b))):
                hull.pop()
            hull.append((a, b))
        self.pieces = hull
        self.breaks = [_isect(l1, l2) for l1, l2 in zip(hull, hull[1:])]

    def line_at(self, t):
        """The line of the piece active at time t, offset included."""
        breaks = self.breaks
        lo, hi = 0, len(breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            if _lt(breaks[mid], t):
                lo = mid + 1
            else:
                hi = mid
        a, b = self.pieces[lo]
        return a + self.fa, b + self.fb

    def root_after(self, t0):
        """The first root after t0 as an unreduced pair, or None; the
        envelope, offset included, must be > 0 at t0."""
        fa, fb = self.fa, self.fb
        if self.pieces[-1][0] + fa >= 0:
            return None  # concave and never falling at the end: stays > 0
        # a concave envelope that is <= 0 at a break after t0 stays <= 0,
        # so the first such break ends the piece holding the root
        breaks, pieces = self.breaks, self.pieces
        lo, hi = 0, len(breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            t = breaks[mid]
            a, b = pieces[mid]
            if _lt(t0, t) and _at((a + fa, b + fb), t) <= 0:
                hi = mid
            else:
                lo = mid + 1
        a, b = pieces[lo]
        return b + fb, -(a + fa)

    def first_tag_at_or_below_zero(self, t):
        fa, fb = self.fa, self.fb
        for a, b, tag in self.lines:
            if (a + fa) * t[0] + (b + fb) * t[1] <= 0:
                return tag


class TreeEnvelope:
    """Blocks of about sqrt(k) lines, each with a static lower envelope.

    A whole block covered by ``add_range`` only gains a pending offset;
    ``insert``, ``remove`` and a partly covered block rebuild that one
    block.  The blocks are re-cut to about sqrt(k) lines each when one
    holds more than about 2*sqrt(k) lines or there are more than about
    2*sqrt(k) of them.
    """

    def __init__(self, lines=()):
        self._cut([(l[0], l[1], l[2] if len(l) > 2 else None) for l in lines])

    def _cut(self, lines) -> None:
        k = len(lines)
        count = -(-k // (math.isqrt(k) + 1))
        self._blocks = [_Block(lines[i * k // count:(i + 1) * k // count])
                        for i in range(count)]

    def _recut_if_unbalanced(self, block: _Block) -> None:
        cap = 2 * (math.isqrt(len(self)) + 1)
        if len(block.lines) > cap or len(self._blocks) > cap:
            self._cut(self.lines())

    def _locate(self, pos: int):
        # (block index, position inside it) of line pos
        _check_span(pos, pos + 1, len(self))
        for i, block in enumerate(self._blocks):
            if pos < len(block.lines):
                return i, pos
            pos -= len(block.lines)

    # -- mutations ----------------------------------------------------------

    def insert(self, pos: int, a, b, tag=None) -> None:
        _check_span(pos, pos, len(self))
        if not self._blocks:
            self._blocks.append(_Block([(a, b, tag)]))
            return
        for block in self._blocks:
            if pos <= len(block.lines):
                break
            pos -= len(block.lines)
        block.lines.insert(pos, (a - block.fa, b - block.fb, tag))
        block.rebuild()
        self._recut_if_unbalanced(block)

    def remove(self, pos: int):
        i, pos = self._locate(pos)
        block = self._blocks[i]
        a, b, tag = block.lines.pop(pos)
        if block.lines:
            block.rebuild()
        else:
            del self._blocks[i]
        self._recut_if_unbalanced(block)
        return a + block.fa, b + block.fb, tag

    def add_range(self, lo: int, hi: int, da, db) -> None:
        """Add da*tau + db to every line at positions [lo, hi)."""
        _check_span(lo, hi, len(self))
        start = 0
        for block in self._blocks:
            if start >= hi:
                break
            end = start + len(block.lines)
            if lo <= start and end <= hi:
                block.fa += da
                block.fb += db
            elif lo < end:
                i, j = max(lo - start, 0), min(hi, end) - start
                block.lines[i:j] = [(a + da, b + db, tag)
                                    for a, b, tag in block.lines[i:j]]
                block.rebuild()
            start = end

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(block.lines) for block in self._blocks)

    def value_at(self, tau):
        if not self._blocks:
            raise ValueError("envelope is empty")
        t = (tau.numerator, tau.denominator)
        a, b = min((block.line_at(t) for block in self._blocks),
                   key=lambda line: _at(line, t))
        return a * tau + b

    def root_piece(self, p0: int, q0: int):
        """First tau >= p0/q0 (q0 > 0) with g(tau) <= 0, as (p, q, tag)
        with the tag of the first line, in position order, at or below zero
        there; None when no such tau."""
        t0 = (p0, q0)
        best = None
        for block in self._blocks:
            if _at(block.line_at(t0), t0) <= 0:
                return p0, q0, block.first_tag_at_or_below_zero(t0)
            root = block.root_after(t0)
            if root is not None and (best is None or _lt(root, best)):
                best = root
        if best is None:
            return None
        g = math.gcd(*best)
        t = best[0] // g, best[1] // g
        for block in self._blocks:
            if _at(block.line_at(t), t) <= 0:
                return t[0], t[1], block.first_tag_at_or_below_zero(t)

    def get(self, pos: int):
        i, pos = self._locate(pos)
        block = self._blocks[i]
        a, b, tag = block.lines[pos]
        return a + block.fa, b + block.fb, tag

    def lines(self) -> list:
        return [(a + block.fa, b + block.fb, tag)
                for block in self._blocks for a, b, tag in block.lines]


class NaiveEnvelope:
    """Plain list: every query recomputes from the line list.

    The list is the envelope's own copy of the lines passed in, and
    ``add_range`` rewrites its entries in place, so no caller's list and
    no earlier ``lines()`` snapshot ever sees an update.
    """

    def __init__(self, lines=()):
        self._lines = [(l[0], l[1], l[2] if len(l) > 2 else None) for l in lines]

    def insert(self, pos, a, b, tag=None):
        _check_span(pos, pos, len(self._lines))
        self._lines.insert(pos, (a, b, tag))

    def remove(self, pos):
        _check_span(pos, pos + 1, len(self._lines))
        return self._lines.pop(pos)

    def add_range(self, lo, hi, da, db):
        lines = self._lines
        _check_span(lo, hi, len(lines))
        for i in range(lo, hi):
            a, b, tag = lines[i]
            lines[i] = (a + da, b + db, tag)

    def __len__(self):
        return len(self._lines)

    def value_at(self, tau):
        if not self._lines:
            raise ValueError("envelope is empty")
        t = (tau.numerator, tau.denominator)
        a, b, _ = min(self._lines, key=lambda line: _at(line, t))
        return a * tau + b

    def root_piece(self, p0: int, q0: int):
        # A line above zero at t0 comes down to zero after it only if it
        # falls, at -b/a.  That root is kept as a pair (p, q) with q > 0 and
        # compared by cross-multiplication.
        best = None  # (p, q, tag): the first falling line with the smallest root
        for a, b, tag in self._lines:
            if a * p0 + b * q0 <= 0:
                return p0, q0, tag
            if a < 0 and (best is None or b * best[1] < best[0] * -a):
                best = (b, -a, tag)
        if best is None:
            return None
        p, q, tag = best
        g = math.gcd(p, q)
        return p // g, q // g, tag

    def get(self, pos):
        _check_span(pos, pos + 1, len(self._lines))
        return self._lines[pos]

    def lines(self):
        return list(self._lines)
