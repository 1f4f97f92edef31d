"""Lower envelopes of slope-ordered lines with positional updates.

Holds a sequence of lines ``L[0..k-1]`` whose slopes are non-decreasing
with position, and answers queries about ``g(tau) = min_i L[i](tau)``:

* ``value_at(tau)``    -- exact value of g,
* ``first_root(t0)``   -- smallest tau >= t0 with g(tau) <= 0,
* ``root_piece(t0)``   -- that root together with the tag of a line
  reaching zero there,

while supporting insertion/removal of single lines and adding a linear
function to a contiguous range of positions.

Two interchangeable implementations share that interface:

* :class:`NaiveEnvelope` keeps a plain list; every query is O(k).  It is
  the correctness anchor everything else is tested against.
* :class:`TreeEnvelope` is a balanced tree (randomized, deterministic
  seed) whose nodes carry a lazy linear offset for their whole subtree
  plus a persistent summary of the subtree's lower envelope.  Summaries
  of siblings survive being combined into the parent because they are
  path-copied, never mutated, so updates cost polylogarithmic time
  instead of a rebuild.

Lines are ``(slope, intercept, tag)`` triples; the tag is an opaque
payload (the sweep stores blue-point ids there) and plays no part in the
geometry.  Callers keep the slope order; the backends do not check it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

_NODE_ALLOCS = 0  # instrumentation for the complexity smoke test


def node_allocations() -> int:
    return _NODE_ALLOCS


def _isect(l1, l2) -> Fraction:
    # tau where the two lines meet; slopes must differ
    return Fraction(l2[1] - l1[1], l1[0] - l2[0])


# ---------------------------------------------------------------------------
# persistent envelope summaries
# ---------------------------------------------------------------------------
#
# An _E tree stores the lines of one lower envelope in sweep order
# (slopes strictly decreasing).  A node's (fa, fb) offset applies to its
# own line, its first/last caches, and its whole subtree.  Nodes are
# immutable; structural operations path-copy.


class _E:
    __slots__ = ("prio", "left", "right", "size", "a", "b", "tag", "fa", "fb",
                 "first", "last")

    def __init__(self, prio, left, right, a, b, tag, fa, fb):
        global _NODE_ALLOCS
        _NODE_ALLOCS += 1
        self.prio = prio
        self.left = left
        self.right = right
        self.a = a
        self.b = b
        self.tag = tag
        self.fa = fa
        self.fb = fb
        self.size = 1 + (left.size if left else 0) + (right.size if right else 0)
        if left:
            self.first = (left.first[0] + left.fa, left.first[1] + left.fb,
                          left.first[2])
        else:
            self.first = (a, b, tag)
        if right:
            self.last = (right.last[0] + right.fa, right.last[1] + right.fb,
                         right.last[2])
        else:
            self.last = (a, b, tag)


def _e_leaf(prio, a, b, tag):
    return _E(prio, None, None, a, b, tag, 0, 0)


def _e_shift(n: Optional[_E], da, db) -> Optional[_E]:
    if n is None or (da == 0 and db == 0):
        return n
    out = _E(n.prio, n.left, n.right, n.a, n.b, n.tag, n.fa + da, n.fb + db)
    return out


def _e_force(n: _E) -> _E:
    """Copy with the pending offset folded into the node and pushed down."""
    if n.fa == 0 and n.fb == 0:
        return n
    return _E(n.prio, _e_shift(n.left, n.fa, n.fb), _e_shift(n.right, n.fa, n.fb),
              n.a + n.fa, n.b + n.fb, n.tag, 0, 0)


def _e_concat(l: Optional[_E], r: Optional[_E]) -> Optional[_E]:
    if l is None:
        return r
    if r is None:
        return l
    if l.prio > r.prio:
        l = _e_force(l)
        return _E(l.prio, l.left, _e_concat(l.right, r), l.a, l.b, l.tag, 0, 0)
    r = _e_force(r)
    return _E(r.prio, _e_concat(l, r.left), r.right, r.a, r.b, r.tag, 0, 0)


def _true_last(n: _E):
    return (n.last[0] + n.fa, n.last[1] + n.fb, n.last[2])


def _true_first(n: _E):
    return (n.first[0] + n.fa, n.first[1] + n.fb, n.first[2])


def _e_split_start_lt(n: Optional[_E], t, pred):
    """Split into (pieces whose interval starts before t, the rest).

    ``pred`` is the true line preceding this subtree, or None at the
    envelope's left end (that piece starts at -infinity).
    """
    if n is None:
        return None, None
    n = _e_force(n)
    own = (n.a, n.b, n.tag)
    own_pred = _true_last(n.left) if n.left else pred
    starts_before = own_pred is None or _isect(own_pred, own) < t
    if starts_before:
        ra, rb = _e_split_start_lt(n.right, t, own)
        return _E(n.prio, n.left, ra, n.a, n.b, n.tag, 0, 0), rb
    la, lb = _e_split_start_lt(n.left, t, pred)
    return la, _E(n.prio, lb, n.right, n.a, n.b, n.tag, 0, 0)


def _e_split_end_gt(n: Optional[_E], t, succ):
    """Split into (pieces whose interval ends at or before t, the rest)."""
    if n is None:
        return None, None
    n = _e_force(n)
    own = (n.a, n.b, n.tag)
    own_succ = _true_first(n.right) if n.right else succ
    ends_after = own_succ is None or _isect(own, own_succ) > t
    if ends_after:
        la, lb = _e_split_end_gt(n.left, t, own)
        return la, _E(n.prio, lb, n.right, n.a, n.b, n.tag, 0, 0)
    ra, rb = _e_split_end_gt(n.right, t, succ)
    return _E(n.prio, n.left, ra, n.a, n.b, n.tag, 0, 0), rb


def _e_drop_last(n: _E) -> Optional[_E]:
    n = _e_force(n)
    if n.right is None:
        return n.left
    return _E(n.prio, n.left, _e_drop_last(n.right), n.a, n.b, n.tag, 0, 0)


def _e_value(n: _E, tau) -> Fraction:
    acc_a = acc_b = 0
    while True:
        acc_a += n.fa
        acc_b += n.fb
        own = (n.a + acc_a, n.b + acc_b)
        if n.left is not None:
            ll = n.left.last
            boundary = _isect((ll[0] + n.left.fa + acc_a, ll[1] + n.left.fb + acc_b),
                              own)
            if tau < boundary:
                n = n.left
                continue
        if n.right is not None:
            rf = n.right.first
            boundary = _isect(own, (rf[0] + n.right.fa + acc_a,
                                    rf[1] + n.right.fb + acc_b))
            if tau >= boundary:
                n = n.right
                continue
        return own[0] * tau + own[1]


def _e_walk_flip(root: _E, h_of):
    """Locate the envelope piece on which a non-increasing h crosses 0.

    ``h_of(line, tau)`` evaluates h at tau given the true line active
    there.  The caller guarantees h > 0 towards -infinity and h <= 0
    towards +infinity, so a flip piece exists.  Returns the true line.
    """
    node = root
    acc_a = acc_b = 0
    pred = succ = None
    while True:
        acc_a += node.fa
        acc_b += node.fb
        own = (node.a + acc_a, node.b + acc_b, node.tag)
        left, right = node.left, node.right
        pl = (left.last[0] + left.fa + acc_a, left.last[1] + left.fb + acc_b) \
            if left else pred
        su = (right.first[0] + right.fa + acc_a, right.first[1] + right.fb + acc_b) \
            if right else succ
        if pl is not None:
            s = _isect(pl, own)
            if h_of(own, s) <= 0:
                node = left  # flip lies strictly left of this piece
                succ = own
                continue
        if su is not None:
            e = _isect(own, su)
            if h_of(own, e) > 0:
                node = right
                pred = own
                continue
        return own


def _e_lines(n: Optional[_E], acc_a=0, acc_b=0, out=None):
    if out is None:
        out = []
    if n is None:
        return out
    acc_a += n.fa
    acc_b += n.fb
    _e_lines(n.left, acc_a, acc_b, out)
    out.append((n.a + acc_a, n.b + acc_b, n.tag))
    _e_lines(n.right, acc_a, acc_b, out)
    return out


def _e_merge(ea: Optional[_E], eb: Optional[_E]) -> Optional[_E]:
    """Envelope of the union, where every slope in ea <= every slope in eb.

    In sweep order eb's pieces come first.  h(tau) = ea(tau) - eb(tau) is
    non-increasing, so eb is the envelope before the unique crossing and
    ea after it.
    """
    if ea is None:
        return eb
    if eb is None:
        return ea
    a_first, b_first = _true_first(ea), _true_first(eb)
    # sign of h towards -infinity
    d = a_first[0] - b_first[0]
    if d > 0:  # pragma: no cover - violates the slope-separation contract
        raise AssertionError("slope separation violated")
    if d == 0 and a_first[1] - b_first[1] <= 0:
        return ea  # eb never goes strictly below ea
    a_last, b_last = _true_last(ea), _true_last(eb)
    d = a_last[0] - b_last[0]
    if d == 0 and a_last[1] - b_last[1] > 0:
        return eb  # ea never reaches eb
    # finite crossing: find the active pieces on both sides, then solve
    line_b = _e_walk_flip(eb, lambda own, t: _e_value(ea, t) - (own[0] * t + own[1]))
    line_a = _e_walk_flip(ea, lambda own, t: (own[0] * t + own[1])
                          - (line_b[0] * t + line_b[1]))
    t_cross = _isect(line_a, line_b)
    keep_b, _ = _e_split_start_lt(eb, t_cross, None)
    _, keep_a = _e_split_end_gt(ea, t_cross, None)
    if keep_b is not None and keep_a is not None:
        if _true_last(keep_b)[0] == _true_first(keep_a)[0]:
            keep_b = _e_drop_last(keep_b)  # identical seam lines; keep one
    return _e_concat(keep_b, keep_a)


# ---------------------------------------------------------------------------
# main positional tree
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("prio", "left", "right", "size", "a", "b", "tag", "fa", "fb",
                 "env")

    def __init__(self, prio, a, b, tag, env):
        global _NODE_ALLOCS
        _NODE_ALLOCS += 1
        self.prio = prio
        self.left = None
        self.right = None
        self.size = 1
        self.a = a
        self.b = b
        self.tag = tag
        self.fa = 0
        self.fb = 0
        self.env = env


def _size(n: Optional[_Node]) -> int:
    return n.size if n else 0


class TreeEnvelope:
    """Balanced tree with lazy linear offsets and persistent envelope summaries."""

    def __init__(self, lines=(), seed: int = 0x5EED):
        self._rng = random.Random(seed)
        self._root: Optional[_Node] = None
        for i, line in enumerate(lines):
            self.insert(i, line[0], line[1], line[2] if len(line) > 2 else None)

    # -- internals ---------------------------------------------------------

    def _push(self, n: _Node) -> None:
        if n.fa or n.fb:
            n.a += n.fa
            n.b += n.fb
            n.env = _e_shift(n.env, n.fa, n.fb)
            for c in (n.left, n.right):
                if c is not None:
                    c.fa += n.fa
                    c.fb += n.fb
            n.fa = 0
            n.fb = 0

    def _rebuild(self, n: _Node) -> None:
        n.size = 1 + _size(n.left) + _size(n.right)
        left_env = _e_shift(n.left.env, n.left.fa, n.left.fb) if n.left else None
        right_env = _e_shift(n.right.env, n.right.fa, n.right.fb) if n.right else None
        own = _e_leaf(self._rng.getrandbits(60), n.a, n.b, n.tag)
        n.env = _e_merge(_e_merge(left_env, own), right_env)

    def _split(self, n: Optional[_Node], k: int):
        if n is None:
            return None, None
        self._push(n)
        if _size(n.left) >= k:
            a, b = self._split(n.left, k)
            n.left = b
            self._rebuild(n)
            return a, n
        a, b = self._split(n.right, k - _size(n.left) - 1)
        n.right = a
        self._rebuild(n)
        return n, b

    def _join(self, l: Optional[_Node], r: Optional[_Node]):
        if l is None:
            return r
        if r is None:
            return l
        if l.prio > r.prio:
            self._push(l)
            l.right = self._join(l.right, r)
            self._rebuild(l)
            return l
        self._push(r)
        r.left = self._join(l, r.left)
        self._rebuild(r)
        return r

    # -- mutations ----------------------------------------------------------

    def insert(self, pos: int, a, b, tag=None) -> None:
        node = _Node(self._rng.getrandbits(60), a, b, tag,
                     _e_leaf(self._rng.getrandbits(60), a, b, tag))
        l, r = self._split(self._root, pos)
        self._root = self._join(self._join(l, node), r)

    def remove(self, pos: int):
        l, mid = self._split(self._root, pos)
        node, r = self._split(mid, 1)
        self._root = self._join(l, r)
        return node.a, node.b, node.tag

    def add_range(self, lo: int, hi: int, da, db) -> None:
        """Add da*tau + db to every line at positions [lo, hi)."""
        if lo >= hi:
            return
        l, mid = self._split(self._root, lo)
        m, r = self._split(mid, hi - lo)
        m.fa += da
        m.fb += db
        self._root = self._join(self._join(l, m), r)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return _size(self._root)

    def _env(self) -> Optional[_E]:
        if self._root is None:
            return None
        return _e_shift(self._root.env, self._root.fa, self._root.fb)

    def value_at(self, tau) -> Fraction:
        env = self._env()
        if env is None:
            raise ValueError("envelope is empty")
        return _e_value(env, tau)

    def first_root(self, tau0) -> Optional[Fraction]:
        got = self.root_piece(tau0)
        return got[0] if got else None

    def root_piece(self, tau0):
        """First tau >= tau0 with g(tau) <= 0, plus the tag of a line
        that is non-positive there; None when no such tau exists."""
        env = self._env()
        if env is None:
            return None
        if _e_value(env, tau0) <= 0:
            line = self._piece_at(env, tau0)
            return tau0, line[2]
        return self._falling_crossing(env, tau0)

    @staticmethod
    def _falling_crossing(env: _E, tau0):
        # g(tau0) > 0 and g is concave, so {g <= 0} meets [tau0, inf) in a
        # ray [B, inf) (possibly empty); descend to the piece containing B.
        # Boundaries at or left of tau0 are treated as positive: they lie
        # strictly left of B and must not steer the descent.
        node = env
        acc_a = acc_b = 0
        pred = succ = None
        while True:
            acc_a += node.fa
            acc_b += node.fb
            own = (node.a + acc_a, node.b + acc_b, node.tag)
            left, right = node.left, node.right
            pl = (left.last[0] + left.fa + acc_a, left.last[1] + left.fb + acc_b) \
                if left else pred
            su = (right.first[0] + right.fa + acc_a,
                  right.first[1] + right.fb + acc_b) if right else succ
            if pl is not None:
                s = _isect(pl, own)
                if s > tau0 and own[0] * s + own[1] <= 0:
                    node = left
                    succ = own
                    continue
            else:
                s = None
            if su is not None:
                e = _isect(own, su)
                if e <= tau0 or own[0] * e + own[1] > 0:
                    node = right
                    pred = own
                    continue
            else:
                if own[0] > 0 or (own[0] == 0 and own[1] > 0):
                    return None  # final piece never comes back down to 0
            if own[0] == 0:
                # constant non-positive piece; the crossing is its left edge
                return s, own[2]
            return Fraction(-own[1], own[0]), own[2]

    @staticmethod
    def _piece_at(n: _E, tau):
        acc_a = acc_b = 0
        while True:
            acc_a += n.fa
            acc_b += n.fb
            own = (n.a + acc_a, n.b + acc_b, n.tag)
            if n.left is not None:
                ll = n.left.last
                if tau < _isect((ll[0] + n.left.fa + acc_a,
                                 ll[1] + n.left.fb + acc_b), own):
                    n = n.left
                    continue
            if n.right is not None:
                rf = n.right.first
                if tau >= _isect(own, (rf[0] + n.right.fa + acc_a,
                                       rf[1] + n.right.fb + acc_b)):
                    n = n.right
                    continue
            return own

    def get(self, pos: int):
        n = self._root
        if not 0 <= pos < _size(n):
            raise IndexError(pos)
        acc_a = acc_b = 0
        while True:
            acc_a += n.fa
            acc_b += n.fb
            if _size(n.left) > pos:
                n = n.left
            elif _size(n.left) == pos:
                return n.a + acc_a, n.b + acc_b, n.tag
            else:
                pos -= _size(n.left) + 1
                n = n.right

    def lines(self) -> list:
        out = []

        def rec(n, fa, fb):
            if n is None:
                return
            fa += n.fa
            fb += n.fb
            rec(n.left, fa, fb)
            out.append((n.a + fa, n.b + fb, n.tag))
            rec(n.right, fa, fb)

        rec(self._root, 0, 0)
        return out


class NaiveEnvelope:
    """Plain-list reference: every query recomputes from the line list."""

    def __init__(self, lines=(), seed: int = 0):
        self._lines = [(l[0], l[1], l[2] if len(l) > 2 else None) for l in lines]

    def insert(self, pos, a, b, tag=None):
        self._lines.insert(pos, (a, b, tag))

    def remove(self, pos):
        return self._lines.pop(pos)

    def add_range(self, lo, hi, da, db):
        for i in range(lo, hi):
            a, b, tag = self._lines[i]
            self._lines[i] = (a + da, b + db, tag)

    def __len__(self):
        return len(self._lines)

    def value_at(self, tau) -> Fraction:
        if not self._lines:
            raise ValueError("envelope is empty")
        return min(a * tau + b for a, b, _ in self._lines)

    def first_root(self, tau0) -> Optional[Fraction]:
        got = self._root_region(tau0)
        return got[0] if got else None

    def root_piece(self, tau0):
        return self._root_region(tau0)

    def _root_region(self, tau0):
        # {g <= 0} is a union of per-line rays; find its first point >= tau0
        if not self._lines:
            return None
        left_end = None   # sup of the (-inf, .] ray
        right_start = None  # inf of the [., +inf) ray
        for a, b, tag in self._lines:
            if a == 0:
                if b <= 0:
                    return tau0, tag
            elif a > 0:
                r = Fraction(-b, a)
                if left_end is None or r > left_end[0]:
                    left_end = (r, tag)
            else:
                r = Fraction(-b, a)
                if right_start is None or r < right_start[0]:
                    right_start = (r, tag)
        if left_end is not None and tau0 <= left_end[0]:
            return tau0, left_end[1]
        if right_start is not None:
            return max(tau0, right_start[0]), right_start[1]
        return None

    def get(self, pos):
        return self._lines[pos]

    def lines(self):
        return list(self._lines)
