"""Exact geometric primitives: rational scalars, point sets, matchings, metrics.

Every quantity is exact: an int or a ``fractions.Fraction``.  A point set
read from text holds its points on their integer frame, ints that are
the points times the lcm of their denominators, and the solvers read
that frame as is; its ``points``, and every value a solver returns, are
Fractions.  The solver path never touches floating point: the sweep and
arrangement algorithms compare event coordinates for equality, and
epsilon logic would corrupt their ordering.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

Scalar = Fraction
Point = tuple[Fraction, ...]
Matching = tuple[int, ...]

# ``Fraction`` expands every digit a literal denotes ("1e999999999" would
# run for hours), so literals are bounded; two 4300-digit parts still fit.
_MAX_EXPONENT = 100_000
_MAX_LITERAL = 20_000
# A dimension d orders d numbers for every point and translation, even
# on empty sets; it gets the cap on the work one number may order.
_MAX_DIMENSION = _MAX_EXPONENT
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")
# A plain ASCII integer token of at most 640 digits, the smallest int-to-str
# limit CPython allows, so ``int`` reads it whatever that limit is set to.
_PLAIN_INT = re.compile(r"[-+]?[0-9]{1,640}")


class Metric(Enum):
    L1 = "l1"
    LINF = "linf"

    @classmethod
    def parse(cls, text: str) -> "Metric":
        t = text.strip().lower()
        for m in cls:
            if m.value == t:
                return m
        raise ValueError(f"unknown metric {text!r} (expected 'l1' or 'linf')")


def _check_metric(metric) -> None:
    """Refuse anything but a ``Metric`` member, such as the string "l1".

    Every solver tests only ``metric is Metric.L1`` or ``Metric.LINF`` and
    reads anything else as the other metric, so each checks it first.
    """
    if not isinstance(metric, Metric):
        raise TypeError(f"metric must be a Metric, not {type(metric).__name__}")


class PointFormatError(ValueError):
    """Malformed point-set text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or string ("7", "3/4", "-0.25") to an exact Scalar.

    Floats are rejected: they would smuggle binary rounding into the
    exact pipeline.  So are literals past ``_MAX_LITERAL`` or ``_MAX_EXPONENT``.

    Ints, the common case, are checked first, and ``Fraction``, whose
    ``isinstance`` check walks the numbers ABCs for anything else, last.
    A string that is a plain ASCII integer of at most 640 digits, the
    common input, is read by ``int`` directly, to the value ``Fraction``
    would give at a few times the cost; every other string goes through
    ``Fraction``.
    """
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _PLAIN_INT.fullmatch(value):
            return Fraction(int(value))
        if len(value) > _MAX_LITERAL:
            raise ValueError(f"literal longer than {_MAX_LITERAL} characters")
        exp = _EXPONENT.search(value)
        if exp:
            digits = exp.group(1).replace("_", "").lstrip("0")
            if (len(digits) > len(str(_MAX_EXPONENT))
                    or int(digits or 0) > _MAX_EXPONENT):
                raise ValueError(f"decimal exponent above {_MAX_EXPONENT}: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational literal: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    raise _not_exact(value)


def _not_exact(value) -> TypeError:
    return TypeError(f"cannot build an exact Scalar from {type(value).__name__}")


def point(coords: Iterable) -> Point:
    return tuple(scalar(c) for c in coords)


def _as_int_matrix(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(integer rows, den) with rows == integer rows / den exactly.

    Rows are the coordinates of points or translations; the distances of
    scaled rows are the true distances times ``den``.
    """
    den = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class PointSet:
    """Immutable ordered list of d-dimensional rational points.

    Order is significant: the index of a point is its identity, and
    duplicates are permitted (ties are broken by index downstream).

    A set built from points holds them as given, each coordinate an int
    or a ``Fraction``, and ``frame`` is None: each solve frames it anew,
    so a long-lived set never keeps a second, integer copy.  A set read
    by :func:`parse_point_set` holds only ``frame = (ints, den)``: int
    tuples that are the points times ``den``, the lcm of their
    denominators.  Its ``points``, the Fraction view, is built on first
    use and kept, one tuple per distinct point.  Equality and hashing
    never keep it: two framed sets compare their frames, and otherwise a
    framed set's view is built for the one call.
    """

    __slots__ = ("_dim", "_frame", "_points")
    dim = property(attrgetter("_dim"))
    frame = property(attrgetter("_frame"))

    def __init__(self, dim: int, points: Sequence[Point]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        points = tuple(points)
        if not {*map(len, points)} <= {dim}:
            i, p = next((i, p) for i, p in enumerate(points) if len(p) != dim)
            raise ValueError(f"point {i} has {len(p)} coordinates, expected {dim}")
        if not {*map(type, chain.from_iterable(points))} <= {int, Fraction}:
            for c in chain.from_iterable(points):  # a subclass, such as bool, passes
                if not isinstance(c, (int, Fraction)):
                    raise _not_exact(c)
        self._dim, self._frame, self._points = dim, None, points

    @classmethod
    def _unchecked(cls, dim: int, points: tuple[Point, ...] | None = None, frame=None):
        """The set of ``points``, or on ``frame``, without the checks of
        ``__init__``: for callers whose points are already tuples of ``dim``
        ints or Fractions."""
        ps = cls.__new__(cls)
        ps._dim, ps._frame, ps._points = dim, frame, points
        return ps

    def _view(self) -> tuple[Point, ...]:
        """The points, kept or built from the frame without keeping them."""
        if self._points is not None:
            return self._points
        ints, den = self._frame
        view = {p: tuple(Fraction(x, den) for x in p) for p in dict.fromkeys(ints)}
        return tuple(map(view.__getitem__, ints))

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = self._view()
        return self._points

    def __eq__(self, other):
        # the parser's den is the lcm of the reduced denominators, so two
        # sets that both hold frames are equal exactly when the frames are
        if not isinstance(other, PointSet):
            return False
        if self._frame is not None and other._frame is not None:
            return (self._dim, self._frame) == (other._dim, other._frame)
        return (self._dim, self._view()) == (other._dim, other._view())

    def __hash__(self) -> int:
        return hash((self._dim, self._view()))

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim!r}, points={self.points!r})"

    def __len__(self) -> int:
        return len(self._points if self._frame is None else self._frame[0])

    def __iter__(self):
        return iter(self.points)

    def translate(self, tau: Sequence[Fraction]) -> "PointSet":
        tau = point(tau)  # a float raises TypeError, as in ``scalar``
        if len(tau) != self.dim:
            raise ValueError("translation dimension mismatch")
        return PointSet(
            self.dim, tuple(tuple(c + t for c, t in zip(p, tau)) for p in self.points)
        )


def point_set(dim: int, rows: Iterable[Iterable]) -> PointSet:
    return PointSet(dim, tuple(point(r) for r in rows))


def point_set_1d(values: Iterable) -> PointSet:
    return PointSet._unchecked(1, tuple((scalar(v),) for v in values))


def lp_distance(a: Point, b: Point, metric: Metric) -> Fraction:
    """Exact L1 or Linf distance between two points of equal dimension.

    Both points are coerced as :func:`point` does, so a float raises
    ``TypeError`` and the distance is a ``Fraction`` under either metric.
    """
    _check_metric(metric)
    a, b = point(a), point(b)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if metric is Metric.L1:
        return sum(diffs, Fraction(0))
    return max(diffs, default=Fraction(0))


def validate_matching(phi: Sequence[int], n_blue: int, n_red: int) -> None:
    if len(phi) != n_blue:
        raise ValueError(f"matching has {len(phi)} entries, expected {n_blue}")
    seen = set()
    for j, r in enumerate(phi):
        if not 0 <= r < n_red:
            raise ValueError(f"matching entry {j} -> {r} out of range [0, {n_red})")
        if r in seen:
            raise ValueError(f"matching is not injective: red index {r} repeated")
        seen.add(r)


def matching_cost(
    blue: PointSet,
    red: PointSet,
    metric: Metric,
    phi: Sequence[int],
    tau: Sequence[Fraction],
) -> Fraction:
    """Total length of the matching after translating the blue set by tau."""
    _check_metric(metric)
    if blue.dim != red.dim:
        raise ValueError("blue and red dimension mismatch")
    moved = blue.translate(tau)
    validate_matching(phi, len(blue), len(red))
    return sum((lp_distance(b, red.points[r], metric) for b, r in zip(moved, phi)),
               Fraction(0))


def zero_point(dim: int) -> Point:
    return (Fraction(0),) * dim


def _int_str(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str limit."""
    if n.bit_length() <= 2000:  # below CPython's smallest limit, 640 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits, so hi >= 1
    hi, lo = divmod(abs(n), 10**k)
    return "-" * (n < 0) + _int_str(hi) + _int_str(lo).zfill(k)


def format_scalar(x: Fraction) -> str:
    """Render reduced: "p" when integral, "p/q" otherwise."""
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _numbered_fields(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, fields) of each non-blank line of ``text``.

    Numbers are 1-based and count the blank lines too; fields are split
    on whitespace, so CRLF line ends and tabs read as plain ones.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if fields:
            yield line_no, line, fields


def parse_point_set(text: str) -> PointSet:
    """Parse the point-set text format onto its integer frame.

    Line 1 is the dimension d, at most ``_MAX_DIMENSION``; each subsequent
    non-empty line holds d whitespace-separated numbers (integer, fraction
    "p/q", or finite decimal).  A line is read by ``int`` when it takes
    every field, to the value :func:`scalar` would give; any other line
    is read by :func:`scalar`, and makes the frame's ``den`` the lcm of
    the denominators of such lines, by which every point is then scaled.
    CRLF is accepted.  Errors carry the 1-based line number, so a bad line
    that recurs fails at its first copy.  A point line whose text repeats
    an earlier point line is read as that line's point, the same tuple:
    generated instances repeat each coordinate several times.  The key
    is the text, a str, which the garbage collector does not track.
    """
    dim = None
    rows: list[tuple] = []
    seen: dict[str, tuple] = {}
    exact = True  # every line so far read by ``int``
    for idx, line, fields in _numbered_fields(text):
        if dim is None:
            try:
                (dim,) = map(int, fields)
            except ValueError:
                raise PointFormatError(
                    idx, f"expected integer dimension, got {line.strip()!r}")
            if not 1 <= dim <= _MAX_DIMENSION:
                raise PointFormatError(
                    idx, f"dimension must be in [1, {_MAX_DIMENSION}], got {fields[0]}")
            continue
        p = seen.get(line)
        if p is None:
            if len(fields) != dim:
                raise PointFormatError(
                    idx, f"expected {dim} coordinates, got {len(fields)}"
                )
            try:
                p = tuple(map(int, fields))
            except ValueError:
                try:
                    p = tuple(map(scalar, fields))
                except ValueError as exc:
                    raise PointFormatError(idx, str(exc)) from None
                exact = False
            seen[line] = p
        rows.append(p)
    if dim is None:
        raise PointFormatError(1, "empty input: missing dimension line")
    ints, den = tuple(rows), 1
    if not exact:  # every distinct line onto one frame, shared as before
        distinct = list(seen.values())
        scaled, den = _as_int_matrix(distinct)
        frame = dict(zip(map(id, distinct), map(tuple, scaled)))
        ints = tuple(frame[id(p)] for p in rows)
    return PointSet._unchecked(dim, frame=(ints, den))


def serialize_point_set(ps: PointSet) -> str:
    out = [str(ps.dim)]
    for p in ps.points:
        out.append(" ".join(map(format_scalar, p)))
    return "\n".join(out) + "\n"
