"""Exact geometric primitives: rational scalars, point sets, matchings, metrics.

Every quantity is a ``fractions.Fraction``, so all arithmetic and every
comparison is exact.  The solver path never touches floating point:
the sweep and arrangement algorithms compare event coordinates for
equality, and epsilon logic would corrupt their ordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

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


class PointFormatError(ValueError):
    """Malformed point-set text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or string ("7", "3/4", "-0.25") to an exact Scalar.

    Floats are rejected: they would smuggle binary rounding into the
    exact pipeline.  So are literals past ``_MAX_LITERAL`` or ``_MAX_EXPONENT``.
    """
    if isinstance(value, str):
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
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact Scalar from {type(value).__name__}")


def point(coords: Iterable) -> Point:
    return tuple(scalar(c) for c in coords)


@dataclass(frozen=True)
class PointSet:
    """Immutable ordered list of d-dimensional rational points.

    Order is significant: the index of a point is its identity, and
    duplicates are permitted (ties are broken by index downstream).
    """

    dim: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        for i, p in enumerate(self.points):
            if len(p) != self.dim:
                raise ValueError(
                    f"point {i} has {len(p)} coordinates, expected {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.points)

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
    return PointSet(1, tuple((scalar(v),) for v in values))


def lp_distance(a: Point, b: Point, metric: Metric) -> Fraction:
    """Exact L1 or Linf distance between two points of equal dimension."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if metric is Metric.L1:
        return sum(diffs, Fraction(0))
    return max(diffs) if diffs else Fraction(0)


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
    if blue.dim != red.dim:
        raise ValueError("blue and red dimension mismatch")
    if len(tau) != blue.dim:
        raise ValueError("translation dimension mismatch")
    validate_matching(phi, len(blue), len(red))
    total = Fraction(0)
    for b, r in zip(blue.points, phi):
        shifted = tuple(c + t for c, t in zip(b, tau))
        total += lp_distance(shifted, red.points[r], metric)
    return total


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


def parse_point_set(text: str) -> PointSet:
    """Parse the point-set text format.

    Line 1 is the dimension d, at most ``_MAX_DIMENSION``; each subsequent
    non-empty line holds d whitespace-separated numbers (integer, fraction
    "p/q", or finite decimal).  CRLF is accepted.  Errors carry the
    1-based line number.
    """
    lines = text.split("\n")
    dim = None
    rows: list[Point] = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if dim is None:
            try:
                dim = int(line)
            except ValueError:
                raise PointFormatError(idx, f"expected integer dimension, got {line!r}")
            if not 1 <= dim <= _MAX_DIMENSION:
                raise PointFormatError(
                    idx, f"dimension must be in [1, {_MAX_DIMENSION}], got {line}")
            continue
        fields = line.split()
        if len(fields) != dim:
            raise PointFormatError(
                idx, f"expected {dim} coordinates, got {len(fields)}"
            )
        try:
            rows.append(tuple(scalar(f) for f in fields))
        except ValueError as exc:
            raise PointFormatError(idx, str(exc)) from None
    if dim is None:
        raise PointFormatError(1, "empty input: missing dimension line")
    return PointSet(dim, tuple(rows))


def serialize_point_set(ps: PointSet) -> str:
    out = [str(ps.dim)]
    for p in ps.points:
        out.append(" ".join(format_scalar(c) for c in p))
    return "\n".join(out) + "\n"
