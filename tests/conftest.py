"""Shared helpers: instance generators and independent brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from emdut.core import PointSet, point_set, point_set_1d


def rand_ints_1d(rng: random.Random, n: int, lo: int = -20, hi: int = 20) -> PointSet:
    return point_set_1d([rng.randint(lo, hi) for _ in range(n)])


def rand_points(rng: random.Random, n: int, dim: int, lo: int = -6, hi: int = 6) -> PointSet:
    return point_set(dim, [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(n)])


def huge_lcm_points(rng: random.Random, n: int, dim: int) -> PointSet:
    """Coordinates near 10**30 over the primes 10**9+7 and 998244353."""
    return point_set(dim, [
        [10**30 + Fraction(rng.randint(-6 * 10**9, 6 * 10**9),
                           rng.choice((10**9 + 7, 998244353)))
         for _ in range(dim)]
        for _ in range(n)
    ])


def brute_force_1d_translated(blue: PointSet, red: PointSet) -> Fraction:
    """Minimum over all monotone matchings and all pair-aligning translations.

    Monotone matchings on sorted orders are exactly the size-|B| red
    subsets, and some optimal translation aligns at least one pair, so
    this enumeration is a complete oracle.
    """
    bs = sorted(p[0] for p in blue.points)
    rs = sorted(p[0] for p in red.points)
    m, n = len(bs), len(rs)
    if m == 0:
        return Fraction(0)
    # Enumerate on integers scaled by the common denominator; exact, and
    # far cheaper than Fraction arithmetic in the innermost loop.
    den = math.lcm(*(x.denominator for x in bs + rs))
    bs = [int(x * den) for x in bs]
    rs = [int(x * den) for x in rs]
    best = None
    taus = {r - b for b in bs for r in rs}
    for tau in taus:
        shifted = [b + tau for b in bs]
        for cols in itertools.combinations(range(n), m):
            cost = sum(abs(shifted[i] - rs[cols[i]]) for i in range(m))
            if best is None or cost < best:
                best = cost
    return Fraction(best, den)
