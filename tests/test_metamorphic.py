"""Oracle-free checks at sizes no oracle reaches.

Brute force stops at |R| = 8 and the alignment oracle at |B|*|R| = 10^4,
so past those sizes the solvers are held to exact relations that follow
from the definition of EMD under translation alone: a translation of R
moves the optimum with it, a common scale multiplies it, point order is
irrelevant, a reflection keeps the value, more reds or fewer blues never
cost more, and the axes of the plane are interchangeable.  Every seed is
fixed.
"""

import functools
import random
from fractions import Fraction as F

import pytest

from emdut.core import Metric, PointSet, point_set, point_set_1d
from emdut.emdut_hd import emdut_hd
from emdut.sweep1d import emdut_1d_sweep

# (seed, |B|, |R|, coordinate range): random rationals, the last pair with
# heavy duplicates, so runs of equal coordinates move and merge
_1D_CASES = [(1, 100, 200, 10**4), (2, 160, 330, 10**5), (3, 240, 480, 60)]


@functools.lru_cache(maxsize=None)
def _pair_1d(case):
    seed, m, n, hi = case
    rng = random.Random(seed)
    return tuple(point_set_1d([F(rng.randint(-hi, hi), rng.choice((1, 1, 2, 3)))
                               for _ in range(size)])
                 for size in (m, n))


@functools.lru_cache(maxsize=None)
def _solved_1d(case):
    return emdut_1d_sweep(*_pair_1d(case))


def _map(ps: PointSet, f) -> PointSet:
    return PointSet(ps.dim, tuple(f(p) for p in ps.points))


@pytest.mark.parametrize("case", _1D_CASES)
def test_shifting_the_reds_moves_tau_by_exactly_the_shift(case):
    B, R = _pair_1d(case)
    value, tau, _ = _solved_1d(case)
    s = F(-7, 3)
    assert emdut_1d_sweep(B, R.translate((s,)))[:2] == (value, tau + s)


@pytest.mark.parametrize("case", _1D_CASES)
def test_scaling_both_sets_scales_value_and_tau(case):
    B, R = _pair_1d(case)
    value, tau, _ = _solved_1d(case)
    c = 3
    scaled = [_map(ps, lambda p: (c * p[0],)) for ps in (B, R)]
    assert emdut_1d_sweep(*scaled)[:2] == (c * value, c * tau)


@pytest.mark.parametrize("case", _1D_CASES)
def test_permuting_the_reds_keeps_value_and_tau(case):
    B, R = _pair_1d(case)
    value, tau, _ = _solved_1d(case)
    reds = list(R.points)
    random.Random(case[0]).shuffle(reds)
    assert emdut_1d_sweep(B, PointSet(1, tuple(reds)))[:2] == (value, tau)


@pytest.mark.parametrize("case", _1D_CASES)
def test_negating_both_sets_keeps_the_value(case):
    # tau maps to the negated largest optimum, so only the value is compared
    B, R = _pair_1d(case)
    negated = [_map(ps, lambda p: (-p[0],)) for ps in (B, R)]
    assert emdut_1d_sweep(*negated)[0] == _solved_1d(case)[0]


@pytest.mark.parametrize("case", _1D_CASES)
def test_a_red_more_or_a_blue_less_never_costs_more(case):
    B, R = _pair_1d(case)
    value = _solved_1d(case)[0]
    rng = random.Random(case[0])
    extra = point_set_1d([rng.randint(-case[3], case[3])])
    assert emdut_1d_sweep(B, PointSet(1, R.points + extra.points))[0] <= value
    i = rng.randrange(len(B))
    assert emdut_1d_sweep(PointSet(1, B.points[:i] + B.points[i + 1:]), R)[0] <= value


# planar 8 x 16 pairs, one spread out and one with many repeated points
_PLANAR_CASES = [(4, 100), (5, 3)]


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("seed, hi", _PLANAR_CASES)
def test_swapping_or_negating_axes_keeps_the_value(seed, hi, metric):
    rng = random.Random(seed)
    B, R = (point_set(2, [(rng.randint(-hi, hi), rng.randint(-hi, hi)) for _ in range(size)])
            for size in (8, 16))
    value = emdut_hd(B, R, metric)[0]
    for f in (lambda p: (p[1], p[0]), lambda p: (-p[0], p[1]), lambda p: (-p[1], -p[0])):
        assert emdut_hd(_map(B, f), _map(R, f), metric)[0] == value


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_in_one_dimension_l1_equals_linf_and_the_sweep(seed):
    # emdut_hd returns the lexicographically smallest witness, the sweep a
    # monotone one, so only value and tau are compared with the sweep
    rng = random.Random(seed)
    B, R = (point_set_1d([F(rng.randint(-40, 40), rng.choice((1, 2))) for _ in range(size)])
            for size in (20, 40))
    l1 = emdut_hd(B, R, Metric.L1, return_stats=True)
    assert emdut_hd(B, R, Metric.LINF, return_stats=True) == l1
    value, tau, _ = emdut_1d_sweep(B, R)
    assert l1[:2] == (value, (tau,))
