import itertools
import random
from fractions import Fraction

import pytest

from emdut.core import Metric, lp_distance, point_set, point_set_1d
from emdut.emd import (
    _dual_bound,
    _min_cost_assignment,
    emd_1d_monotone,
    emd_bruteforce,
    emd_hungarian,
)
from emdut.emdut_hd import (
    candidate_translations,
    emd_value_at,
    emdut_hd,
    hyperplanes_linf,
)
from emdut.sweep1d import emdut_1d_alignment_oracle, emdut_1d_sweep, emdut_1d_symmetric

from conftest import huge_lcm_points, rand_ints_1d, rand_points


def test_monotone_examples():
    assert emd_1d_monotone(point_set_1d([]), point_set_1d([1, 2])) == (0, ())
    value, phi = emd_1d_monotone(point_set_1d([1]), point_set_1d([0, 5]))
    assert (value, phi) == (1, (0,))
    value, phi = emd_1d_monotone(point_set_1d([0, 3]), point_set_1d([1, 2, 10]))
    assert value == 2  # enumerating all 6 injections gives min |0-1|+|3-2|
    assert phi == (0, 1)


def test_monotone_rejects_oversized_blue():
    with pytest.raises(ValueError):
        emd_1d_monotone(point_set_1d([1, 2]), point_set_1d([0]))


def test_monotone_witness_is_increasing_on_sorted_inputs():
    rng = random.Random(10)
    for _ in range(100):
        m = rng.randint(1, 6)
        n = rng.randint(m, 8)
        B = point_set_1d(sorted(rng.randint(-20, 20) for _ in range(m)))
        R = point_set_1d(sorted(rng.randint(-20, 20) for _ in range(n)))
        value, phi = emd_1d_monotone(B, R)
        assert list(phi) == sorted(phi)
        assert value == emd_bruteforce(B, R, Metric.L1)
    # unsorted inputs, duplicates and coprime denominators: the witness is
    # the lexicographically smallest optimal monotone matching of the
    # stably sorted sets, found here over all sorted red subsets
    for case in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(m, 8)
        if case % 3 == 0:
            draw = lambda: Fraction(rng.randint(0, 4))
        elif case % 3 == 1:
            draw = lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7)))
        else:
            draw = lambda: Fraction(rng.randint(0, 6), rng.choice((1, 3)))
        bx = [draw() for _ in range(m)]
        rx = [draw() for _ in range(n)]
        border = sorted(range(m), key=lambda i: (bx[i], i))
        rorder = sorted(range(n), key=lambda j: (rx[j], j))
        best = want = None
        for cols in itertools.combinations(range(n), m):
            cost = sum(abs(bx[border[i]] - rx[rorder[c]]) for i, c in enumerate(cols))
            if best is None or cost < best:
                best, want = cost, cols
        expected = [0] * m
        for i, c in enumerate(want):
            expected[border[i]] = rorder[c]
        assert emd_1d_monotone(point_set_1d(bx), point_set_1d(rx)) == (best, tuple(expected))


def test_bruteforce_examples():
    assert emd_bruteforce(point_set_1d([0]), point_set_1d([7]), Metric.L1) == 7
    assert emd_bruteforce(point_set_1d([0, 1]), point_set_1d([0, 1]), Metric.L1) == 0
    assert emd_bruteforce(point_set_1d([0, 4]), point_set_1d([1, 2]), Metric.L1) == 3


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        emd_bruteforce(point_set_1d([0]), point_set_1d(range(9)), Metric.L1)


def test_hungarian_identity_on_equal_sets():
    ps = point_set(2, [(0, 0), (3, 1), (-2, 5)])
    value, phi = emd_hungarian(ps, ps, Metric.L1)
    assert value == 0
    assert phi == (0, 1, 2)


def test_hungarian_tie_case_value_from_bruteforce():
    # both injections cost 4; the witness is the lexicographically smallest
    B = point_set(2, [(0, 0), (2, 0)])
    R = point_set(2, [(0, 0), (0, 2)])
    assert emd_bruteforce(B, R, Metric.L1) == 4
    value, phi = emd_hungarian(B, R, Metric.L1)
    assert value == 4
    assert phi == (0, 1)


def test_hungarian_lexicographic_witness():
    value, phi = emd_hungarian(point_set_1d([0]), point_set_1d([-1, 1]), Metric.L1)
    assert value == 1
    assert phi == (0,)


def test_hungarian_matches_bruteforce():
    rng = random.Random(11)
    for case in range(130):
        dim = rng.randint(1, 3)
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        if case < 120:
            B, R = rand_points(rng, m, dim), rand_points(rng, n, dim)
        else:  # denominators 10^9+7 and 998244353, coordinates near 10^30
            B, R = huge_lcm_points(rng, m, dim), huge_lcm_points(rng, n, dim)
        for metric in (Metric.L1, Metric.LINF):
            value, phi = emd_hungarian(B, R, metric)
            assert value == emd_bruteforce(B, R, metric)
            assert len(set(phi)) == m
            cost = sum(
                sum(abs(x - y) for x, y in zip(B.points[i], R.points[phi[i]]))
                if metric is Metric.L1
                else max(abs(x - y) for x, y in zip(B.points[i], R.points[phi[i]]))
                for i in range(m)
            )
            assert cost == value


def test_hungarian_agrees_with_monotone_dp_in_1d():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randint(0, 7)
        n = rng.randint(max(m, 1), 9)
        B = rand_ints_1d(rng, m)
        R = rand_ints_1d(rng, n)
        assert emd_hungarian(B, R, Metric.L1)[0] == emd_1d_monotone(B, R)[0]


def test_emd_symmetric_in_roles_when_sizes_match():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        dim = rng.randint(1, 2)
        B = rand_points(rng, n, dim)
        R = rand_points(rng, n, dim)
        for metric in (Metric.L1, Metric.LINF):
            assert emd_hungarian(B, R, metric)[0] == emd_hungarian(R, B, metric)[0]


def test_hungarian_pads_small_blue_sets():
    # unmatched reds cost nothing, as with zero-cost dummy rows
    B = point_set_1d([10])
    R = point_set_1d([0, 10, 50])
    value, phi = emd_hungarian(B, R, Metric.L1)
    assert value == 0
    assert phi == (1,)
    with pytest.raises(ValueError):
        emd_hungarian(R, B, Metric.L1)


def _tie_heavy_points(rng, n, dim):
    # coordinates in {-1, 0, 1}, some divided by 2 or 3
    return point_set(dim, [
        [Fraction(rng.choice((-1, 0, 1)), rng.choice((1, 1, 2, 3))) for _ in range(dim)]
        for _ in range(n)
    ])


def test_hungarian_witness_is_first_optimal_permutation():
    rng = random.Random(14)
    for _ in range(150):
        dim = rng.randint(1, 3)
        m = rng.randint(1, 5)
        n = rng.randint(m, 7)
        B = _tie_heavy_points(rng, m, dim)
        R = _tie_heavy_points(rng, n, dim)
        for metric in (Metric.L1, Metric.LINF):
            best = emd_bruteforce(B, R, metric)
            first = next(
                perm for perm in itertools.permutations(range(n), m)
                if sum(lp_distance(B.points[i], R.points[j], metric)
                       for i, j in enumerate(perm)) == best
            )
            assert emd_hungarian(B, R, metric) == (best, first)


def test_hungarian_witness_weights_beyond_float_range():
    # the perturbed costs exceed n**m > 2**1024, far beyond any float
    B = point_set(2, [(1, 2)] * 150)
    R = point_set(2, [(1, 2)] * 155)
    assert emd_hungarian(B, R, Metric.LINF) == (0, tuple(range(150)))


def test_column_potentials_bound_every_matrix_of_their_shape():
    # The grid walk cuts a translation when the potentials of the last solve
    # bound its costs above the incumbent, so that bound must never exceed
    # the optimum.  The totals themselves are checked against brute force
    # by the witness tests above.
    rng = random.Random(30)
    tight = 0
    for k in range(1200):
        m = rng.randint(1, 6)
        n = rng.randint(m, 8)
        hi = (2, 10, 10**6)[k % 3]  # a third of the matrices are tie-heavy
        cost = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        total, assignment, v = _min_cost_assignment(cost)
        assert len(v) == n and all(x <= 0 for x in v)
        assert sorted(set(assignment)) == sorted(assignment)
        assert _dual_bound(cost, v) == total
        if k % 2:  # a neighbour: every entry moved by a little
            other = [[max(0, c + rng.randint(-2, 2) * (1 + hi // 20)) for c in row]
                     for row in cost]
        else:
            other = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        bound, optimum = _dual_bound(other, v), _min_cost_assignment(other)[0]
        assert bound <= optimum
        tight += bound == optimum
    assert tight > 300


# name -> (solve(B, R), whether the routine is 1D only)
_ENTRY_POINTS = {
    "emd_1d_monotone": (emd_1d_monotone, True),
    "emd_hungarian": (lambda B, R: emd_hungarian(B, R, Metric.L1), False),
    "emd_bruteforce": (lambda B, R: emd_bruteforce(B, R, Metric.LINF), False),
    "emd_value_at": (lambda B, R: emd_value_at(B, R, Metric.L1, (0,) * B.dim), False),
    "emdut_hd": (lambda B, R: emdut_hd(B, R, Metric.LINF), False),
    "candidate_translations": (
        lambda B, R: candidate_translations(B, R, Metric.LINF), False),
    "hyperplanes_linf": (hyperplanes_linf, False),
    "emdut_1d_symmetric": (emdut_1d_symmetric, True),
    "emdut_1d_alignment_oracle": (emdut_1d_alignment_oracle, True),
    "emdut_1d_sweep": (emdut_1d_sweep, True),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_every_solver_checks_one_contract_in_one_wording(name):
    solve, one_d = _ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=r"^blue and red dimension mismatch: 1 vs 2$"):
        solve(point_set_1d([0]), point_set(2, [(0, 0), (1, 1)]))
    with pytest.raises(ValueError, match=r"^\|B\| = 2 exceeds \|R\| = 1$"):
        solve(point_set_1d([0, 1]), point_set_1d([0]))
    planar_b, planar_r = point_set(2, [(0, 0)]), point_set(2, [(1, 1)])
    if one_d:
        with pytest.raises(ValueError, match=r"^1-dimensional point sets required, got 2$"):
            solve(planar_b, planar_r)
    else:
        solve(planar_b, planar_r)
