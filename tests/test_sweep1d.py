import random
from fractions import Fraction as F

import pytest

from emdut.core import point_set_1d
from emdut.emd import emd_1d_monotone
from emdut.sweep1d import (
    emdut_1d_alignment_oracle,
    emdut_1d_sweep,
    emdut_1d_symmetric,
)

from conftest import brute_force_1d_translated, rand_ints_1d


def test_symmetric_examples():
    B = point_set_1d([3, -1, 7])
    assert emdut_1d_symmetric(B, B) == (0, 0, (0, 1, 2))
    assert emdut_1d_symmetric(point_set_1d([0]), point_set_1d([9])) == (0, 9, (0,))
    value, tau, phi = emdut_1d_symmetric(point_set_1d([0, 1]), point_set_1d([10, 12]))
    assert (value, tau, phi) == (1, 10, (0, 1))


def test_symmetric_rejects_size_mismatch():
    with pytest.raises(ValueError):
        emdut_1d_symmetric(point_set_1d([1]), point_set_1d([1, 2]))


def test_symmetric_lower_median_is_smallest_optimum():
    # even n: both middle differences are optimal, report the smaller
    value, tau, _ = emdut_1d_symmetric(point_set_1d([0, 10]), point_set_1d([2, 13]))
    assert (value, tau) == (1, 2)


def test_sweep_examples():
    assert emdut_1d_sweep(point_set_1d([0]), point_set_1d([3, 100])) == (0, 3, (0,))
    value, tau, phi = emdut_1d_sweep(point_set_1d([0, 1]), point_set_1d([0, 2, 3]))
    assert (value, tau, phi) == (0, 2, (1, 2))
    assert emdut_1d_sweep(point_set_1d([]), point_set_1d([4])) == (0, 0, ())


def test_sweep_rejects_oversized_blue():
    with pytest.raises(ValueError):
        emdut_1d_sweep(point_set_1d([1, 2]), point_set_1d([0]))


def test_oracle_examples_and_guard():
    assert emdut_1d_alignment_oracle(point_set_1d([0, 1]), point_set_1d([10, 12])) == 1
    shifted = point_set_1d([4, 5, 9])
    assert emdut_1d_alignment_oracle(point_set_1d([0, 1, 5]), shifted) == 0
    with pytest.raises(ValueError):
        emdut_1d_alignment_oracle(point_set_1d(range(101)), point_set_1d(range(101)))


def test_sweep_oracle_bruteforce_triad():
    rng = random.Random(100)
    for _ in range(120):
        m = rng.randint(0, 8)
        n = rng.randint(max(m, 1), 10)
        B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        value, tau, phi = emdut_1d_sweep(B, R, check=True)
        assert value == emdut_1d_alignment_oracle(B, R)
        assert value == brute_force_1d_translated(B, R)
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(m))
        assert cost == value
        assert len(set(phi)) == m


def test_sweep_tree_envelope_agrees_with_naive():
    rng = random.Random(101)
    for _ in range(60):
        m = rng.randint(1, 7)
        n = rng.randint(m, 9)
        B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        naive = emdut_1d_sweep(B, R, envelope="naive", check=True)
        tree = emdut_1d_sweep(B, R, envelope="tree", check=True)
        assert naive == tree


def test_sweep_backends_agree_at_auto_cutoff_scale():
    # runs of more than 64 blues: the tree and the list give the same answer
    rng = random.Random(808)
    B = point_set_1d([rng.randint(-500, 500) for _ in range(80)])
    R = point_set_1d([rng.randint(-500, 500) for _ in range(120)])
    tree = emdut_1d_sweep(B, R, envelope="tree")
    naive = emdut_1d_sweep(B, R, envelope="naive")
    default = emdut_1d_sweep(B, R)
    assert tree == naive == default


def test_check_mode_holds_on_runs_longer_than_8_blues():
    # m = 65, n = 2m as in the benchmark: runs far longer than the small
    # check-mode tests reach, with every internal assertion switched on
    for seed, envelope in ((651, "naive"), (652, "naive"), (653, "naive"), (654, "tree")):
        rng = random.Random(seed)
        B, R = rand_ints_1d(rng, 65, 0, 1300), rand_ints_1d(rng, 130, 0, 1300)
        value, tau, phi, stats = emdut_1d_sweep(
            B, R, envelope=envelope, check=True, return_stats=True
        )
        assert max(bt - bs + 1 for bs, bt, _ in stats.moves) > 8
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(65))
        assert cost == value == emd_1d_monotone(B.translate((tau,)), R)[0]


def test_sweep_rejects_unknown_envelope_kind():
    for blue in (point_set_1d([]), point_set_1d([0, 1])):
        with pytest.raises(ValueError, match="naive, tree"):
            emdut_1d_sweep(blue, point_set_1d([0, 2, 3]), envelope="bogus")


@pytest.mark.parametrize(
    "base", [10**400, -(10**400), 2**70], ids=["1e400", "-1e400", "2**70"]
)
def test_float_filtered_heap_keys_stay_exact(base):
    # near +-10**400 the float keys overflow to +-inf; near 2**70 distinct
    # keys round to the same float.  Either way the exact times must decide.
    # Some reds stay near 0, so filtered and plain float keys share a heap.
    rng = random.Random(base % 1009)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(m, 7)
        den = rng.choice([1, 2, 3, 7])
        B = rand_ints_1d(rng, m, -6, 6)
        R = point_set_1d(
            [rng.choice([0, base]) + F(rng.randint(-12, 12), den) for _ in range(n)]
        )
        value, tau, phi, stats = emdut_1d_sweep(
            B, R, check=True, collect_pieces=True, return_stats=True
        )
        assert value == emdut_1d_alignment_oracle(B, R)
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(m))
        assert cost == value
        pieces = stats.pieces
        assert all(lo < hi for lo, hi, _, _ in pieces)
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))


def test_sweep_reports_smallest_optimal_translation():
    value, tau, _ = emdut_1d_sweep(point_set_1d([0]), point_set_1d([5, 6, 7]))
    assert (value, tau) == (0, 5)
    # rational coordinates keep exactness
    value, tau, _ = emdut_1d_sweep(
        point_set_1d([F(1, 3)]), point_set_1d([F(1, 2), F(5, 2)])
    )
    assert (value, tau) == (0, F(1, 6))


def test_sweep_event_count_bound_and_moves_are_run_suffixes():
    rng = random.Random(102)
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(m, 10)
        B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        _, _, _, stats = emdut_1d_sweep(B, R, check=True, return_stats=True)
        assert stats.events <= 4 * n * m + 4
        for bs, bt, first_moved in stats.moves:
            assert bs <= first_moved <= bt  # moved set is the run suffix [j, bt]


def test_sweep_matching_advances_monotonically():
    rng = random.Random(103)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(m + 1, 9)
        B, R = rand_ints_1d(rng, m, -12, 12), rand_ints_1d(rng, n, -12, 12)
        # compare optimal monotone matchings at increasing translations
        taus = sorted({r[0] - b[0] for b in B.points for r in R.points})
        prev = None
        border = sorted(range(m), key=lambda i: (B.points[i][0], i))
        for tau in taus:
            _, phi = emd_1d_monotone(B.translate((tau,)), R)
            rsort = sorted(range(n), key=lambda i: (R.points[i][0], i))
            rank = {idx: k for k, idx in enumerate(rsort)}
            cur = [rank[phi[b]] for b in border]
            if prev is not None:
                assert all(c >= p for c, p in zip(cur, prev))
            prev = cur


def test_sweep_cost_pieces_match_fixed_translation_solver():
    rng = random.Random(104)
    for _ in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(m, 8)
        B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        _, _, _, stats = emdut_1d_sweep(
            B, R, collect_pieces=True, return_stats=True
        )
        for lo, hi, slope, intercept in stats.pieces:
            for num in (1, 2):
                tau = lo + (hi - lo) * F(num, 3)
                assert slope * tau + intercept == emd_1d_monotone(
                    B.translate((tau,)), R
                )[0]


def test_symmetric_agreement_with_sweep():
    rng = random.Random(105)
    for _ in range(60):
        n = rng.randint(1, 30)
        B, R = rand_ints_1d(rng, n, -50, 50), rand_ints_1d(rng, n, -50, 50)
        v_med, tau_med, phi_med = emdut_1d_symmetric(B, R)
        v_sweep, _, _ = emdut_1d_sweep(B, R)
        assert v_med == v_sweep
        cost = sum(abs(B.points[j][0] + tau_med - R.points[phi_med[j]][0]) for j in range(n))
        assert cost == v_med


def test_symmetric_cost_is_unimodal_over_alignments():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(1, 6)
        B, R = rand_ints_1d(rng, n, -12, 12), rand_ints_1d(rng, n, -12, 12)
        taus = sorted({r[0] - b[0] for b in B.points for r in R.points})
        values = [emd_1d_monotone(B.translate((t,)), R)[0] for t in taus]
        falling = True
        for prev, cur in zip(values, values[1:]):
            if falling and cur > prev:
                falling = False
            elif not falling:
                assert cur >= prev, (values,)


def test_sweep_translation_invariance():
    rng = random.Random(107)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(m, 8)
        B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        shift = F(rng.randint(-40, 40), rng.randint(1, 5))
        assert (
            emdut_1d_sweep(B.translate((shift,)), R)[0] == emdut_1d_sweep(B, R)[0]
        )
