import hashlib
import random
from fractions import Fraction as F

import pytest

from emdut.core import point_set_1d
from emdut.emd import emd_1d_monotone
from emdut.envelope import NaiveEnvelope, TreeEnvelope
from emdut.hardness import OVInstance, has_orthogonal_pair, ov_reduction
from emdut import sweep1d
from emdut.sweep1d import (
    _Sweep,
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
    assert emdut_1d_symmetric(point_set_1d([]), point_set_1d([])) == (0, 0, ())


def test_symmetric_rejects_size_mismatch():
    with pytest.raises(ValueError, match=r"^\|B\| = 1 is less than \|R\| = 2$"):
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


def _rand_rationals_1d(rng, n, lo=-60, hi=60):
    # coprime denominators, so the frame's lcm mixes several of them
    return point_set_1d([F(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7)))
                         for _ in range(n)])


def _blocky_reds_1d(rng, n, lo=-12, hi=12):
    # reds in blocks of 2-5 equal coordinates, so moved suffixes slide
    xs = []
    while len(xs) < n:
        xs += [rng.randint(lo, hi)] * rng.randint(2, 5)
    xs = xs[:n]
    rng.shuffle(xs)
    return point_set_1d(xs)


def test_sweep_oracle_bruteforce_triad():
    rng = random.Random(100)
    for case in range(220):
        m = rng.randint(0, 8)
        n = rng.randint(max(m, 1), 10)
        if case < 120:
            B, R = rand_ints_1d(rng, m), rand_ints_1d(rng, n)
        elif case < 180:
            B, R = _rand_rationals_1d(rng, m), _rand_rationals_1d(rng, n)
        else:
            B, R = rand_ints_1d(rng, m, -12, 12), _blocky_reds_1d(rng, n)
        value, tau, phi = emdut_1d_sweep(B, R, check=True)
        assert value == emdut_1d_alignment_oracle(B, R)
        assert value == brute_force_1d_translated(B, R)
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(m))
        assert cost == value
        assert len(set(phi)) == m


def _both_backends(B, R, **kw):
    return [emdut_1d_sweep(B, R, envelope=kind, return_stats=True,
                           collect_pieces=True, **kw) for kind in ("naive", "tree")]


def test_sweep_tree_envelope_agrees_with_naive():
    # the whole return, event log included: both backends follow one root rule
    rng = random.Random(101)
    for trial in range(120):
        m = rng.randint(1, 7)
        n = rng.randint(m, 9)
        lo, hi = (-20, 20) if trial < 60 else (0, 5)  # then duplicate-heavy
        B, R = rand_ints_1d(rng, m, lo, hi), rand_ints_1d(rng, n, lo, hi)
        naive, tree = _both_backends(B, R, check=True)
        assert naive == tree, (B, R)


def test_sweep_backends_agree_at_auto_cutoff_scale():
    # the name recalls a size cutoff between the backends that is gone (the
    # sweep runs the list at every size); runs of up to 80 blues still put
    # the tree on several blocks, and it must give the same answer and the
    # same event log as the list
    rng = random.Random(808)
    B = point_set_1d([rng.randint(-500, 500) for _ in range(80)])
    R = point_set_1d([rng.randint(-500, 500) for _ in range(120)])
    naive, tree = _both_backends(B, R)
    assert tree == naive
    assert naive[:3] == emdut_1d_sweep(B, R)


def test_check_mode_holds_on_runs_longer_than_8_blues():
    # m = 65, n = 2m as in the benchmark: runs far longer than the small
    # check-mode tests reach, with every internal assertion switched on
    for seed in (651, 652, 653, 654):
        rng = random.Random(seed)
        B, R = rand_ints_1d(rng, 65, 0, 1300), rand_ints_1d(rng, 130, 0, 1300)
        naive, tree = _both_backends(B, R, check=True)
        assert naive == tree
        value, tau, phi, stats = naive
        assert max(bt - bs + 1 for bs, bt, _ in stats.moves) > 8
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(65))
        assert cost == value == emd_1d_monotone(B.translate((tau,)), R)[0]


def test_naive_sweep_builds_no_envelope_and_tree_sweep_builds_only_trees(monkeypatch):
    # the list path queries the blues' switch pieces directly; the tree path
    # builds a tree on the run's lines for each root query, and nothing else
    built = []
    for cls in (NaiveEnvelope, TreeEnvelope):
        def spy(self, lines=(), init=cls.__init__, cls=cls):
            built.append(cls)
            init(self, lines)

        monkeypatch.setattr(cls, "__init__", spy)
    rng = random.Random(171)
    instances = [(rand_ints_1d(rng, m, 0, 20 * m), rand_ints_1d(rng, 2 * m, 0, 20 * m))
                 for m in (1, 5, 30, 65)]
    gi = ov_reduction(_ov_instance(1091, 0.5))
    for B, R in instances + [(gi.blue, gi.red)]:
        built.clear()
        *_, stats = emdut_1d_sweep(B, R, envelope="naive", return_stats=True)
        assert built == [] and stats.reassignment_events > 0
        emdut_1d_sweep(B, R, envelope="tree", check=True)
        assert built and set(built) == {TreeEnvelope}


def _grid_family(m, seed=1):
    # blues 10 apart, n = 2m reds at 10j + U[-2, 2]: the matching stays
    # about one run of m blues, and nearly every event is an alignment
    rng = random.Random(seed)
    return (point_set_1d([10 * i for i in range(m)]),
            point_set_1d([10 * j + rng.randint(-2, 2) for j in range(2 * m)]))


def test_backends_agree_on_one_long_run_across_tree_blocks():
    # m = 40: runs grow to 30 blues and more, so the tree built on a run's
    # lines for a root query holds them in 5 or 6 blocks and searches each
    B, R = _grid_family(40)
    naive, tree = _both_backends(B, R, check=True)
    assert naive == tree
    value, tau, phi, stats = naive
    assert max(bt - bs + 1 for bs, bt, _ in stats.moves) >= 30
    assert stats.alignment_events > 0.9 * stats.events
    assert value == emdut_1d_alignment_oracle(B, R)


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
    # The tree sees the same magnitudes and must return the same, event log
    # and pieces included.
    rng = random.Random(base % 1009)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(m, 7)
        den = rng.choice([1, 2, 3, 7])
        B = rand_ints_1d(rng, m, -6, 6)
        R = point_set_1d(
            [rng.choice([0, base]) + F(rng.randint(-12, 12), den) for _ in range(n)]
        )
        naive, tree = _both_backends(B, R, check=True)
        assert naive == tree, (B, R)
        value, tau, phi, stats = naive
        assert value == emdut_1d_alignment_oracle(B, R)
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(m))
        assert cost == value
        pieces = stats.pieces
        assert all(lo < hi for lo, hi, _, _ in pieces)
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))


@pytest.mark.parametrize(
    "base", [0, 2**70, 10**400, -(10**400)], ids=["0", "2**70", "1e400", "-1e400"]
)
def test_integer_heap_keys_order_event_times_exactly(base):
    # every time p/q in [base - 1, base + 1] whose q is 1 or 2i <= 2m, the
    # denominators the sweep's times can have; unreduced pairs included
    for m in (1, 2, 7, 65):
        shift = _Sweep([0] * m, [0] * m, None, False).shift
        times = sorted(
            (F(p, q), (p << shift) // q)
            for q in [1] + [2 * i for i in range(1, m + 1)]
            for p in range((base - 1) * q, (base + 1) * q + 1)
        )
        for (t1, k1), (t2, k2) in zip(times, times[1:]):
            assert (k1 < k2) if t1 < t2 else (k1 == k2), (m, t1, t2)


def test_equal_sizes_pop_each_alignment_from_its_own_red_on():
    # |B| = |R|: blue j's alignments with reds 0..j-1 lag behind its red
    # and are never counted, so j meets the n - j reds from its own on
    rng = random.Random(109)
    for n in (1, 2, 5, 17, 40):
        B, R = rand_ints_1d(rng, n, -50, 50), rand_ints_1d(rng, n, -50, 50)
        *_, stats = emdut_1d_sweep(B, R, check=True, return_stats=True)
        assert stats.alignment_events == n * (n + 1) // 2
        assert stats.reassignment_events == 0


def _ov_instance(seed, density):
    # 3 vectors per side in d = 2, as in the benchmark's OV workload
    rng = random.Random(seed)
    xs, ys = (tuple(tuple(int(rng.random() < density) for _ in range(2))
                    for _ in range(3)) for _side in range(2))
    return OVInstance(xs, ys)


def _red_steps(stats):
    # each logged move, slid steps included, takes blues j..bt one red on;
    # the matching starts at the identity and ends on the last m reds
    return sum(bt - j + 1 for _, bt, j in stats.moves)


def test_check_mode_holds_on_ov_instances_and_skips_lagging_alignments(monkeypatch):
    # OV gadgets: blues in clusters far apart, so most alignments happen
    # behind a blue's red and are skipped; reds repeat, so most moves slide
    # a suffix over equal reds and are events without a heap pop
    heappop, pops = sweep1d.heapq.heappop, [0]

    def counting_pop(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(sweep1d.heapq, "heappop", counting_pop)
    for seed, density in ((1091, 0.5), (1093, 0.85)):  # a yes and a no instance
        inst = _ov_instance(seed, density)
        gi = ov_reduction(inst)
        m, n = len(gi.blue), len(gi.red)
        outs = []
        for kind in ("naive", "tree"):
            pops[0] = 0
            outs.append(emdut_1d_sweep(gi.blue, gi.red, envelope=kind, check=True,
                                       return_stats=True, collect_pieces=True))
            assert pops[0] <= 0.7 * outs[-1][3].events, (kind, pops[0], outs[-1][3].events)
        assert outs[0] == outs[1]
        value, tau, phi, stats = outs[0]
        assert stats.alignment_events <= m * n / 2, (stats, m, n)
        assert _red_steps(stats) == m * (n - m)
        assert (value <= gi.lam) == has_orthogonal_pair(inst)
        cost = sum(abs(gi.blue.points[j][0] + tau - gi.red.points[phi[j]][0])
                   for j in range(m))
        assert cost == value == emd_1d_monotone(gi.blue.translate((tau,)), gi.red)[0]


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
        assert _red_steps(stats) == m * (n - m)


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
    for case in range(90):
        n = rng.randint(1, 30)
        if case < 60:
            B, R = rand_ints_1d(rng, n, -50, 50), rand_ints_1d(rng, n, -50, 50)
        else:
            B, R = _rand_rationals_1d(rng, n), _rand_rationals_1d(rng, n)
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


# sha256 of the reprs of every return below: a change that alters any event,
# piece or move of these sweeps changes it, so a speed-up that must leave
# the event log alone cannot pass with a different one
_EVENT_LOG_SHA256 = "1b4d3d6014f43cf0f58b29a207cb5ee3d944da409d88ca63448a9c16e4a7fe4d"


def _pinned_instances():
    # (check, blue, red): the benchmark's two sweep shapes, random ints
    # with n = 2m up to its m = 65, and OV reductions
    for k in range(12):
        rng = random.Random(1800 + k)
        m = 10 + 5 * k
        yield (k % 3 == 0, rand_ints_1d(rng, m, 0, 20 * m),
               rand_ints_1d(rng, 2 * m, 0, 20 * m))
    for k in range(8):
        gi = ov_reduction(_ov_instance(1900 + k, 0.5 if k % 2 == 0 else 0.85))
        yield k % 3 == 0, gi.blue, gi.red


def test_event_log_is_pinned_on_both_backends():
    sha = hashlib.sha256()
    for check, B, R in _pinned_instances():
        for out in _both_backends(B, R, check=check):
            sha.update(repr(out).encode())
    assert sha.hexdigest() == _EVENT_LOG_SHA256
