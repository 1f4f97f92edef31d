import itertools
import random
from fractions import Fraction

import pytest

from emdut.core import Metric, lp_distance, matching_cost, point_set, point_set_1d
from emdut.emd import (
    _cost_matrix,
    _lex_min_assignment,
    _min_cost_assignment,
    _monotone_rows,
    _monotone_value,
    emd_1d_monotone,
    emd_bruteforce,
    emd_hungarian,
)
from emdut.emdut_hd import (
    _dual_bound,
    _reduce_rows,
    candidate_translations,
    emd_value_at,
    emdut_hd,
)
from emdut.hardness import decomposed_value
from emdut.sweep1d import (
    SweepStats,
    emdut_1d_alignment_oracle,
    emdut_1d_sweep,
    emdut_1d_symmetric,
)

from conftest import huge_lcm_points, rand_ints_1d, rand_points
from oracles import perturbed_lex_min_assignment


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


def test_value_dp_equals_the_table_dp_and_brute_force():
    # the rolling-row DP of the per-axis bounds and the alignment oracle
    # gives rows[0][0] of the table DP, which is the best sorted red subset
    rng = random.Random(11)
    for case in range(300):
        m = rng.randint(0, 6)
        n = rng.randint(max(m, 1), 9)
        lim = 10**30 if case % 4 == 0 else 12
        bs = sorted(rng.randint(-lim, lim) for _ in range(m))
        rs = sorted(rng.randint(-lim, lim) for _ in range(n))
        shift = rng.randint(-2 * lim, 2 * lim)
        value = _monotone_value(bs, rs, shift)
        assert value == _monotone_rows(bs, rs, shift)[0][0]
        assert value == min(
            sum(abs(b + shift - rs[c]) for b, c in zip(bs, cols))
            for cols in itertools.combinations(range(n), m))


def test_bruteforce_examples():
    assert emd_bruteforce(point_set_1d([0]), point_set_1d([7]), Metric.L1) == 7
    assert emd_bruteforce(point_set_1d([0, 1]), point_set_1d([0, 1]), Metric.L1) == 0
    assert emd_bruteforce(point_set_1d([0, 4]), point_set_1d([1, 2]), Metric.L1) == 3
    assert emd_bruteforce(point_set_1d([]), point_set_1d([3, 5]), Metric.L1) == 0


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
    # every entry ties, so each row's first tight column is held by an
    # earlier row; the perturbed solve the tight pass replaced worked on
    # costs near n**m > 2**1024, far beyond any float
    B = point_set(2, [(1, 2)] * 150)
    R = point_set(2, [(1, 2)] * 155)
    assert emd_hungarian(B, R, Metric.LINF) == (0, tuple(range(150)))


def _textbook_assignment(cost):
    # the row-minimum start, then shortest augmenting paths that shift every
    # potential and tentative distance after each step: the reference the
    # one-pass update must match
    m, n = len(cost), len(cost[0])
    inf = float("inf")
    u, v = [0] * (m + 1), [0] * (n + 1)
    match_row, way = [0] * (n + 1), [0] * (n + 1)
    left = []
    for i in range(1, m + 1):
        u[i] = min(cost[i - 1])
        j = cost[i - 1].index(u[i]) + 1
        if match_row[j]:
            left.append(i)
        else:
            match_row[j] = i
    for i in left:
        match_row[0], j0 = i, 0
        minv, used = [inf] * (n + 1), [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match_row[j0], inf, -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            match_row[j0] = match_row[way[j0]]
            j0 = way[j0]
    assignment = [-1] * m
    for j in range(1, n + 1):
        if match_row[j]:
            assignment[match_row[j] - 1] = j - 1
    return sum(cost[i][assignment[i]] for i in range(m)), assignment, v[1:]


def test_hungarian_returns_the_textbook_triple():
    # the grid walk's cuts read the potentials, so ties must break alike:
    # first column in scan order, strict improvements only
    rng = random.Random(31)
    for k in range(600):
        m = rng.randint(1, 9)
        n = rng.randint(m, 12)
        hi = (0, 1, 3, 50, 10**30)[k % 5]
        cost = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        assert _min_cost_assignment(cost) == _textbook_assignment(cost)


def test_tight_pass_gives_the_witness_of_the_perturbed_solve():
    # the witness solver walks the tight edges of one plain solve;
    # the reference solves once on costs perturbed by the assignment read
    # as a base-n number.  Entries in {0..3} tie everywhere, square
    # all-equal and 0/1 matrices give each row many optimal columns, and
    # planar 16x24 matrices have the witness shape of the solve benchmark
    rng = random.Random(33)
    matrices = []
    for _ in range(3000):
        m = rng.randint(1, 9)
        n = rng.randint(m, 9)
        matrices.append([[rng.randint(0, 3) for _ in range(n)] for _ in range(m)])
    for size in (1, 2, 3, 5, 8, 13, 20, 30, 45, 60):
        matrices.append([[7] * size for _ in range(size)])
        matrices.append([[rng.randint(0, 1) for _ in range(size)] for _ in range(size)])
    for k in range(40):
        lim = (3, 1000)[k % 4 // 2]
        blues, reds = ([[rng.randint(-lim, lim) for _ in range(2)] for _ in range(count)]
                       for count in (16, 24))
        matrices.append(_cost_matrix(blues, reds, (Metric.L1, Metric.LINF)[k % 2]))
    rerouted = 0
    for cost in matrices:
        total, assignment = _lex_min_assignment(cost)
        assert (total, assignment) == perturbed_lex_min_assignment(cost)
        rerouted += assignment != _min_cost_assignment(cost)[1]
    assert rerouted > 900  # 1026 of them: the pass moves rows, not only confirms them


def _certify(cost, total, assignment, v):
    # an O(mn) proof of optimality: with v <= 0 and v = 0 on free columns,
    # every assignment costs at least sum(u) + sum(v) by the reduced costs
    n = len(v)
    assert len(assignment) == len(cost) and len(set(assignment)) == len(assignment)
    u = [row[j] - v[j] for row, j in zip(cost, assignment)]
    assert all(c - x >= ui for row, ui in zip(cost, u) for c, x in zip(row, v))
    assert all(x <= 0 for x in v)
    assert all(v[j] == 0 for j in set(range(n)) - set(assignment))
    assert sum(u) + sum(v) == total == sum(row[j] for row, j in zip(cost, assignment))


def test_potentials_certify_the_optimum_of_every_solve():
    # the total is also held to the perturbed solve, which reaches it on
    # other costs and so along other augmenting paths
    rng = random.Random(34)
    for k in range(1500):
        m = rng.randint(1, 12)
        n = rng.randint(m, 16)
        hi = (0, 1, 3, 100, 10**20)[k % 5]  # three in five are tie-heavy
        cost = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        solved = _min_cost_assignment(cost)
        _certify(cost, *solved)
        assert solved[0] == perturbed_lex_min_assignment(cost)[0]


def test_potentials_certify_the_optimum_at_scale():
    # shapes past the brute force and the reference tests: single rows,
    # which the row-minimum start answers with no search, the witness shape
    # of the solve benchmark, wide random matrices and square ties
    rng = random.Random(35)
    matrices = [[[rng.randint(0, hi) for _ in range(n)]]
                for n in range(1, 31) for hi in (0, 1, 10**6)]
    for k in range(8):
        lim = (3, 1000)[k % 4 // 2]
        blues, reds = ([[rng.randint(-lim, lim) for _ in range(2)] for _ in range(count)]
                       for count in (16, 24))
        matrices.append(_cost_matrix(blues, reds, (Metric.L1, Metric.LINF)[k % 2]))
    for hi in (3, 10**6):
        matrices.append([[rng.randint(0, hi) for _ in range(80)] for _ in range(60)])
    matrices.append([[5] * 60 for _ in range(60)])
    matrices.append([[rng.randint(0, 1) for _ in range(90)] for _ in range(40)])
    for cost in matrices:
        total, assignment, v = _min_cost_assignment(cost)
        _certify(cost, total, assignment, v)
        if len(cost) == 1:  # the start alone: the first column of least cost
            assert (total, assignment) == (min(cost[0]), [cost[0].index(total)])


def _one_pass_bound(cost, v):
    # sum(v) + sum_i min_j (c_ij - v_j): feasible for the dual when v <= 0
    return sum(v) + sum(min(c - x for c, x in zip(row, v)) for row in cost)


def test_column_potentials_bound_every_matrix_of_their_shape():
    # The grid walk cuts a translation when the potentials of the last solve
    # bound its costs above the incumbent, so that bound must never exceed
    # the optimum.  The totals themselves are checked against brute force
    # by the witness tests above.  The walk reads the bound of a matrix
    # P + D from P - v and D, so each matrix is also split in two at random
    # and the split bound must be the one-pass bound exactly.
    rng = random.Random(30)
    split_rng = random.Random(32)  # leaves the matrices drawn from rng as they were
    tight = 0

    def split_bound(cost, v):
        table = [[split_rng.randint(0, c) for c in row] for row in cost]
        prefix = [[c - e for c, e in zip(row, dist)] for row, dist in zip(cost, table)]
        return _dual_bound(_reduce_rows(prefix, v), table, sum(v))

    for k in range(1320):
        if k < 1200:
            m = rng.randint(1, 6)
            n = rng.randint(m, 8)
        else:  # shapes of the witness and grid-walk solves, up to 20x28
            m = rng.randint(7, 20)
            n = rng.randint(m, 28)
        hi = (2, 10, 10**6)[k % 3]  # a third of the matrices are tie-heavy
        cost = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        total, assignment, v = _min_cost_assignment(cost)
        assert len(v) == n and all(x <= 0 for x in v)
        assert sorted(set(assignment)) == sorted(assignment)
        assert all(v[j] == 0 for j in set(range(n)) - set(assignment))
        assert _one_pass_bound(cost, v) == total
        assert split_bound(cost, v) == total
        if k % 2:  # a neighbour: every entry moved by a little
            other = [[max(0, c + rng.randint(-2, 2) * (1 + hi // 20)) for c in row]
                     for row in cost]
        else:
            other = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        bound, optimum = _one_pass_bound(other, v), _min_cost_assignment(other)[0]
        assert split_bound(other, v) == bound
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


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_empty_blue_set_costs_nothing_on_every_solver(d, metric, n):
    # with no blue to match, every value is 0, every matching empty and
    # every reported translation 0, with or without reds; the reprs are
    # compared, so each value is an exact Fraction
    B, R = point_set(d, []), point_set(d, [[i + 1] * d for i in range(n)])
    zero, tau = (Fraction(0),) * d, (Fraction(1, 2),) * d
    answers = [
        (emd_hungarian(B, R, metric), (Fraction(0), ())),
        (emd_bruteforce(B, R, metric), Fraction(0)),
        (emd_value_at(B, R, metric, tau), Fraction(0)),
        (decomposed_value([(B, R)], metric, [tau]), Fraction(0)),
        (candidate_translations(B, R, metric), ()),
        (emdut_hd(B, R, metric, return_stats=True), (Fraction(0), zero, (), 0, 0)),
    ]
    if d == 1:
        answers += [
            (emd_1d_monotone(B, R), (Fraction(0), ())),
            (emdut_1d_alignment_oracle(B, R), Fraction(0)),
        ] + [
            (emdut_1d_sweep(B, R, envelope=envelope, return_stats=True,
                            collect_pieces=True, check=True),
             (Fraction(0), Fraction(0), (), SweepStats(0, 0, 0, [], [])))
            for envelope in ("naive", "tree")
        ]
        if n == 0:
            answers.append((emdut_1d_symmetric(B, R), (Fraction(0), Fraction(0), ())))
        else:
            with pytest.raises(ValueError, match=r"^\|B\| = 0 is less than \|R\| = 2$"):
                emdut_1d_symmetric(B, R)
    for got, want in answers:
        assert repr(got) == repr(want)


# name -> call(B, R, metric) of every entry point that takes a metric
_METRIC_CALLS = {
    "emd_hungarian": emd_hungarian,
    "emd_bruteforce": emd_bruteforce,
    "emd_value_at": lambda B, R, metric: emd_value_at(B, R, metric, (0, 0)),
    "emdut_hd": emdut_hd,
    "candidate_translations": candidate_translations,
    "decomposed_value": lambda B, R, metric: decomposed_value([(B, R)], metric, [(0, 0)]),
    "matching_cost": lambda B, R, metric: matching_cost(B, R, metric, [0] * len(B), (0, 0)),
    "lp_distance": lambda B, R, metric: lp_distance((0, 0), R.points[0], metric),
}


@pytest.mark.parametrize("metric", ["l1", "linf", None])
@pytest.mark.parametrize("name", list(_METRIC_CALLS))
def test_a_metric_that_is_not_a_metric_member_is_refused(name, metric):
    # each entry point used to read anything but Metric.L1 as Linf, or, in
    # the planar grid walk, anything but Metric.LINF as L1: "l1" gave the
    # Linf value 4 here, where L1 gives 7
    R = point_set(2, [(3, 4)])
    message = f"^metric must be a Metric, not {type(metric).__name__}$"
    for B in (point_set(2, [(0, 0)]), point_set(2, [])):
        with pytest.raises(TypeError, match=message):
            _METRIC_CALLS[name](B, R, metric)
