import hashlib
import importlib
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from emdut.core import Metric, matching_cost, point_set, point_set_1d
from emdut.emd import emd_bruteforce, emd_hungarian
from emdut.emdut_hd import BudgetExceeded, candidate_translations, emd_value_at, emdut_hd
from emdut.hardness import Graph, clique_instance_value, clique_linf_sym, decomposed_value
from emdut.sweep1d import emdut_1d_sweep

from conftest import huge_lcm_points, rand_points
from oracles import Hyperplane, arrangement_vertices, hyperplanes_linf, rotate_45_to_l1


def test_hyperplanes_linf_examples():
    B = point_set(2, [(0, 0)])
    planes = hyperplanes_linf(B, point_set(2, [(1, 2)]))
    assert {(p.normal, p.offset) for p in planes} == {
        ((F(1), F(0)), F(-1)),
        ((F(0), F(1)), F(-2)),
        ((F(1), F(-1)), F(1)),
        ((F(1), F(1)), F(-3)),
    }
    # duplicate differences collapse
    assert hyperplanes_linf(B, point_set(2, [(1, 2), (1, 2)])) == planes
    # d = 1 degenerates to the axis planes tau = r - b, ascending
    b1, r1 = point_set_1d([0, 1]), point_set_1d([4, 6])
    assert hyperplanes_linf(b1, r1) == [
        Hyperplane((F(1),), F(-c)) for c in (3, 4, 5, 6)
    ]


def test_hyperplane_family_size_per_pair():
    rng = random.Random(20)
    for d in (2, 3):
        B = rand_points(rng, 1, d, -100, 100)
        R = rand_points(rng, 1, d, 200, 400)  # far apart: no coincidences
        assert len(hyperplanes_linf(B, R)) == d * d


def test_arrangement_vertices_examples():
    h1 = Hyperplane((F(1), F(0)), F(-1))
    h2 = Hyperplane((F(0), F(1)), F(-2))
    assert arrangement_vertices([h1, h2], 2) == ((F(1), F(2)),)
    # parallel pair contributes no vertex
    h3 = Hyperplane((F(1), F(0)), F(-5))
    assert arrangement_vertices([h1, h3], 2) == ()
    # axis-aligned arrangement is the cartesian product of offsets
    B = point_set(2, [(0, 0)])
    R = point_set(2, [(1, 2), (3, 4)])
    axis_planes = [Hyperplane((F(1), F(0)), F(-c)) for c in (1, 3)] + [
        Hyperplane((F(0), F(1)), F(-c)) for c in (2, 4)
    ]
    verts = arrangement_vertices(axis_planes, 2)
    assert set(verts) == {(F(1), F(2)), (F(1), F(4)), (F(3), F(2)), (F(3), F(4))}
    assert set(candidate_translations(B, R, Metric.L1)) == set(verts)


def test_budget_errors_name_the_budget():
    B = point_set(2, [(0, 0), (1, 5)])
    R = point_set(2, [(i, 2 * i + 1) for i in range(4)])
    with pytest.raises(BudgetExceeded) as err:
        emdut_hd(B, R, Metric.LINF, budget=10)
    assert "budget of 10" in str(err.value)
    # counts past the interpreter's 4300-digit str limit still print
    assert "needs 1" + "0" * 5000 + " evaluations" in str(BudgetExceeded(10**5000, 10))


def test_emdut_hd_examples():
    ps = point_set(2, [(0, 0), (4, 1)])
    assert emdut_hd(ps, ps, Metric.L1) == (0, (0, 0), (0, 1))
    value, tau, _ = emdut_hd(point_set(2, [(0, 0)]), point_set(2, [(5, 5)]), Metric.L1)
    assert (value, tau) == (0, (5, 5))
    value, _, _ = emdut_hd(
        point_set(2, [(0, 0), (1, 0)]), point_set(2, [(0, 0), (3, 0)]), Metric.L1
    )
    assert value == 2


def test_emdut_hd_matches_candidate_bruteforce():
    rng = random.Random(21)
    for case in range(46):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        if case < 40:
            B, R = rand_points(rng, m, 2), rand_points(rng, n, 2)
        else:  # denominators 10^9+7 and 998244353, coordinates near 10^30
            B, R = huge_lcm_points(rng, m, 2), huge_lcm_points(rng, n, 2)
        for metric in (Metric.L1, Metric.LINF):
            value, tau, phi = emdut_hd(B, R, metric)
            best = min(
                emd_bruteforce(B.translate(t), R, metric)
                for t in candidate_translations(B, R, metric)
            )
            assert value == best
            assert value <= emd_hungarian(B, R, metric)[0]
            assert matching_cost(B, R, metric, phi, tau) == value


def test_returned_translation_is_optimal_for_returned_matching():
    rng = random.Random(22)
    for _ in range(30):
        B, R = rand_points(rng, 2, 2), rand_points(rng, 3, 2)
        for metric in (Metric.L1, Metric.LINF):
            value, tau, phi = emdut_hd(B, R, metric)
            for cand in candidate_translations(B, R, metric):
                assert matching_cost(B, R, metric, phi, cand) >= value


def test_emdut_hd_agrees_with_1d_sweep():
    rng = random.Random(23)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        B = point_set_1d([rng.randint(-15, 15) for _ in range(m)])
        R = point_set_1d([rng.randint(-15, 15) for _ in range(n)])
        hd_value, hd_tau, _ = emdut_hd(B, R, Metric.L1)
        sw_value, sw_tau, _ = emdut_1d_sweep(B, R)
        assert (hd_value, hd_tau[0]) == (sw_value, sw_tau)


def test_emdut_hd_linf_three_dimensional():
    rng = random.Random(26)
    for _ in range(10):
        m = rng.randint(1, 2)
        B = rand_points(rng, m, 3, -4, 4)
        R = rand_points(rng, 2, 3, -4, 4)
        value, tau, phi = emdut_hd(B, R, Metric.LINF)
        best = min(
            emd_bruteforce(B.translate(t), R, Metric.LINF)
            for t in candidate_translations(B, R, Metric.LINF)
        )
        assert value == best
        assert matching_cost(B, R, Metric.LINF, phi, tau) == value


def test_linf_candidates_equal_the_fraction_arrangement():
    # The solver enumerates Linf vertices in d >= 3 on a doubled integer
    # frame; the oracle intersects Fraction hyperplanes on the input itself.
    # Both must give the same sorted tuple.
    rng = random.Random(30)
    coords = (
        lambda: rng.randint(-5, 5),
        lambda: F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7))),  # coprime
        lambda: rng.randint(-10**12, 10**12),
    )
    for case in range(15):
        d = 3 if case < 12 else 4
        m = rng.randint(1, 2) if d == 3 else 1
        n = rng.randint(m, 2) if d == 3 else 1
        coord = coords[case % 3]
        B, R = ([tuple(coord() for _ in range(d)) for _ in range(size)]
                for size in (m, n))
        if case % 4 == 1:  # a blue point also among the reds
            R[-1] = rng.choice(B)
        B, R = point_set(d, B), point_set(d, R)
        assert candidate_translations(B, R, Metric.LINF) == arrangement_vertices(
            hyperplanes_linf(B, R), d)


def test_linf_solid_half_integral_optimum_on_one_frame(monkeypatch):
    # The optimum (1/2, 3/2, 5/2) is a vertex of an unbalanced cycle of
    # planes, half-integral on the points' frame.  The solver frames the
    # points once, and never together with a vertex.
    hd = importlib.import_module("emdut.emdut_hd")
    framed = []

    def spy(blue, red, *extra):
        framed.append(extra)
        return real(blue, red, *extra)

    real = hd._frame
    monkeypatch.setattr(hd, "_frame", spy)
    B = point_set(3, [(0, 0, 0), (1, 1, 0)])
    R = point_set(3, [(1, 2, 3), (4, 0, -1), (2, 2, 2)])
    value, tau, phi, candidates, evaluated = emdut_hd(B, R, Metric.LINF,
                                                      return_stats=True)
    assert (value, tau, phi) == (1, (F(1, 2), F(3, 2), F(5, 2)), (0, 2))
    assert candidates == evaluated == 1062
    assert framed == [()]
    assert matching_cost(B, R, Metric.LINF, phi, tau) == value


def _rational_planar(rng, count):
    """Planar points with coprime denominators, about a third of them repeats."""
    pts = []
    for _ in range(count):
        if pts and rng.random() < 0.35:
            pts.append(rng.choice(pts))
        else:
            pts.append(tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
                             for _ in range(2)))
    return point_set(2, pts)


def test_planar_linf_matches_full_arrangement_bruteforce():
    # Planar Linf searches the rotated L1 grid; this oracle searches every
    # vertex of the full axis-plus-diagonal arrangement instead.
    rng = random.Random(27)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(m, 3)
        B, R = _rational_planar(rng, m), _rational_planar(rng, n)
        if rng.random() < 0.5:  # a blue point also among the reds
            R = point_set(2, R.points[:-1] + (rng.choice(B.points),))
        verts = arrangement_vertices(hyperplanes_linf(B, R), 2)
        values = {t: emd_bruteforce(B.translate(t), R, Metric.LINF) for t in verts}
        best = min(values.values())
        lex = min(t for t, v in values.items() if v == best)
        assert emdut_hd(B, R, Metric.LINF)[:2] == (best, lex)


def test_pruning_keeps_the_lexicographically_smallest_optimum():
    # Equal-size sets on a 3x3 grid have many optimal translations; a cut
    # that also drops branches whose bound only ties the incumbent loses
    # the smallest of them.
    rng = random.Random(28)
    for _ in range(60):
        m = rng.randint(2, 4)
        B, R = (point_set(2, [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(m)])
                for _side in range(2))
        for metric in (Metric.L1, Metric.LINF):
            value, tau = min(
                (emd_hungarian(B.translate(t), R, metric)[0], t)
                for t in candidate_translations(B, R, metric)
            )
            phi = emd_hungarian(B.translate(tau), R, metric)[1]
            assert emdut_hd(B, R, metric) == (value, tau, phi)


def test_linf_solid_ties_keep_the_smallest_optimal_vertex():
    # Coordinates in {0, 1, 2} with a repeated blue or red point leave 4 to
    # 18 optimal vertices of the Linf arrangement in d = 3.  The solver must
    # report the smallest (value, tau) of the Fraction arrangement, scored
    # one vertex at a time, in whatever order it enumerates its own.
    rng = random.Random(33)
    for case in range(16):
        B, R = ([tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(size)]
                for size in (2, 2 + case % 2))
        if case % 2:
            R[-1] = R[0]
        else:
            B[1] = B[0]
        B, R = point_set(3, B), point_set(3, R)
        scored = sorted((emd_value_at(B, R, Metric.LINF, t), t)
                        for t in arrangement_vertices(hyperplanes_linf(B, R), 3))
        assert scored[1][0] == scored[0][0]  # at least two optima
        assert emdut_hd(B, R, Metric.LINF)[:2] == scored[0]


def test_linf_solid_builds_each_vertex_cost_matrix_once(monkeypatch):
    # The optimum keeps the cost matrix it was scored on, and its witness
    # is solved on that matrix: one build per vertex, none for the winner.
    # The pairs are the CI's two 3D console-script pairs.
    hd = importlib.import_module("emdut.emdut_hd")
    built = []

    def spy(*args):
        built.append(args)
        return real(*args)

    real = hd._cost_matrix
    monkeypatch.setattr(hd, "_cost_matrix", spy)
    pairs = [
        ([(0, 0, 0), (1, 1, 0)], [(1, 2, 3), (4, 0, -1), (2, 2, 2)],
         (1, (F(1, 2), F(3, 2), F(5, 2)), (0, 2), 1062)),
        ([(0, 0, 0), (0, 0, 0)], [(1, 2, 0), (2, 0, 1), (0, 1, 2)],
         (2, (F(-1, 2), F(1, 2), F(3, 2)), (0, 2), 251)),
    ]
    for blue, red, expected in pairs:
        built.clear()
        value, tau, phi, candidates, evaluated = emdut_hd(
            point_set(3, blue), point_set(3, red), Metric.LINF, return_stats=True)
        assert (value, tau, phi, candidates) == expected
        assert len(built) == candidates == evaluated


def test_grid_search_never_builds_the_candidate_product():
    # 18 x 18 points with distinct offsets: 18^4 = 104976 candidates, whose
    # product alone would take several MB.  The reds are a noisy translate
    # of the blues, so the bound leaves only a handful of Hungarian solves.
    rng = random.Random(29)
    B = point_set(2, [(rng.randint(0, 10**6), rng.randint(0, 10**6))
                      for _ in range(18)])
    R = point_set(2, [(x + 1000 + rng.randint(-50, 50), y - 2000 + rng.randint(-50, 50))
                      for x, y in B.points])
    tracemalloc.start()
    try:
        value, tau, phi, candidates, evaluated = emdut_hd(
            B, R, Metric.L1, return_stats=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert candidates >= 10**5
    assert 1 <= evaluated < candidates
    assert peak < 2**20
    assert matching_cost(B, R, Metric.L1, phi, tau) == value


def test_dual_cut_leaves_few_solves_on_unrelated_sets():
    # Unrelated sets of equal size: the separable bound lets 1530 of the
    # 18^4 translations through to a Hungarian solve; the bound from the
    # last solve's column potentials cuts most of them.
    rng = random.Random(3)
    B, R = (point_set(2, [(rng.randint(0, 10**6), rng.randint(0, 10**6))
                          for _ in range(18)])
            for _side in range(2))
    value, tau, phi, candidates, evaluated = emdut_hd(B, R, Metric.L1,
                                                      return_stats=True)
    assert candidates == 18**4
    assert evaluated == 491
    assert matching_cost(B, R, Metric.L1, phi, tau) == value


def test_distance_table_cache_keeps_to_its_cap(monkeypatch):
    # Unrelated 4 x 40 sets: the distinct (axis, offset) distance tables
    # that the walk builds take over 1 MB together, so a cache that kept
    # them all would break the bound below.  The cap keeps the peak under it.
    rng = random.Random(8)
    B, R = (point_set(2, [(rng.randint(0, 10**12), rng.randint(0, 10**12))
                          for _ in range(count)])
            for count in (4, 40))
    hd = importlib.import_module("emdut.emdut_hd")
    real = hd._axis_table
    sizes = {}  # (axis, offset) -> bytes of its table; the tables are not kept

    def spy(bs, rs, a, t):
        table = real(bs, rs, a, t)
        if (a, t) not in sizes:  # ints up to 256 are shared, the others not
            sizes[a, t] = sys.getsizeof(table) + sum(
                sys.getsizeof(row) + sum(sys.getsizeof(e) for e in row if e > 256)
                for row in table)
        return table

    monkeypatch.setattr(hd, "_axis_table", spy)
    tracemalloc.start()
    try:
        value, tau, phi, candidates, evaluated = emdut_hd(B, R, Metric.L1,
                                                          return_stats=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (candidates, evaluated) == (160**2, 62)
    assert len(sizes) * 4 * 40 > hd._TABLE_CELLS
    assert sum(sizes.values()) > 2**20
    assert peak < 2**20
    assert matching_cost(B, R, Metric.L1, phi, tau) == value


def test_rotation_examples():
    rot = rotate_45_to_l1(point_set(2, [(0, 0), (2, 0)]))
    assert rot.points == ((F(0), F(0)), (F(1), F(1)))
    with pytest.raises(ValueError):
        rotate_45_to_l1(point_set_1d([1]))


def test_rotation_turns_linf_into_l1():
    rng = random.Random(24)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        B, R = rand_points(rng, m, 2), rand_points(rng, n, 2)
        v_inf = emdut_hd(B, R, Metric.LINF)[0]
        v_rot = emdut_hd(rotate_45_to_l1(B), rotate_45_to_l1(R), Metric.L1)[0]
        assert v_inf == v_rot


def test_translation_invariance():
    rng = random.Random(25)
    for _ in range(20):
        B, R = rand_points(rng, 2, 2), rand_points(rng, 3, 2)
        shift = (F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 3))
        for metric in (Metric.L1, Metric.LINF):
            assert (
                emdut_hd(B.translate(shift), R, metric)[0]
                == emdut_hd(B, R, metric)[0]
            )


def test_empty_blue_set():
    assert emdut_hd(point_set(2, []), point_set(2, [(1, 1)]), Metric.L1) == (
        0,
        (0, 0),
        (),
    )


def test_emd_value_at_examples_and_bad_input():
    B = point_set(2, [(0, 0), (1, 1)])
    R = point_set(2, [(1, 0), (5, 5), (2, 1)])
    assert emd_value_at(B, R, Metric.L1, (F(1), F(0))) == 0
    assert emd_value_at(B, R, Metric.L1, (1, 0)) == emd_hungarian(
        B.translate((1, 0)), R, Metric.L1)[0]
    assert emd_value_at(point_set(2, []), R, Metric.L1, (1, 0)) == 0
    # a short translation used to drop coordinates silently: 2, not 7
    B2, R2 = point_set(2, [(0, 0)]), point_set(2, [(3, 5)])
    assert emd_value_at(B2, R2, Metric.L1, (1, 0)) == 7
    with pytest.raises(ValueError, match="translation has 1 coordinates"):
        emd_value_at(B2, R2, Metric.L1, (1,))
    with pytest.raises(ValueError, match="translation has 3 coordinates"):
        emd_value_at(B2, R2, Metric.L1, (1, 0, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        emd_value_at(B2, point_set_1d([3]), Metric.L1, (1, 0))
    with pytest.raises(ValueError, match="exceeds"):
        emd_value_at(R, B, Metric.L1, (0, 0))
    # floats in the translation are rejected, as in every coordinate
    with pytest.raises(TypeError):
        emd_value_at(B2, R2, Metric.L1, (0.1, 0))
    with pytest.raises(TypeError):
        emd_value_at(point_set(2, []), R, Metric.LINF, (1, 0.5))


def test_solver_cost_matrices_hold_only_ints(monkeypatch):
    # Points are scaled into an integer frame once per solve, so no cost
    # matrix on a solver path ever holds a Fraction, even on rational input.
    # The grid walk adds cached per-axis tables to its prefix rows and
    # reduces them by the last potentials, so those builders are spied too.
    modules = [importlib.import_module(f"emdut.{name}")
               for name in ("emd", "emdut_hd", "hardness")]
    built = []

    def spy(real, out=built):
        def wrapper(*args, **kwargs):
            rows = real(*args, **kwargs)
            out.append(rows)
            return rows
        return wrapper

    for module in modules:
        monkeypatch.setattr(module, "_cost_matrix", spy(module._cost_matrix))
    walk = {name: [] for name in ("_axis_table", "_add_rows", "_reduce_rows")}
    for name, out in walk.items():
        monkeypatch.setattr(modules[1], name, spy(getattr(modules[1], name), out))
    # Linf in d >= 3 enumerates its vertices on the points' doubled frame
    enumerated = []
    monkeypatch.setattr(modules[1], "_linf_vertices",
                        spy(modules[1]._linf_vertices, enumerated))
    planar_b = point_set(2, [(F(1, 3), F(-2, 7)), (F(5, 2), 0)])
    planar_r = point_set(2, [(F(4, 5), F(1, 9)), (2, F(-3, 4)), (F(7, 6), 3)])
    solid_b = point_set(3, [(F(1, 2), 0, F(2, 3))])
    solid_r = point_set(3, [(0, F(1, 5), 1), (F(3, 4), 1, F(-1, 3))])
    for metric in (Metric.L1, Metric.LINF):
        emd_hungarian(planar_b, planar_r, metric)
        emdut_hd(planar_b, planar_r, metric)
        emdut_hd(solid_b, solid_r, metric)
        emd_value_at(planar_b, planar_r, metric, (F(1, 2), F(-5, 3)))
    gi = clique_linf_sym(Graph.from_edges(2, [(1, 2)]), 2)
    assert clique_instance_value(gi) == gi.lam
    # rational candidates share the points' frame too
    path = clique_linf_sym(Graph.from_edges(3, [(1, 2), (2, 3)]), 2)
    decomposed_value(path.parts, Metric.LINF, [(F(1, 2), F(3, 2), F(1, 2), F(3, 2), 0)])
    assert len(built) > 10
    assert all(type(c) is int for rows in built for row in rows for c in row)
    # the walk builds its rows from per-axis tables, so those are checked too
    assert all(walk.values())
    assert all(type(c) is int for out in walk.values()
               for rows in out for row in rows for c in row)
    assert enumerated and all(vertices for vertices, *_ in enumerated)
    assert all(type(c) is int for vertices, *_ in enumerated
               for v in vertices for c in v)


def _search_space_cases():
    """Fixed-seed (B, R, metric) cases for every branch of the solver set-up."""
    rng = random.Random(31)
    for d, m, n in ((1, 3, 5), (2, 2, 4), (3, 2, 3)):
        yield rand_points(rng, m, d), rand_points(rng, n, d), Metric.L1
    for _ in range(2):
        yield rand_points(rng, 2, 2), rand_points(rng, 3, 2), Metric.LINF
    yield rand_points(rng, 1, 3, -4, 4), rand_points(rng, 2, 3, -4, 4), Metric.LINF
    for metric in (Metric.L1, Metric.LINF):  # coprime denominators, repeats
        yield _rational_planar(rng, 2), _rational_planar(rng, 4), metric
    yield point_set(2, [(1, 2), (1, 2)]), point_set(2, [(1, 2), (3, -1), (3, -1)]), Metric.LINF
    yield point_set(3, []), rand_points(rng, 2, 3), Metric.LINF


# sha256 of the reprs below, as the solver gave them when this test was
# written: a change to the candidate set, its order, an answer, a stats
# count or a refusal fails here
SEARCH_SPACE_SHA = "170c2eedbe597a654da1eff78d6e9730edbe38eb79d870ff62af93dd21bed7ee"


def test_search_space_is_pinned():
    sha = hashlib.sha256()
    for B, R, metric in _search_space_cases():
        sha.update(repr(candidate_translations(B, R, metric)).encode())
        sha.update(repr(emdut_hd(B, R, metric, return_stats=True)).encode())
    planar = point_set(2, [(0, 0), (1, 5)]), point_set(2, [(i, 2 * i + 1) for i in range(4)])
    solid = (point_set(3, [(0, 0, 0), (1, 1, 0)]),
             point_set(3, [(1, 2, 3), (4, 0, -1), (2, 2, 2)]))
    # the grid product, the Linf lower bound C(d*d, d) and the Linf subset count
    refused = [(planar, metric, 10) for metric in Metric] + [
        (solid, Metric.L1, 50), (solid, Metric.LINF, 50), (solid, Metric.LINF, 200)]
    for (B, R), metric, budget in refused:
        for solve in (candidate_translations, emdut_hd):
            with pytest.raises(BudgetExceeded) as err:
                solve(B, R, metric, budget)
            sha.update(str(err.value).encode())
    assert sha.hexdigest() == SEARCH_SPACE_SHA
