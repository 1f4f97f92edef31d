import itertools
import random
from fractions import Fraction as F

import pytest

from emdut.core import Metric, point_set
from emdut.emd import emd_1d_monotone
from emdut.emdut_hd import emdut_hd
from emdut.hardness import (
    Graph,
    OVInstance,
    clique_instance_value,
    clique_l1_asym,
    clique_l1_sym,
    clique_linf_sym,
    clique_witness_grid,
    combination_spacing,
    combine_gadgets,
    decide_clique,
    decide_ov,
    decomposed_value,
    has_clique,
    has_orthogonal_pair,
    ov_blue_gadget,
    ov_red_gadget,
    ov_reduction,
)
from emdut.sweep1d import emdut_1d_sweep


def coords(ps):
    return sorted(int(p[0]) for p in ps.points)


def is_orth(x, y):
    return all(a * b == 0 for a, b in zip(x, y))


def test_vector_gadget_point_sets():
    R = ov_red_gadget((1, 0))
    assert coords(R) == [0] * 16 + [2, 3] + [5, 6, 7, 8] + [9] * 16
    B = ov_blue_gadget((0, 1))
    assert coords(B) == [0, 2, 3, 5, 8, 9]
    assert emd_1d_monotone(B, R)[0] == 0  # the two vectors are orthogonal


def test_vector_gadget_sizes():
    rng = random.Random(30)
    for _ in range(30):
        d = rng.randint(1, 5)
        x = tuple(rng.randint(0, 1) for _ in range(d))
        y = tuple(rng.randint(0, 1) for _ in range(d))
        assert len(ov_red_gadget(x)) == 16 * d + sum(4 - 2 * b for b in x)
        assert len(ov_blue_gadget(y)) == 2 * (d + 1)
    with pytest.raises(ValueError):
        ov_red_gadget((0, 2))


def test_gadget_cost_encodes_orthogonality():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 4)
        x = tuple(rng.randint(0, 1) for _ in range(d))
        y = tuple(rng.randint(0, 1) for _ in range(d))
        B, R = ov_blue_gadget(y), ov_red_gadget(x)
        base = emd_1d_monotone(B, R)[0]
        if is_orth(x, y):
            assert base == 0
        else:
            assert base >= 1
            for tau in (F(0), F(1, 3), F(-1, 2), F(1), F(-1)):
                shifted = emd_1d_monotone(B.translate((tau,)), R)[0]
                assert shifted >= max(F(1), abs(tau))


def test_gadget_cost_is_linear_far_away():
    rng = random.Random(32)
    for _ in range(25):
        d = rng.randint(1, 4)
        x = tuple(rng.randint(0, 1) for _ in range(d))
        y = tuple(rng.randint(0, 1) for _ in range(d))
        B, R = ov_blue_gadget(y), ov_red_gadget(x)
        w = 4 * d + 1
        c1 = 2 * (d + 1)
        c2 = 4 * d * d + 5 * d + 1
        for tau in (F(w), F(-w), F(2 * w), F(w) + F(1, 3), -F(w) - F(1, 3)):
            assert emd_1d_monotone(B.translate((tau,)), R)[0] == c1 * abs(tau) - c2


def test_reduction_parameters_and_padding():
    inst = OVInstance(((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0)))
    gi = ov_reduction(inst)
    meta = gi.meta
    assert (meta["n"], meta["delta"], meta["c1"], meta["c2"]) == (4, 8000, 6, 27)
    n, d = meta["n"], meta["d"]
    assert gi.lam == F(meta["c1"] * meta["delta"] * n * (n - 2), 4) - meta["c2"] * (n - 2)
    assert all(p[0] >= 0 and p[0].denominator == 1 for p in gi.blue.points)
    assert all(p[0] >= 0 for p in gi.red.points)
    assert len(gi.red) == 5 * sum(len(ov_red_gadget(x)) for x in meta["x_vectors"])

    # two vectors per side: n would be 3, so both sides gain an all-ones vector
    padded = ov_reduction(OVInstance(((0, 1), (1, 1)), ((1, 0), (1, 1))))
    assert padded.meta["n"] == 4
    assert padded.meta["x_vectors"][-1] == (1, 1)
    assert padded.meta["y_vectors"][-1] == (1, 1)

    with pytest.raises(ValueError):
        ov_reduction(OVInstance(((1, 1, 1, 1, 1),), ((1, 1, 1, 1, 1),)))  # d > n


def test_decide_ov_examples():
    yes = OVInstance(((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0)))
    assert decide_ov(yes) is True and has_orthogonal_pair(yes)
    no = OVInstance(((1, 1), (1, 1), (1, 1)), ((1, 1), (1, 1), (1, 1)))
    assert decide_ov(no) is False and not has_orthogonal_pair(no)
    zero = OVInstance(((1, 1), (0, 0), (1, 1)), ((1, 1), (1, 1), (1, 1)))
    assert decide_ov(zero) is True  # the all-zeros vector is orthogonal to all


def test_reduction_value_never_strictly_between():
    rng = random.Random(33)
    for _ in range(8):
        d = rng.choice([2, 3])
        inst = OVInstance(
            tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(3)),
            tuple(tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(3)),
        )
        gi = ov_reduction(inst)
        value = emdut_1d_sweep(gi.blue, gi.red)[0]
        if has_orthogonal_pair(inst):
            assert value == gi.lam
        else:
            assert value >= gi.lam + 1


def tiny_gadget(rng):
    dim = 2
    m = rng.randint(1, 2)
    n = rng.randint(m, 3)
    B = point_set(dim, [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)])
    R = point_set(dim, [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)])
    return B, R


def test_combine_single_gadget_keeps_value():
    rng = random.Random(34)
    for _ in range(10):
        g = tiny_gadget(rng)
        for metric in (Metric.L1, Metric.LINF):
            blue, red = combine_gadgets([g], metric)
            assert emdut_hd(blue, red, metric)[0] == emdut_hd(g[0], g[1], metric)[0]


def test_combine_two_copies_doubles_joint_value():
    rng = random.Random(35)
    for _ in range(8):
        g = tiny_gadget(rng)
        for metric in (Metric.L1, Metric.LINF):
            blue, red = combine_gadgets([g, g], metric)
            combined = emdut_hd(blue, red, metric)[0]
            # joint optimum: one translation serving both copies
            joint = emdut_hd(g[0], g[1], metric)[0]
            assert combined == 2 * joint


def test_combine_degenerate_spacing_guard():
    g = (point_set(2, [(0, 0)]), point_set(2, [(0, 0)]))
    assert combination_spacing([g, g])[1] == 1
    blue, red = combine_gadgets([g, g], Metric.L1)
    assert emdut_hd(blue, red, Metric.L1)[0] == 0
    assert blue.points[0] == (F(1), F(0)) and blue.points[1] == (F(2), F(0))


def l1_part_candidates(parts):
    """Per-axis product of the within-gadget alignment offsets.

    For fixed per-gadget matchings the summed L1 cost separates per axis
    and is minimised on a box whose corners have each coordinate at such
    an offset, so the product holds an optimal translation of the
    decomposed objective.
    """
    return itertools.product(*(
        sorted({int(r[a] - b[a]) for bs, rs in parts for b in bs for r in rs})
        for a in range(parts[0][0].dim)
    ))


def test_combined_value_splits_over_gadgets():
    rng = random.Random(36)
    for _ in range(8):
        gadgets = [tiny_gadget(rng) for _ in range(rng.randint(2, 3))]
        blue, red = combine_gadgets(gadgets, Metric.L1)
        whole = emdut_hd(blue, red, Metric.L1)[0]
        split = decomposed_value(gadgets, Metric.L1, l1_part_candidates(gadgets))
        assert whole == split


def test_clique_l1_asym_cases():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    gi = clique_l1_asym(tri, 3)
    assert gi.lam == 3 * 1 * 3  # C(3,2) * (d-2) * N with d = k = 3
    assert clique_instance_value(gi) == gi.lam
    assert emdut_hd(gi.blue, gi.red, Metric.L1)[0] == gi.lam  # full solver check
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    gi2 = clique_l1_asym(path, 3)
    assert clique_instance_value(gi2) >= gi2.lam + 1
    # edge-grid points: coordinate i is u, coordinate j is v, others b
    assert set(gi.parts[0][1].points) == {
        (F(1), F(2), F(0)), (F(1), F(3), F(0)), (F(2), F(3), F(0))
    }
    assert set(gi.parts[1][1].points) == {
        (F(1), F(2), F(3)), (F(1), F(3), F(3)), (F(2), F(3), F(3))
    }


def test_clique_l1_sym_cases():
    e1 = Graph.from_edges(2, [(1, 2)])
    gi = clique_l1_sym(e1, 2)
    assert gi.lam == 0  # ((d+4)|E| - 8) * N = (8 - 8) * N
    assert clique_instance_value(gi) == 0
    assert emdut_hd(gi.blue, gi.red, Metric.L1)[0] == 0  # full solver check
    for b, r in gi.parts:
        assert len(b) == len(r)
    # filler coordinates: N at i and j, -N at i+k and j+k
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    gi3 = clique_l1_sym(tri, 2)
    fillers = [p for p in gi3.parts[0][0].points if p != (0, 0, 0, 0)]
    assert len(fillers) == len(tri.edges) - 1
    assert all(p == (F(3), F(3), F(-3), F(-3)) for p in fillers)
    with pytest.raises(ValueError):
        clique_l1_sym(Graph.from_edges(3, []), 2)


def test_clique_linf_sym_cases():
    e1 = Graph.from_edges(2, [(1, 2)])
    gi = clique_linf_sym(e1, 2)
    n_nodes, m_edges, k = 2, 1, 2
    assert gi.lam == 20 * n_nodes * k * 2 * (k - 1) + 20 * n_nodes * m_edges * 1
    assert len(gi.parts) == 4 * k * (k - 1) + 2 * 1
    assert clique_instance_value(gi) == gi.lam
    # tether red points sit at 10N on the doubled coordinate pair
    q_points = {gi.parts[0][1].points[0], gi.parts[1][1].points[0]}
    assert q_points == {(F(20), F(0), F(20), F(0), F(0)),
                        (F(-20), F(0), F(-20), F(0), F(0))}
    with pytest.raises(ValueError):
        clique_linf_sym(Graph.from_edges(2, []), 2)


def test_clique_linf_lower_bound_sampled():
    # summed gadget cost stays at/above the threshold at random translations
    rng = random.Random(37)
    for edges, expect_clique in (
        ([(1, 2)], True),
        ([(1, 3), (2, 3)], False),
    ):
        g = Graph.from_edges(3, edges)
        gi = clique_linf_sym(g, 2)
        floor = gi.lam if expect_clique else gi.lam + 1
        for _ in range(60):
            tau = tuple(F(rng.randint(-12, 12), rng.choice([1, 2])) for _ in range(5))
            assert decomposed_value(gi.parts, Metric.LINF, [tau]) >= floor


def test_decide_clique_named_graphs():
    tri = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    empty = Graph.from_edges(3, [])
    assert decide_clique(tri, 3, "l1-asym") is True
    assert decide_clique(path, 3, "l1-asym") is False
    assert decide_clique(empty, 3, "l1-asym") is False
    for variant in ("l1-sym", "linf-sym"):
        assert decide_clique(tri, 2, variant) is True
        assert decide_clique(empty, 2, variant) is False
    # k exceeding the node count still generates and decides no
    assert decide_clique(Graph.from_edges(2, [(1, 2)]), 3, "l1-asym") is False


def test_decide_clique_agrees_with_enumeration_on_three_node_graphs():
    pairs = list(itertools.combinations(range(1, 4), 2))
    for bits in range(8):
        g = Graph.from_edges(3, [pairs[i] for i in range(3) if bits >> i & 1])
        if not g.edges:
            continue
        for variant, k in (("l1-asym", 3), ("l1-sym", 2), ("linf-sym", 2)):
            assert decide_clique(g, k, variant) == has_clique(g, k)


def test_witness_grid_shape():
    grid = list(clique_witness_grid(2, 2, "linf-sym"))
    assert len(grid) == 4 and all(len(t) == 5 and t[4] == 0 for t in grid)
    assert all(t[0] == t[2] and t[1] == t[3] for t in grid)
