import hashlib
import itertools
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import emdut.core as core
import emdut.hardness as hardness
from emdut.core import Metric, point_set, serialize_point_set
from emdut.emd import emd_1d_monotone
from emdut.emdut_hd import DEFAULT_BUDGET, BudgetExceeded, emdut_hd
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
    with pytest.raises(ValueError, match="vector entries must be 0/1"):
        ov_blue_gadget([2])


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


@pytest.mark.parametrize("x_vectors,y_vectors", [
    (((1, 0),), ((0, 1),)),
    (((1, 0), (0, 1)), ((0, 1), (1, 1))),  # padded to n = 4
    (((1, 0, 1), (0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 0, 0)),
     ((0, 1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 1), (0, 1, 0))),
])
def test_ov_reduction_coerces_each_point_once(monkeypatch, x_vectors, y_vectors):
    # the gadgets stay ints until the two final point sets; a reduction that
    # built a PointSet per gadget would make 2(n - 1) + 2 of them.  Each
    # distinct coordinate is coerced once, and its copies share one point.
    # A PointSet is built by __init__, which checks it, or by _unchecked
    built, coerced = [], []
    init, unchecked = core.PointSet.__init__, core.PointSet._unchecked
    scalar = hardness.scalar
    monkeypatch.setattr(core.PointSet, "__init__",
                        lambda ps, *args: init(ps, *args) or built.append(len(ps)))
    monkeypatch.setattr(core.PointSet, "_unchecked", classmethod(
        lambda cls, dim, points: built.append(len(points)) or unchecked(dim, points)))
    monkeypatch.setattr(hardness, "scalar", lambda v: coerced.append(v) or scalar(v))
    gi = ov_reduction(OVInstance(x_vectors, y_vectors))
    assert built == [len(gi.blue), len(gi.red)]
    points = gi.blue.points + gi.red.points
    assert sorted(coerced) == sorted({p[0] for p in points})
    first = {}
    for p in points:
        assert first.setdefault(p[0], p) is p


def test_ov_reduction_holds_one_point_per_distinct_coordinate_in_memory():
    # 9 vectors of d = 4: 3440 reds on 650 distinct coordinates; a point per
    # copy held about 480 KB after the call, a shared one about 120 KB
    rng = random.Random(9)
    x, y = (tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(9))
            for _ in range(2))
    inst = OVInstance(x, y)
    tracemalloc.start()
    try:
        gi = ov_reduction(inst)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(gi.blue), len(gi.red)) == (90, 3440)
    assert held < 250_000, held


def test_decide_ov_examples():
    yes = OVInstance(((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0)))
    assert decide_ov(yes) is True and has_orthogonal_pair(yes)
    no = OVInstance(((1, 1), (1, 1), (1, 1)), ((1, 1), (1, 1), (1, 1)))
    assert decide_ov(no) is False and not has_orthogonal_pair(no)
    zero = OVInstance(((1, 1), (0, 0), (1, 1)), ((1, 1), (1, 1), (1, 1)))
    assert decide_ov(zero) is True  # the all-zeros vector is orthogonal to all


def test_decide_ov_refuses_past_the_pair_guard(monkeypatch):
    inst = OVInstance(((1, 0),), ((0, 1),))
    gi = ov_reduction(inst)
    monkeypatch.setattr(hardness, "OV_PAIR_GUARD", len(gi.blue) * len(gi.red) - 1)
    with pytest.raises(ValueError, match=r"exceeds the decision guard of \d+ pairs"):
        decide_ov(inst)
    monkeypatch.setattr(hardness, "OV_PAIR_GUARD", len(gi.blue) * len(gi.red))
    assert decide_ov(inst) is True


def test_malformed_hardness_inputs_raise_value_error():
    with pytest.raises(ValueError, match="vector dimension must be >= 1"):
        OVInstance(((),), ((),))
    # a bit is the int 0 or 1; 1.0 == 1 and True == 1, so the type is checked
    for bit in (1.0, 0.0, True, False):
        for x, y in (((bit, 0), (0, 1)), ((1, 0), (0, bit))):
            with pytest.raises(ValueError, match=r"non-binary entry in vector \("):
                OVInstance((x,), (y,))
        for gadget in (ov_red_gadget, ov_blue_gadget):
            with pytest.raises(ValueError, match="vector entries must be 0/1"):
                gadget((0, bit))
    # the two sides may come as a list and a tuple; each is checked as given
    inst = OVInstance([[1, 0]], ((0, 1),))
    assert has_orthogonal_pair(inst)
    for x, y in (([[1, 2]], ((0, 1),)), ([[1, 0]], ((0, 2),))):
        with pytest.raises(ValueError, match="non-binary entry in vector"):
            OVInstance(x, y)
    for edge in ((2, 1), (0, 1), (1, 4)):
        with pytest.raises(ValueError, match="bad edge"):
            Graph(3, frozenset({edge}))
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError, match="unknown variant 'l2-sym'"):
        hardness.clique_instance(g, 2, "l2-sym")
    one = (point_set(1, [(0,)]), point_set(1, [(0,), (1,)]))
    two = (point_set(2, [(0, 0)]), point_set(2, [(0, 0)]))
    for gadgets, message in (([], "need at least one gadget"),
                             ([one, two], "gadgets must share one dimension"),
                             ([one, one[::-1]], r"every gadget needs \|B\| <= \|R\|")):
        with pytest.raises(ValueError, match=message):
            combine_gadgets(gadgets)


def test_has_clique_on_at_most_one_node():
    # every graph has the empty clique, and a one-node clique unless it is empty
    for n in (0, 1, 3):
        g = Graph.from_edges(n, [])
        assert has_clique(g, 0) and has_clique(g, -1)
        assert has_clique(g, 1) == (n >= 1)


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
            blue, red = combine_gadgets([g])
            assert emdut_hd(blue, red, metric)[0] == emdut_hd(g[0], g[1], metric)[0]


def test_combine_two_copies_doubles_joint_value():
    rng = random.Random(35)
    for _ in range(8):
        g = tiny_gadget(rng)
        for metric in (Metric.L1, Metric.LINF):
            blue, red = combine_gadgets([g, g])
            combined = emdut_hd(blue, red, metric)[0]
            # joint optimum: one translation serving both copies
            joint = emdut_hd(g[0], g[1], metric)[0]
            assert combined == 2 * joint


def test_combine_degenerate_spacing_guard():
    g = (point_set(2, [(0, 0)]), point_set(2, [(0, 0)]))
    assert combination_spacing([g, g])[1] == 1
    blue, red = combine_gadgets([g, g])
    assert emdut_hd(blue, red, Metric.L1)[0] == 0
    assert blue.points[0] == (F(1), F(0)) and blue.points[1] == (F(2), F(0))


def test_combination_spacing_on_rational_gadgets():
    rng = random.Random(37)
    for _ in range(30):
        dim = rng.randint(1, 3)
        gadgets = [
            tuple(point_set(dim, [[F(rng.randint(-50, 50), rng.randint(1, 9))
                                   for _ in range(dim)] for _ in range(size)])
                  for size in (rng.randint(0, 2), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        points = [p for b, r in gadgets for ps in (b, r) for p in ps.points]
        diameter = sum(max(p[a] for p in points) - min(p[a] for p in points)
                       for a in range(dim))
        assert combination_spacing(gadgets) == (
            diameter, (2 * len(points) + 5) * diameter or 1)


@pytest.mark.parametrize("make", [clique_l1_asym, clique_l1_sym, clique_linf_sym])
def test_each_clique_generator_makes_one_spacing_pass(monkeypatch, make):
    calls = []

    def spy(gadgets):
        calls.append(len(gadgets))
        return combination_spacing(gadgets)

    monkeypatch.setattr(hardness, "combination_spacing", spy)
    gi = make(Graph.from_edges(3, [(1, 2), (2, 3)]), 3)
    assert calls == [len(gi.parts)]
    # the recorded U is the parts' spacing, and gadget 1 sits at U on axis 1
    assert gi.meta["U"] == combination_spacing(gi.parts)[1]
    assert gi.blue.points[0][0] == gi.parts[0][0].points[0][0] + gi.meta["U"]


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
        blue, red = combine_gadgets(gadgets)
        whole = emdut_hd(blue, red, Metric.L1)[0]
        split = decomposed_value(gadgets, Metric.L1, l1_part_candidates(gadgets))
        assert whole == split


# Graphs on 2..5 nodes that the clique generators are pinned on, each with
# k = 2, 3 and 4 (k may exceed the node count; the generators still build)
PINNED_GRAPHS = (
    (2, [(1, 2)]),
    (3, [(1, 2), (2, 3)]),
    (3, [(1, 2), (1, 3), (2, 3)]),
    (4, [(1, 2), (1, 3), (1, 4)]),
    (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
)
# OV vector sets: two vectors per side gain the all-ones padding, three do not
PINNED_OV = (
    (((1, 0), (0, 1)), ((0, 1), (1, 1))),
    (((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 1), (1, 0))),
    (((1,),), ((0,),)),
    (((1, 0, 1), (0, 1, 1), (1, 1, 0)), ((1, 1, 1), (0, 0, 1), (1, 0, 0))),
)
# sha256 of every instance below, as the generators produced them when this
# test was written: a change that moves a point, a part, lam or a meta entry
# fails here
PINNED_SHA = {
    "l1-asym": "afd8d343ca02c37813b4d98dd49f1098be671f8ebe6fe058729f4c99adb5efd1",
    "l1-sym": "5cdd3636a6fc50f5d312f01c2685e62f18740fe1233fe59cbfe6538216c16024",
    "linf-sym": "97e90095ea20f1f1b7d6e8a2dc6deb015908adf051e1832403caeab2ed09dbd8",
    "ov": "8e9600ff690783d3773bf3e832f11b6d719d9e900bbcd4ca939fd133aa84a150",
}


def _instance_digest(instances):
    sha = hashlib.sha256()
    for gi in instances:
        texts = [serialize_point_set(gi.blue), serialize_point_set(gi.red),
                 f"{gi.lam}\n", f"{sorted(gi.meta.items())!r}\n"]
        texts += [serialize_point_set(ps) for part in gi.parts for ps in part]
        for text in texts:
            sha.update(text.encode())
    return sha.hexdigest()


def test_generated_instances_are_pinned():
    digests = {
        variant: _instance_digest(
            make(Graph.from_edges(n, edges), k)
            for n, edges in PINNED_GRAPHS for k in (2, 3, 4))
        for variant, make in (("l1-asym", clique_l1_asym), ("l1-sym", clique_l1_sym),
                              ("linf-sym", clique_linf_sym))
    }
    digests["ov"] = _instance_digest(
        ov_reduction(OVInstance(xs, ys)) for xs, ys in PINNED_OV)
    assert digests == PINNED_SHA


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


def test_decomposed_value_validates_its_candidates():
    # candidates are coerced like points, and the family must be non-empty
    # and match the parts' dimension
    gi = clique_linf_sym(Graph.from_edges(2, [(1, 2)]), 2)
    assert decomposed_value(gi.parts, Metric.LINF, [("1", "2", "1", "2", "0")]) == gi.lam
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="empty"):
            decomposed_value(gi.parts, Metric.LINF, empty)
    for tau in ((1, 2, 1, 2, 0, 0), (1, 2, 1, 2)):
        with pytest.raises(ValueError, match="coordinates, expected 5"):
            decomposed_value(gi.parts, Metric.LINF, [(1, 2, 1, 2, 0), tau])
    with pytest.raises(TypeError):
        decomposed_value(gi.parts, Metric.LINF, [(0.5, 2, 1, 2, 0)])


def test_decomposed_value_validates_its_parts():
    # each part meets the solvers' size contract in the first part's
    # dimension, checked before any candidate is drawn; unchecked, a 2D
    # blue beside a 3D red sums truncated axes to 0, and |B| > |R| or an
    # empty red set fails deep inside the solve
    one = (point_set(2, [(0, 0)]), point_set(2, [(1, 1)]))
    drawn = []

    def family():
        drawn.append(1)
        yield (0, 0)

    for parts, message in (
        ([(point_set(2, [(0, 0)]), point_set(3, [(1, 1, 1)]))], "dimension mismatch: 2 vs 3"),
        ([one, (point_set(2, [(0, 0), (1, 1)]), point_set(2, [(1, 1)]))],
         r"\|B\| = 2 exceeds \|R\| = 1"),
        ([one, (point_set(2, [(0, 0)]), point_set(2, []))], r"\|B\| = 1 exceeds \|R\| = 0"),
        ([one, (point_set(3, [(0, 0, 0)]), point_set(3, [(1, 1, 1)]))],
         "2-dimensional point sets required, got 3"),
    ):
        with pytest.raises(ValueError, match=message):
            decomposed_value(parts, Metric.L1, family())
    assert drawn == []
    assert decomposed_value([one, one], Metric.L1, family()) == 4


def test_decomposed_value_solves_each_chunk_before_drawing_the_next(monkeypatch):
    # a lazy family is framed a chunk at a time: the first solve comes before
    # a second chunk is drawn, and the minimum, carried across chunks with
    # different denominators, equals the one-chunk minimum
    gi = clique_linf_sym(Graph.from_edges(4, [(1, 2), (3, 4)]), 2)
    family = [(tau[0] + F(i % 3, 2 + i % 5), *tau[1:])
              for i, tau in enumerate(clique_witness_grid(2, 4))]
    family += list(clique_witness_grid(2, 4))
    whole = decomposed_value(gi.parts, Metric.LINF, family)
    assert whole == gi.lam
    monkeypatch.setattr(hardness, "_CANDIDATE_CHUNK", 3)
    drawn, first_solve = [], []
    real = hardness._min_cost_assignment

    def spy(cost):
        if not first_solve:
            first_solve.append(len(drawn))
        return real(cost)

    def counted(taus):
        for tau in taus:
            drawn.append(tau)
            yield tau

    monkeypatch.setattr(hardness, "_min_cost_assignment", spy)
    assert decomposed_value(gi.parts, Metric.LINF, counted(family)) == whole
    assert first_solve == [3] and len(drawn) == len(family) == 32
    # a bad candidate in a later chunk is named by its index in the family
    with pytest.raises(ValueError, match="candidate 4 has 4 coordinates, expected 5"):
        decomposed_value(gi.parts, Metric.LINF, family[:4] + [(1, 2, 1, 2)])


def test_linf_sym_value_refuses_a_grid_past_the_budget_at_once():
    # N^k = 60^4, about 1.3e7 witness-grid points, exceeds DEFAULT_BUDGET:
    # walking them would take hours, so the value refuses before the first
    t0 = time.perf_counter()
    gi = clique_linf_sym(Graph.from_edges(60, [(1, 60)]), 4)
    with pytest.raises(BudgetExceeded, match="needs 12960000 "):
        clique_instance_value(gi)
    assert time.perf_counter() - t0 < 2


def test_linf_sym_value_counts_part_solves_against_the_budget():
    # 100^3 = 1e6 grid points fit DEFAULT_BUDGET, but each costs one solve per
    # part, 30 of them here: about 6 minutes of solves, so the value refuses
    t0 = time.perf_counter()
    gi = clique_linf_sym(Graph.from_edges(100, [(1, 100)]), 3)
    assert len(gi.parts) == 30 and 100**3 <= DEFAULT_BUDGET
    with pytest.raises(BudgetExceeded, match="needs 1000000 .* budget of 333333$"):
        clique_instance_value(gi)
    assert time.perf_counter() - t0 < 2


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
    with pytest.raises(ValueError, match="k must be >= 2"):
        decide_clique(tri, 1, "l1-asym")


def test_decide_clique_agrees_with_enumeration_on_three_node_graphs():
    pairs = list(itertools.combinations(range(1, 4), 2))
    for bits in range(8):
        g = Graph.from_edges(3, [pairs[i] for i in range(3) if bits >> i & 1])
        if not g.edges:
            continue
        for variant, k in (("l1-asym", 3), ("l1-sym", 2), ("linf-sym", 2)):
            assert decide_clique(g, k, variant) == has_clique(g, k)


def test_witness_grid_shape():
    grid = list(clique_witness_grid(2, 2))
    assert len(grid) == 4 and all(len(t) == 5 and t[4] == 0 for t in grid)
    assert all(t[0] == t[2] and t[1] == t[3] for t in grid)
