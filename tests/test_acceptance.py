"""Acceptance suite: ten end-to-end criteria, exact equality throughout.

All arithmetic in the library is rational, so every comparison below is
an exact equality or an exact integer-gap bound; there are no float
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from emdut.cli import main as cli_main
from emdut.core import Metric
from emdut.emd import emd_1d_monotone, emd_bruteforce
from emdut.emdut_hd import candidate_translations, emd_value_at, emdut_hd
from emdut.envelope import NaiveEnvelope, TreeEnvelope
from emdut.hardness import (
    Graph,
    OVInstance,
    clique_instance,
    clique_instance_value,
    has_clique,
    has_orthogonal_pair,
    ov_blue_gadget,
    ov_red_gadget,
    ov_reduction,
)
from emdut.sweep1d import emdut_1d_alignment_oracle, emdut_1d_sweep, emdut_1d_symmetric

from conftest import brute_force_1d_translated, rand_ints_1d, rand_points
from oracles import rotate_45_to_l1


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


@pytest.fixture(scope="module")
def triad_instances():
    rng = random.Random(0xACCE01)
    out = []
    for _ in range(500):
        m = rng.randint(0, 8)
        n = rng.randint(max(m, 1), 10)
        out.append((rand_ints_1d(rng, m), rand_ints_1d(rng, n)))
    return out


def test_criterion_01_1d_oracle_triad(triad_instances):
    t0 = time.perf_counter()
    for B, R in triad_instances:
        value, tau, phi = emdut_1d_sweep(B, R)
        assert value == emdut_1d_alignment_oracle(B, R)
        assert value == brute_force_1d_translated(B, R)
        cost = sum(
            abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(len(B))
        )
        assert cost == value
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"triad took {elapsed:.1f}s"
    _report(1, f"sweep == alignment oracle == full brute force on 500 instances "
               f"({elapsed:.1f}s)")


def test_criterion_02_symmetric_asymmetric_agreement():
    rng = random.Random(0xACCE02)
    for _ in range(200):
        n = rng.randint(1, 50)
        B = rand_ints_1d(rng, n, -60, 60)
        R = rand_ints_1d(rng, n, -60, 60)
        v_med, tau, phi = emdut_1d_symmetric(B, R)
        v_sweep, _, _ = emdut_1d_sweep(B, R)
        assert v_med == v_sweep
        cost = sum(abs(B.points[j][0] + tau - R.points[phi[j]][0]) for j in range(n))
        assert cost == v_med
    _report(2, "median algorithm == sweep on 200 symmetric instances, "
               "median translation attains the value")


def test_criterion_03_sweep_internal_invariants(triad_instances):
    checked_pieces = 0
    for idx, (B, R) in enumerate(triad_instances):
        m, n = len(B), len(R)
        collect = idx % 12 == 0  # cost-piece spot checks on sampled instances
        result = emdut_1d_sweep(
            B, R, check=True, return_stats=True, collect_pieces=collect
        )
        stats = result[3]
        assert stats.events <= 4 * n * m + 4
        for bs, bt, first_moved in stats.moves:
            # every reassignment moves a run suffix forward by one red index
            assert bs <= first_moved <= bt
        if collect and stats.pieces:
            rng = random.Random(idx)
            for lo, hi, slope, intercept in stats.pieces:
                for _ in range(10):
                    tau = lo + (hi - lo) * F(rng.randint(1, 99), 100)
                    assert slope * tau + intercept == emd_1d_monotone(
                        B.translate((tau,)), R
                    )[0]
                    checked_pieces += 1
    assert checked_pieces > 1000
    _report(3, f"move monotonicity, suffix-only changes, event bound 4nm+4, "
               f"and {checked_pieces} interior cost-piece checks")


def test_criterion_04_envelope_tree_equals_reference():
    sequences = 1000
    rng = random.Random(0xACCE04)
    for seq in range(sequences):
        naive = NaiveEnvelope()
        tree = TreeEnvelope()
        k = 0
        for op in range(rng.randint(10, 200)):
            action = rng.random()
            if action < 0.45 or k == 0:
                pos = rng.randrange(k + 1)
                lo = naive.get(pos - 1)[0] if pos > 0 else None
                hi = naive.get(pos)[0] if pos < k else None
                if lo is None:
                    lo = (hi if hi is not None else 0) - 16
                if hi is None:
                    hi = lo + 16
                a = rng.randint(math.ceil(lo), math.floor(hi))
                b = rng.randint(-60, 60)
                naive.insert(pos, a, b, op)
                tree.insert(pos, a, b, op)
                k += 1
            elif action < 0.62:
                pos = rng.randrange(k)
                naive.remove(pos)
                tree.remove(pos)
                k -= 1
            else:
                lo_pos = rng.randrange(k)
                da = rng.choice([0, 0, -1, -3])
                db = rng.randint(-40, 40)
                if lo_pos == 0 or naive.get(lo_pos - 1)[0] <= naive.get(lo_pos)[0] + da:
                    naive.add_range(lo_pos, k, da, db)
                    tree.add_range(lo_pos, k, da, db)
            if k:
                tau = F(rng.randint(-150, 150), rng.choice([1, 1, 2]))
                assert naive.value_at(tau) == tree.value_at(tau)
                t0 = rng.randint(-100, 100)
                assert naive.root_piece(t0, 1) == tree.root_piece(t0, 1)
    _report(4, f"augmented tree == list reference across {sequences} op sequences")


def test_criterion_05_ov_end_to_end():
    rng = random.Random(0xACCE05)
    t0 = time.perf_counter()
    yes = no = 0
    for trial in range(200):
        d = 2 if trial % 2 == 0 else 3
        density = 0.5 if trial % 4 < 2 else 0.85  # denser bits make no-instances
        X = tuple(
            tuple(int(rng.random() < density) for _ in range(d)) for _ in range(3)
        )
        Y = tuple(
            tuple(int(rng.random() < density) for _ in range(d)) for _ in range(3)
        )
        inst = OVInstance(X, Y)
        gi = ov_reduction(inst)
        value = emdut_1d_sweep(gi.blue, gi.red)[0]
        direct = has_orthogonal_pair(inst)
        assert (value <= gi.lam) == direct
        if direct:
            assert value == gi.lam
            yes += 1
        else:
            assert value >= gi.lam + 1
            no += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"OV suite took {elapsed:.1f}s"
    _report(5, f"decision == direct check on 200 instances ({yes} yes / {no} no), "
               f"values hit the threshold exactly ({elapsed:.0f}s)")


def test_criterion_06_gadget_point_level():
    rng = random.Random(0xACCE06)
    for _ in range(50):
        d = rng.randint(1, 4)
        x = tuple(rng.randint(0, 1) for _ in range(d))
        y = tuple(rng.randint(0, 1) for _ in range(d))
        B, R = ov_blue_gadget(y), ov_red_gadget(x)
        orth = all(a * b == 0 for a, b in zip(x, y))
        assert (emd_1d_monotone(B, R)[0] == 0) == orth
        if not orth:
            for tau in (F(0), F(1, 2), F(-1, 2), F(1), F(-1)):
                assert emd_1d_monotone(B.translate((tau,)), R)[0] >= max(F(1), abs(tau))
        w = 4 * d + 1
        c1, c2 = 2 * (d + 1), 4 * d * d + 5 * d + 1
        for tau in (F(w), F(-w), F(2 * w), F(-2 * w), F(w) + F(1, 3), -F(w) - F(1, 3)):
            assert emd_1d_monotone(B.translate((tau,)), R)[0] == c1 * abs(tau) - c2
    _report(6, "orthogonality iff zero gadget cost on 50 pairs; far-field cost "
               "linear with the recorded constants")


def test_criterion_07_high_dimensional_oracle():
    rng = random.Random(0xACCE07)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        B, R = rand_points(rng, m, 2), rand_points(rng, n, 2)
        for metric in (Metric.L1, Metric.LINF):
            value, tau, phi = emdut_hd(B, R, metric)
            brute = min(
                emd_bruteforce(B.translate(t), R, metric)
                for t in candidate_translations(B, R, metric)
            )
            assert value == brute
            assert value <= emd_value_at(B, R, metric, (F(0), F(0)))
    _report(7, "arrangement solver == per-candidate brute force on 100 planar "
               "instances, both metrics; never above the untranslated cost")


def test_criterion_08_linf_equals_rotated_l1():
    rng = random.Random(0xACCE08)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        B, R = rand_points(rng, m, 2), rand_points(rng, n, 2)
        v_inf = emdut_hd(B, R, Metric.LINF)[0]
        v_rot = emdut_hd(rotate_45_to_l1(B), rotate_45_to_l1(R), Metric.L1)[0]
        assert v_inf == v_rot
    _report(8, "Linf optimum equals L1 optimum after the half-turn coordinate "
               "change on 100 planar instances")


def _all_graphs(max_nodes):
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(2 ** len(pairs)):
            yield Graph.from_edges(
                n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            )


def test_criterion_09_clique_end_to_end():
    t0 = time.perf_counter()
    totals = {}
    for variant, k in (("l1-asym", 3), ("l1-sym", 2), ("linf-sym", 2)):
        graphs = yes = 0
        for g in _all_graphs(4):
            graphs += 1
            direct = has_clique(g, k)
            if not g.edges:
                assert direct is False
                continue
            gi = clique_instance(g, k, variant)
            value = clique_instance_value(gi)
            assert (value <= gi.lam) == direct
            if direct:
                assert value == gi.lam
                yes += 1
            else:
                assert value >= gi.lam + 1
        totals[variant] = (graphs, yes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"clique suite took {elapsed:.1f}s"
    _report(9, f"decisions match clique enumeration on all graphs up to 4 nodes "
               f"{totals}, thresholds hit exactly ({elapsed:.0f}s)")


def test_criterion_10_bench_scaling_trend(capsys):
    # Three runs, and the fastest time per size: one run alone is at the
    # mercy of whatever else the machine does while it is timed.
    runs = []
    for _ in range(3):
        code = cli_main(["bench", "sweep", "--sizes", "250,500,1000,2000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,events,millis"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [250, 500, 1000, 2000]
        for r in rows:
            n, m, events = int(r[0]), int(r[1]), int(r[2])
            assert events <= 4 * n * m + 4
        runs.append([float(r[3]) for r in rows])
    millis = [min(times) for times in zip(*runs)]
    ratios = [b / a for a, b in zip(millis, millis[1:])]
    assert all(2.5 <= r <= 6.5 for r in ratios), (millis, ratios)
    _report(10, f"bench completed; consecutive-size time ratios "
                f"{[round(r, 2) for r in ratios]} lie in [2.5, 6.5]")


def test_asymmetric_sweep_event_scaling():
    # criterion 10's bench runs |B| = |R|, where no run ever moves; here
    # n = 2m, so reassignments and envelopes take part.  Events, not
    # times, are compared, so the bounds cannot flake.
    events = []
    for m in (50, 100, 200):
        n = 2 * m
        rng = random.Random(0xACCE11 + m)
        B, R = rand_ints_1d(rng, m, 0, 10 * n), rand_ints_1d(rng, n, 0, 10 * n)
        *_, stats = emdut_1d_sweep(B, R, return_stats=True)
        assert stats.events <= 4 * n * m + 4
        assert stats.reassignment_events > 0
        events.append(stats.events)
    ratios = [b / a for a, b in zip(events, events[1:])]
    assert all(3 <= r <= 5 for r in ratios), (events, ratios)
