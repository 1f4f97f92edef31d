import math
import random
from fractions import Fraction as F

import pytest

from emdut.envelope import NaiveEnvelope, TreeEnvelope, node_allocations


BACKENDS = (NaiveEnvelope, TreeEnvelope)


def test_build_examples():
    for cls in BACKENDS:
        empty = cls()
        assert empty.root_piece(F(0)) is None
        with pytest.raises(ValueError):
            empty.value_at(F(0))

        single = cls([(F(-2), F(4), 0)])
        assert single.value_at(F(0)) == 4
        assert single.first_root(F(0)) == 2

        pair = cls([(F(-2), F(4), 0), (F(-1), F(1), 1)])
        assert pair.value_at(F(0)) == 1
        assert pair.value_at(F(3)) == -2
        assert pair.first_root(F(0)) == 1


def test_root_none_when_all_positive_constant():
    for cls in BACKENDS:
        flat = cls([(F(0), F(3), 0), (F(0), F(5), 1)])
        assert flat.first_root(F(-100)) is None


def test_root_tag_names_a_line_at_or_below_zero_at_the_root():
    rng = random.Random(78)
    for trial in range(300):
        k = rng.randint(1, 8)
        slopes = sorted(rng.randint(-6, 3) for _ in range(k))
        lines = [(a, F(rng.randint(-40, 40), rng.choice([1, 2, 3])), i)
                 for i, a in enumerate(slopes)]
        by_tag = {tag: (a, b) for a, b, tag in lines}
        t0 = F(rng.randint(-30, 30), rng.choice([1, 2]))
        roots = []
        for cls in BACKENDS:
            got = cls(lines, seed=trial).root_piece(t0)
            roots.append(got[0] if got else None)
            if got is None:
                continue
            root, tag = got
            a, b = by_tag[tag]
            assert root >= t0
            assert a * root + b <= 0, (cls.__name__, lines, t0, got)
        assert roots[0] == roots[1]


def _random_ops(seed, ops, naive, tree, slope_lo=-40, slope_hi=40):
    rng = random.Random(seed)
    k = len(naive)
    for step in range(ops):
        action = rng.random()
        if action < 0.45 or k == 0:
            pos = rng.randrange(k + 1)
            lo = naive.get(pos - 1)[0] if pos > 0 else None
            hi = naive.get(pos)[0] if pos < k else None
            if lo is None:
                lo = (hi if hi is not None else 0) - 20
            if hi is None:
                hi = lo + 20
            a = rng.randint(math.ceil(lo), math.floor(hi))
            b = rng.randint(-50, 50)
            naive.insert(pos, a, b, step)
            tree.insert(pos, a, b, step)
            k += 1
        elif action < 0.62:
            pos = rng.randrange(k)
            assert naive.remove(pos)[:2] == tree.remove(pos)[:2]
            k -= 1
        else:
            lo = rng.randrange(k)
            da = rng.choice([0, 0, -1, -2, -4])
            db = rng.randint(-30, 30)
            if lo == 0 or naive.get(lo - 1)[0] <= naive.get(lo)[0] + da:
                naive.add_range(lo, k, da, db)
                tree.add_range(lo, k, da, db)
        if k:
            for tau in (rng.randint(-60, 60), F(rng.randint(-99, 99), 2)):
                assert naive.value_at(tau) == tree.value_at(tau)
            t0 = rng.randint(-80, 80)
            assert naive.first_root(t0) == tree.first_root(t0)
    return k


def test_tree_matches_naive_reference():
    for seed in range(60):
        naive = NaiveEnvelope()
        tree = TreeEnvelope(seed=seed)
        _random_ops(seed, 60, naive, tree)


def test_lazy_offsets_flush_to_same_answers():
    # rebuilding from the flushed line list must not change any query
    rng = random.Random(77)
    for seed in range(20):
        naive = NaiveEnvelope()
        tree = TreeEnvelope(seed=seed)
        _random_ops(1000 + seed, 50, naive, tree)
        rebuilt = TreeEnvelope(tree.lines(), seed=seed + 1)
        assert rebuilt.lines() == tree.lines()
        for _ in range(12):
            tau = F(rng.randint(-200, 200), rng.randint(1, 3))
            if len(tree):
                assert rebuilt.value_at(tau) == tree.value_at(tau)
            assert rebuilt.first_root(tau) == tree.first_root(tau)


def test_update_work_grows_sublinearly():
    # measured smoke check: allocations per update should grow far slower
    # than the line count (polylogarithmic target, not asserted tightly)
    costs = {}
    for k in (64, 512):
        rng = random.Random(k)
        tree = TreeEnvelope(seed=1)
        for i in range(k):
            tree.insert(i, i, rng.randint(-50, 50), i)
        before = node_allocations()
        for step in range(100):
            pos = rng.randrange(len(tree))
            a, b, tag = tree.remove(pos)
            tree.insert(pos, a, b, tag)
            tree.first_root(rng.randint(-100, 100))
        costs[k] = (node_allocations() - before) / 100
    assert costs[512] < costs[64] * (512 / 64) / 2, costs
