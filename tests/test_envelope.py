import itertools
import math
import random
from fractions import Fraction as F

import pytest

from emdut.envelope import NaiveEnvelope, TreeEnvelope, node_allocations


BACKENDS = (NaiveEnvelope, TreeEnvelope)


def _root(env, t0):
    """The envelope's first root from t0 on, read through root_piece."""
    t0 = F(t0)
    got = env.root_piece(t0.numerator, t0.denominator)
    return None if got is None else F(got[0], got[1])


def test_build_examples():
    for cls in BACKENDS:
        empty = cls()
        assert empty.root_piece(0, 1) is None
        with pytest.raises(ValueError):
            empty.value_at(F(0))

        single = cls([(-2, 4, 0)])
        assert single.value_at(F(0)) == 4
        assert _root(single, 0) == 2

        pair = cls([(-2, 4, 0), (-1, 1, 1)])
        assert pair.value_at(F(0)) == 1
        assert pair.value_at(F(3)) == -2
        assert _root(pair, 0) == 1


def test_root_none_when_all_positive_constant():
    for cls in BACKENDS:
        flat = cls([(0, 3, 0), (0, 5, 1)])
        assert _root(flat, -100) is None


def _expected_root_piece(lines, t0):
    # g's first point at or below zero from t0 on is t0 itself or the zero
    # of some line; the tag is the first line, by position, <= 0 there
    zeros = [t0] + [F(-b) / a for a, b, _ in lines if a != 0 and F(-b) / a > t0]
    for root in sorted(zeros):
        at_or_below = [tag for a, b, tag in lines if a * root + b <= 0]
        if at_or_below:
            return root, at_or_below[0]
    return None


def _tie_heavy_lines(rng, k):
    """(lines, zero): several lines through one zero, or repeated lines
    (zero None), in slope order and tagged by position."""
    if rng.random() < 0.5:
        zero = F(rng.randint(-12, 12), rng.choice([1, 2]))
        slopes = sorted(rng.randint(-4, 2) for _ in range(k))
        pairs = [(a, -a * zero if rng.random() < 0.7 else F(rng.randint(-20, 20)))
                 for a in slopes]
    else:
        zero = None
        distinct = [(rng.randint(-4, 2), F(rng.randint(-20, 20), rng.choice([1, 2])))
                    for _ in range(2)]
        pairs = sorted(rng.choice(distinct) for _ in range(k))
    return [(a, b, i) for i, (a, b) in enumerate(pairs)], zero


def test_root_tag_names_a_line_at_or_below_zero_at_the_root():
    rng = random.Random(78)
    for trial in range(700):
        k = rng.randint(1, 8)
        zero = None
        if trial < 300:
            slopes = sorted(rng.randint(-6, 3) for _ in range(k))
            lines = [(a, F(rng.randint(-40, 40), rng.choice([1, 2, 3])), i)
                     for i, a in enumerate(slopes)]
        elif trial < 600:
            lines, zero = _tie_heavy_lines(rng, k)
        else:
            # tangents of c - x^2 at s, slope -2s: one falls and the rest
            # rise, so a block of the tree can be <= 0 at most of its breaks
            # left of t0 = 0 while > 0 at t0
            k, c, zero = rng.randint(9, 40), rng.randint(1, 9), F(0)
            ss = [rng.randint(1, 3)] + sorted(rng.sample(range(-2 * k, 0), k - 1),
                                              reverse=True)
            lines = [(-2 * s, s * s + c, i) for i, s in enumerate(ss)]
        # envelopes hold integer lines; scaling each line by 6 keeps every
        # root and every tag
        lines = [(6 * a, int(6 * b), tag) for a, b, tag in lines]
        t0 = F(rng.randint(-30, 30), rng.choice([1, 2]))
        if zero is not None and rng.random() < 0.5:
            t0 = zero
        want = _expected_root_piece(lines, t0)
        if want is not None:
            want = (want[0].numerator, want[0].denominator, want[1])
        for cls in BACKENDS:
            got = cls(lines).root_piece(t0.numerator, t0.denominator)
            assert got == want, (cls.__name__, lines, t0, got, want)


def _random_ops(seed, ops, naive, tree, slope_lo=-40, slope_hi=40,
                cuts=(0.45, 0.62), blocky=False):
    # cuts: the insert and insert-or-remove shares of the actions.  blocky:
    # removes runs of up to 8 lines and adds on ranges whose ends fall on
    # the tree's block edges as often as inside its blocks
    rng = random.Random(seed)
    k = len(naive)
    for step in range(ops):
        action = rng.random()
        if action < cuts[0] or k == 0:
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
        elif action < cuts[1]:
            pos = rng.randrange(k)
            for _ in range(rng.randint(1, min(8, k - pos)) if blocky else 1):
                assert naive.remove(pos)[:2] == tree.remove(pos)[:2]
                k -= 1
        else:
            lo, hi = rng.randrange(k), k
            if blocky:
                edges = list(itertools.accumulate(
                    (len(block.lines) for block in tree._blocks), initial=0))
                if rng.random() < 0.5:
                    lo = rng.choice(edges[:-1])
                hi = rng.choice([e for e in edges if e > lo] if rng.random() < 0.5
                                else range(lo + 1, k + 1))
            da = rng.choice([0, 0, -1, -2, -4])
            db = rng.randint(-30, 30)
            if lo == 0 or naive.get(lo - 1)[0] <= naive.get(lo)[0] + da:
                naive.add_range(lo, hi, da, db)
                tree.add_range(lo, hi, da, db)
        assert naive.lines() == tree.lines()
        if k:
            for pos in (0, step % k, k - 1):
                assert naive.get(pos) == tree.get(pos)
            for tau in (rng.randint(-60, 60), F(rng.randint(-99, 99), 2)):
                assert naive.value_at(tau) == tree.value_at(tau)
            t0 = rng.randint(-80, 80)
            assert _root(naive, t0) == _root(tree, t0)
    return k


def test_tree_matches_naive_reference():
    for seed in range(60):
        naive = NaiveEnvelope()
        tree = TreeEnvelope()
        _random_ops(seed, 60, naive, tree)
    # long sequences: grow to several hundred lines, then remove runs of
    # them until blocks empty, re-cutting the tree's blocks on the way
    for seed in range(3):
        naive = NaiveEnvelope()
        tree = TreeEnvelope()
        _random_ops(700 + seed, 500, naive, tree, cuts=(0.9, 0.95), blocky=True)
        _random_ops(800 + seed, 400, naive, tree, cuts=(0.2, 0.6), blocky=True)


def test_root_query_equals_a_scan_of_the_lines():
    # root_piece(p0, q0) answers for the whole envelope after random op
    # sequences like criterion 04's, which leave the tree several blocks
    rng = random.Random(0x4A9E)
    kinds = {"at t0": 0, "after t0": 0}
    for seed in range(30):
        naive, tree = NaiveEnvelope(), TreeEnvelope()
        _random_ops(1500 + seed, rng.choice((30, 120, 300)), naive, tree,
                    cuts=(0.75, 0.85), blocky=True)
        lines = naive.lines()
        for _ in range(30):
            # t0 anywhere or at a root of a line, where that line is zero;
            # half the time moved left until every line is > 0 there, if it
            # gets there, so that the root comes after t0
            roots = [F(-b, a) for a, b, _ in lines if a]
            if roots and rng.random() < 0.4:
                t0 = rng.choice(roots)
            else:
                t0 = F(rng.randint(-80, 80), rng.choice((1, 2)))
            for _ in range(12 if rng.random() < 0.5 else 0):
                if all(a * t0 + b > 0 for a, b, _ in lines):
                    break
                t0 = 2 * t0 - 10
            want = _expected_root_piece(lines, t0)
            if want is not None:
                want = (want[0].numerator, want[0].denominator, want[1])
            for env in (naive, tree):
                got = env.root_piece(t0.numerator, t0.denominator)
                assert got == want, (type(env).__name__, len(lines), t0, got, want)
            kinds["at t0" if want[:2] == (t0.numerator, t0.denominator)
                  else "after t0"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_add_range_leaves_the_given_list_snapshots_and_twins_alone():
    # the list backend rewrites its lines in place, so the list it was
    # built from, an earlier lines() snapshot and a second envelope built
    # from the same list must all keep the lines they had
    for cls in BACKENDS:
        given = [(-4, 9, 0), (-2, 5, 1), (0, 3, 2), (1, -1, 3)]
        kept = list(given)
        env, twin = cls(given), cls(given)
        snapshot = env.lines()
        env.add_range(0, 3, -1, 2)
        env.add_range(1, 4, 0, -5)
        assert env.lines() == [(-5, 11, 0), (-3, 2, 1), (-1, 0, 2), (1, -6, 3)]
        assert given == kept
        assert snapshot == kept
        assert twin.lines() == kept
        assert (twin.value_at(F(0)), env.value_at(F(0))) == (-1, -6)


def test_get_and_remove_past_the_end_raise_index_error():
    # the tree spreads 10 lines over 3 blocks; a position past the last one
    # is refused as a list refuses it, and changes nothing
    lines = [(-k, k * k, k) for k in range(9, -1, -1)]
    for cls in BACKENDS:
        for env in (cls(lines), cls()):
            kept = env.lines()
            for op in (env.get, env.remove):
                with pytest.raises(IndexError):
                    op(len(kept))
            assert env.lines() == kept


@pytest.mark.parametrize("call", [
    lambda env: env.get(-1),
    lambda env: env.remove(-1),
    lambda env: env.insert(-1, -20, 0, "new"),
    lambda env: env.insert(11, 1, 0, "new"),
    lambda env: env.add_range(-2, 0, -1, 5),
    lambda env: env.add_range(0, 99, -1, 5),
    lambda env: env.add_range(4, 3, -1, 5),
], ids=["get-1", "remove-1", "insert-1", "insert-past-end",
        "add-negative-lo", "add-past-end", "add-inverted"])
def test_positions_outside_the_list_raise_index_error_and_change_nothing(call):
    # a list would read a negative position from the end and slice-clamp a
    # long range; both backends refuse either before they touch a line
    lines = [(-k, k * k, k) for k in range(9, -1, -1)]
    for cls in BACKENDS:
        env = cls(lines)
        with pytest.raises(IndexError):
            call(env)
        assert env.lines() == lines
        assert [env.get(pos) for pos in range(len(lines))] == lines
        assert _root(env, 0) == _root(cls(lines), 0)


def test_positions_at_the_ends_are_accepted_by_both_backends():
    for cls in BACKENDS:
        env = cls([(-2, 4, 0), (0, 1, 1)])
        env.insert(2, 1, 0, 2)
        env.insert(0, -3, 9, 3)
        env.add_range(4, 4, -1, 5)
        env.add_range(0, 4, 0, 1)
        assert env.lines() == [(-3, 10, 3), (-2, 5, 0), (0, 2, 1), (1, 1, 2)]
        assert env.remove(3) == (1, 1, 2)
        assert env.get(2) == (0, 2, 1)
        empty = cls()
        with pytest.raises(IndexError):
            empty.insert(1, 1, 2)
        empty.insert(0, 1, 2)
        assert empty.lines() == [(1, 2, None)]


def test_lazy_offsets_flush_to_same_answers():
    # rebuilding from the flushed line list must not change any query
    rng = random.Random(77)
    for seed in range(20):
        naive = NaiveEnvelope()
        tree = TreeEnvelope()
        _random_ops(1000 + seed, 50, naive, tree)
        rebuilt = TreeEnvelope(tree.lines())
        assert rebuilt.lines() == tree.lines()
        for _ in range(12):
            tau = F(rng.randint(-200, 200), rng.randint(1, 3))
            if len(tree):
                assert rebuilt.value_at(tau) == tree.value_at(tau)
            assert _root(rebuilt, tau) == _root(tree, tau)


def test_update_work_grows_sublinearly():
    # measured smoke check: lines read per update should grow far slower
    # than the line count (about sqrt(k) for the blocks, not asserted tightly)
    costs = {}
    for k in (64, 512):
        rng = random.Random(k)
        tree = TreeEnvelope()
        for i in range(k):
            tree.insert(i, i, rng.randint(-50, 50), i)
        before = node_allocations()
        for step in range(100):
            pos = rng.randrange(len(tree))
            a, b, tag = tree.remove(pos)
            tree.insert(pos, a, b, tag)
            tree.root_piece(rng.randint(-100, 100), 1)
        costs[k] = (node_allocations() - before) / 100
    assert costs[512] < costs[64] * (512 / 64) / 2, costs
