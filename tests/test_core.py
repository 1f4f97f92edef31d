import gc
import itertools
import random
import tracemalloc
from enum import IntEnum
from fractions import Fraction as F
from types import ModuleType

import pytest

import emdut
from emdut.core import (
    _PLAIN_INT,
    Metric,
    PointFormatError,
    PointSet,
    format_scalar,
    lp_distance,
    matching_cost,
    parse_point_set,
    point,
    point_set,
    point_set_1d,
    scalar,
    serialize_point_set,
)
from emdut.emd import emd_1d_monotone, emd_bruteforce, emd_hungarian
from emdut.emdut_hd import emd_value_at, emdut_hd
from emdut.hardness import OVInstance, ov_reduction
from emdut.sweep1d import emdut_1d_sweep, emdut_1d_symmetric


def rand_scalar(rng):
    return F(rng.randint(-1000, 1000), rng.randint(1, 60))


def test_scalar_field_exactness():
    rng = random.Random(1)
    for _ in range(500):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a + b) - b == a
        if a != 0:
            assert a * (1 / a) == 1
        assert a.denominator > 0


def test_scalar_order_transitive():
    rng = random.Random(2)
    for _ in range(500):
        a, b, c = sorted(rand_scalar(rng) for _ in range(3))
        assert a <= b <= c and a <= c


def test_abs_inequality_property():
    # |x| + |x+a+b| >= |x+a| + |x+b| for a, b > 0
    rng = random.Random(3)
    for _ in range(500):
        x = rand_scalar(rng)
        a = abs(rand_scalar(rng)) + F(1, 7)
        b = abs(rand_scalar(rng)) + F(1, 9)
        assert abs(x) + abs(x + a + b) >= abs(x + a) + abs(x + b)


def test_scalar_parsing():
    assert scalar("0.25") == F(1, 4)
    assert scalar("-3/4") == F(-3, 4)
    assert scalar(7) == 7
    with pytest.raises(TypeError):
        scalar(0.25)
    with pytest.raises(ValueError):
        scalar("1/0")


class _Level(IntEnum):
    HIGH = 3


class _Ratio(F):
    pass


def test_scalar_contract_by_exact_type():
    # ints are checked before strings and Fractions; every input must give
    # the value and the exact type it always did
    for value, want in [(7, F(7)), (-(10**700), F(-(10**700))), (True, F(1)),
                        (False, F(0)), (_Level.HIGH, F(3)), (F(-3, 4), F(-3, 4))]:
        got = scalar(value)
        assert got == want and type(got) is F, value
        assert type(got.numerator) is int and type(got.denominator) is int
    plain = F(5, 6)
    assert scalar(plain) is plain
    sub = _Ratio(1, 3)
    assert scalar(sub) is sub and type(scalar(sub)) is _Ratio
    for text, want in [("3/4", F(3, 4)), ("-0.25", F(-1, 4)), ("1e3", F(1000))]:
        got = scalar(text)
        assert got == want and type(got) is F, text
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        scalar(None)
    with pytest.raises(ValueError, match="longer"):
        scalar("1" * 20_001)
    with pytest.raises(ValueError, match="exponent"):
        scalar("1e100001")


@pytest.mark.parametrize(
    "a,b,metric,expected",
    [
        ((0, 0), (0, 0), Metric.L1, 0),
        ((1, 2), (3, -1), Metric.L1, 5),
        ((1, 2), (3, -1), Metric.LINF, 3),
    ],
)
def test_lp_distance_examples(a, b, metric, expected):
    assert lp_distance(point(a), point(b), metric) == expected


def test_lp_distance_is_an_exact_fraction_under_both_metrics():
    # Linf used to return the int max of int coordinates, and a float
    # coordinate passed through as a float distance
    for metric, expected in ((Metric.L1, 3), (Metric.LINF, 2)):
        got = lp_distance((0, 0), (1, 2), metric)
        assert type(got) is F and got == expected
    assert type(lp_distance((), (), Metric.LINF)) is F
    for a, b in (((0.5,), (1,)), ((1,), (0.5,))):
        with pytest.raises(TypeError, match="float"):
            lp_distance(a, b, Metric.L1)


def test_lp_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_distance(point([1]), point([1, 2]), Metric.L1)


def test_matching_cost_examples():
    assert matching_cost(point_set_1d([0]), point_set_1d([5]), Metric.L1, (0,), (F(5),)) == 0
    assert matching_cost(point_set_1d([0, 1]), point_set_1d([0, 2]), Metric.L1, (0, 1), (F(0),)) == 1
    B = point_set(2, [(0, 0)])
    R = point_set(2, [(3, 4)])
    assert matching_cost(B, R, Metric.L1, (0,), point((1, 1))) == 5


def test_matching_cost_rejects_bad_matchings():
    B = point_set_1d([0, 1])
    R = point_set_1d([0, 1, 2])
    with pytest.raises(ValueError):
        matching_cost(B, R, Metric.L1, (0, 0), (F(0),))
    with pytest.raises(ValueError):
        matching_cost(B, R, Metric.L1, (0, 5), (F(0),))
    with pytest.raises(ValueError, match="matching has 1 entries, expected 2"):
        matching_cost(B, R, Metric.L1, (0,), (F(0),))
    with pytest.raises(ValueError, match="translation dimension mismatch"):
        matching_cost(B, R, Metric.L1, (0, 1), (F(0), F(0)))
    with pytest.raises(ValueError, match="blue and red dimension mismatch"):
        matching_cost(B, point_set(2, [(0, 0), (1, 1)]), Metric.L1, (0, 1), (F(0),))


def test_matching_cost_reads_tau_like_every_other_entry_point():
    # a float is refused as in ``scalar``; a rational string is read exactly
    B, R = point_set_1d([0, 1]), point_set_1d([0, 2, 5])
    with pytest.raises(TypeError):
        matching_cost(B, R, Metric.L1, (0, 1), (0.5,))
    assert matching_cost(B, R, Metric.L1, (0, 1), ("1/3",)) == matching_cost(
        B, R, Metric.L1, (0, 1), (F(1, 3),)) == 1


def test_matching_cost_translation_covariant():
    rng = random.Random(4)
    for _ in range(60):
        m = rng.randint(1, 5)
        B = point_set(2, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(m)])
        R = point_set(2, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(m + 1)])
        phi = tuple(rng.sample(range(m + 1), m))
        tau = point((rand_scalar(rng), rand_scalar(rng)))
        zero = point((0, 0))
        assert matching_cost(B, R, Metric.L1, phi, tau) == matching_cost(
            B.translate(tau), R, Metric.L1, phi, zero
        )


def test_point_set_validation_and_immutability():
    with pytest.raises(ValueError):
        point_set(2, [(1, 2), (3,)])
    ps = point_set_1d([1, 2])
    with pytest.raises(Exception):
        ps.dim = 3
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        PointSet(0, ())
    with pytest.raises(ValueError, match="translation dimension mismatch"):
        ps.translate((1, 2))
    # a float translation is rejected like a float coordinate, not kept
    with pytest.raises(TypeError):
        ps.translate((0.1,))
    with pytest.raises(TypeError):
        point_set(2, [(1, 2)]).translate((F(1, 2), 0.5))


def test_point_set_refuses_a_float_coordinate_by_its_type():
    # a float would ride through the Fraction solvers and fail in the int
    # ones; every solver and ``translate`` see it refused at construction
    red = point_set_1d([1, 3, 4])
    for make in (lambda: PointSet(1, ((F(1, 2),), (0.5,))),
                 lambda: PointSet(2, [(1, "2")])):
        with pytest.raises(TypeError, match="cannot build an exact Scalar from"):
            make()
    for use in (lambda b: emd_bruteforce(b, red, Metric.L1),
                lambda b: emd_hungarian(b, red, Metric.L1),
                lambda b: emdut_1d_sweep(b, red),
                lambda b: b.translate((1,))):
        with pytest.raises(TypeError, match="from float"):
            use(PointSet(1, ((0.5,), (2,))))
    # ints and Fractions, and their subclasses, are the exact types
    ps = PointSet(1, ((2,), (F(1, 3),), (True,), (_Level.HIGH,)))
    assert type(ps.points[0][0]) is int and ps.frame is None
    assert emd_hungarian(ps, point_set_1d([0, 0, 0, 0]), Metric.L1)[0] == F(19, 3)


@pytest.mark.parametrize(
    "text,dim,rows",
    [
        ("1\n0\n1\n", 1, [(0,), (1,)]),
        ("2\n1 2\n", 2, [(1, 2)]),
        ("1\n0.5\n", 1, [(F(1, 2),)]),
    ],
)
def test_parse_point_set_examples(text, dim, rows):
    ps = parse_point_set(text)
    assert ps.dim == dim
    assert list(ps.points) == [tuple(F(c) for c in row) for row in rows]


def test_parse_point_set_crlf_and_fractions():
    ps = parse_point_set("2\r\n1/3 -0.75\r\n\r\n2 3\r\n")
    assert ps.points[0] == (F(1, 3), F(-3, 4))
    assert len(ps) == 2


def test_parse_point_set_errors_carry_line_numbers():
    with pytest.raises(PointFormatError) as err:
        parse_point_set("2\n1 2\n3\n")
    assert err.value.line_no == 3
    with pytest.raises(PointFormatError) as err:
        parse_point_set("x\n")
    assert err.value.line_no == 1
    with pytest.raises(PointFormatError):
        parse_point_set("")
    with pytest.raises(PointFormatError) as err:
        parse_point_set("1\n1.5x\n")
    assert err.value.line_no == 2


def test_parse_point_set_shares_the_point_of_a_repeated_line():
    ps = parse_point_set("2\n1 2\n3 4\n1 2\n\n1  2\n\t1 2\r\n")
    a, b, c, d, e = ps.points
    assert c is a and a == d == e == (F(1), F(2)) and b == (F(3), F(4))
    # a bad line that recurs fails at its first copy
    for text, line_no in (("1\n0\n1/0\n2\n1/0\n", 3), ("2\n1 2\n3\n3\n", 3),
                          ("1\n5\n5\nx\n5\nx\n", 4)):
        with pytest.raises(PointFormatError) as err:
            parse_point_set(text)
        assert err.value.line_no == line_no
    # equal values are not shared by value: a float still fails after its int
    with pytest.raises(TypeError):
        point_set_1d([1, 1.0])


def test_equality_and_hashing_keep_no_fraction_view_of_a_parsed_set():
    # == and hash used to read .points, which builds the Fraction view of a
    # parsed set and keeps it for the set's life
    texts = ("1\n1/2\n3\n", "1\n2/4\n6/2\n", "1\n1/2\n7/2\n", "1\n3\n1/2\n",
             "1\n1\n3\n", "1\n 1 \n3.0\n", "2\n1 2\n3 4\n")
    built = (point_set_1d([F(1, 2), 3]), point_set_1d([1, 3]), point_set(2, [(1, 2), (3, 4)]))

    def exact(ps):  # the old key of == and hash
        return ps.dim, ps.points

    for a, b in itertools.product(texts, repeat=2):
        same = exact(parse_point_set(a)) == exact(parse_point_set(b))
        pa, pb = parse_point_set(a), parse_point_set(b)
        assert (pa == pb) is same and (not same or hash(pa) == hash(pb))
        for ps in built:
            same = exact(parse_point_set(a)) == exact(ps)
            assert (pa == ps) is (ps == pa) is same
            assert not same or hash(pa) == hash(ps)
        assert pa._points is None and pb._points is None, (a, b)
    assert parse_point_set("1\n1/2\n3\n") != "1\n1/2\n3\n"
    # no read of a parsed set keeps its view or replaces its frame
    for text in texts:
        ps = parse_point_set(text)
        frame = ps.frame
        for read in (lambda: ps.points, lambda: list(ps), lambda: repr(ps),
                     lambda: serialize_point_set(ps),
                     lambda: ps == ps.translate((0,) * ps.dim), lambda: hash(ps)):
            read()
            assert ps._points is None and ps.frame is frame, text


def test_a_point_set_copies_the_rows_it_is_built_from():
    # a set that kept the caller's lists changed its answer when they changed
    rows = [[0], [3]]
    B, R = PointSet(1, rows), point_set_1d([1, 5])
    before = emd_hungarian(B, R, Metric.L1)
    assert before[0] == 3
    rows[0][0] = 100
    rows.append([7])
    assert B.points == ((0,), (3,)) and len(B) == 2
    assert emd_hungarian(B, R, Metric.L1) == before
    row = (1, F(1, 2))
    assert PointSet(2, [row]).points[0] is row  # a tuple row is not copied


def test_every_construction_of_one_set_is_equal_and_hashes_alike():
    for dim, rows, text in ((1, [[1], [2]], "1\n1\n2\n"),
                            (2, [[F(1, 2), 3], [2, F(-1, 3)], [F(1, 2), 3]],
                             "2\n0.5 3\n2 -1/3\n1/2 3.0\n")):
        copies = [PointSet(dim, rows), PointSet(dim, [tuple(r) for r in rows]),
                  point_set(dim, rows), parse_point_set(text)]
        for a, b in itertools.product(copies, repeat=2):
            assert a == b and hash(a) == hash(b), (a, b)
        assert len({*copies}) == 1
    assert PointSet(1, [[1], [2]]) != PointSet(1, [[2], [1]]) != PointSet(2, [[1, 2]])


def test_huge_plain_literals_read_back():
    # ``Fraction`` stops at the int-to-str limit (4300 digits by default);
    # a plain "p" or "p/q" within the literal bound reads in full
    for x in (F(10**5000), -F(10**19000 + 1, 3)):
        ps = point_set_1d([x, 1])
        text = serialize_point_set(ps)
        assert parse_point_set(text) == ps and parse_point_set(text).points[0][0] == x
        assert scalar(format_scalar(x)) == x
    assert scalar("-" + "0" * 9000 + "12/" + "0" * 9000 + "18") == F(-2, 3)
    for text in ("1" * 5000 + "/0", "1" * 5000 + "/" + "0" * 5000):
        with pytest.raises(ValueError, match="not an exact rational literal"):
            scalar(text)


def test_dimension_line_is_capped_at_10_to_the_5():
    for text in ("1000000000000\n", "100001\n1\n", "0\n"):
        with pytest.raises(PointFormatError, match="dimension") as err:
            parse_point_set(text)
        assert err.value.line_no == 1


def test_dimension_10_to_the_5_still_parses():
    ps = parse_point_set("100000\n" + "1 " * 100000 + "\n")
    assert ps.dim == 100000 and ps.points == ((F(1),) * 100000,)


def test_serialize_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 3)
        ps = point_set(
            dim,
            [[rand_scalar(rng) for _ in range(dim)] for _ in range(rng.randint(0, 6))],
        )
        assert parse_point_set(serialize_point_set(ps)) == ps


def test_format_scalar_reduced():
    assert format_scalar(F(4, 2)) == "2"
    assert format_scalar(F(-3, 6)) == "-1/2"


def test_literal_bounds_and_output_past_the_int_str_limit():
    # small enough that Fraction would still finish if the bound were gone
    for text in ("1e100001", "-2.5E-100001", "1e+1_000_000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            scalar(text)
    with pytest.raises(PointFormatError) as err:
        parse_point_set("1\n0\n1e1000000\n")
    assert err.value.line_no == 3
    with pytest.raises(PointFormatError, match="longer") as err:
        parse_point_set("1\n0." + "1" * 10**6 + "\n")
    assert err.value.line_no == 2
    # the longest literals Fraction admits still parse: 99...9 / 77...7
    assert scalar("_".join("9" * 4300) + "/" + "7" * 4300) == F(9, 7)
    # the largest admitted exponent parses, and prints in full
    big = scalar("-3e100000")
    assert format_scalar(big) == "-3" + "0" * 100000
    assert format_scalar(F(7, 10**5000)) == "7/1" + "0" * 5000
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(10 ** rng.randint(0, 6000))
        assert format_scalar(F(n)) == _digits(n)


def _digits(n):
    # independent oracle: 300-digit chunks from the low end
    chunks = []
    while n >= 10**300:
        n, r = divmod(n, 10**300)
        chunks.append(str(r).zfill(300))
    return str(n) + "".join(reversed(chunks))


def test_parse_reads_every_token_as_scalar_does():
    # the parser reads every token by ``scalar``, whose plain-integer path
    # skips ``Fraction``; each token must still give its value, or its
    # error text, and a plain integer the value ``Fraction`` gives it
    corpus = [
        "0", "+0", "-0", "7", "+7", "-7", "007", "-000123", "+0009", "0" * 700,
        "9" * 640, "-" + "9" * 640, "1" + "0" * 639, "9" * 641, "+" + "9" * 641,
        "9" * 4300, "-" + "9" * 4300, "9" * 4301, "-" + "9" * 4301,
        "1_000", "-1_000", "1__0", "_1", "1_",
        "\u0661\u0662", "-\u0661\u0662", "\uff11\uff12", "\u00b2", "1\u0662",
        "3/4", "-6/8", "+1/3", "1/0", "0/5", "0.25", "-.5", "5.", "1.5x",
        "1e3", "2E-2", "-1.5e+2", "1e100001", "1e1_0",
        "+", "-", "--1", "+-1", "0x10", "inf", "nan", "1/2/3",
    ]
    rng = random.Random(7)
    for _ in range(300):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))
        corpus.append(rng.choice(["", "+", "-"]) + digits)
    for tok in corpus:
        try:
            want = scalar(tok)
        except ValueError as exc:
            want = f"line 2: {exc}"
        try:
            got = parse_point_set(f"1\n{tok}\n").points[0][0]
        except PointFormatError as exc:
            got = str(exc)
        assert got == want and type(got) is type(want), tok[:20]
        if _PLAIN_INT.fullmatch(tok):
            assert scalar(tok) == F(tok) and type(scalar(tok)) is F, tok[:20]


def _typed(x):
    """``x`` with the type of every part, tuples and lists included."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(_typed, x))
    return type(x), x


def _both_constructions(rng, dim, m, n):
    """A parsed pair, plain-int blues and reds whose lines have denominators
    1, 2, 3 and 5 in turn, and the same pair built by ``point_set``."""
    blues = [[F(rng.randint(-20, 20)) for _ in range(dim)] for _ in range(m)]
    reds = [[F(rng.randint(-12, 12) * q + (rng.randrange(1, q) if q > 1 else 0), q)
             for _ in range(dim)]
            for q in itertools.islice(itertools.cycle((2, 1, 3, 5)), n)]
    parsed = [parse_point_set(f"{dim}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)) for rows in (blues, reds)]
    return parsed, [point_set(dim, rows) for rows in (blues, reds)]


def test_parsed_and_fraction_sets_give_identical_returns():
    # a parsed set holds its integer frame, one from Fractions is framed per
    # solve; the frames, and so every return down to its types, must agree
    rng = random.Random(31)
    for trial in range(24):
        m = rng.randint(1, 4)
        cases = [(1, rng.randint(m, 7)), (1, m), (2, rng.randint(m, 6))]
        for dim, n in cases + [(3, 2)] * (m == 1):
            (bp, rp), (bf, rf) = _both_constructions(rng, dim, m, n)
            assert bp.frame[1] == 1 and rp.frame[1] == (2, 2, 6, 30)[min(n, 4) - 1]
            tau = [F(rng.randint(-30, 30), 7) for _ in range(dim)]
            solves = [lambda b, r, met=met: emd_hungarian(b, r, met) for met in Metric]
            solves += [lambda b, r: emd_bruteforce(b, r, Metric.L1),
                       lambda b, r: emd_value_at(b, r, Metric.LINF, tau)]
            solves += [lambda b, r, met=met: emdut_hd(b, r, met, return_stats=True)
                       for met in Metric]
            if dim == 1:
                solves += [emd_1d_monotone, lambda b, r: emdut_1d_sweep(
                    b, r, return_stats=True, collect_pieces=True)]
                if m == n:
                    solves.append(emdut_1d_symmetric)
            for solve in solves:
                assert _typed(solve(bp, rp)) == _typed(solve(bf, rf)), (trial, dim)
            assert (bp, rp) == (bf, rf) and hash((bp, rp)) == hash((bf, rf))
            assert _typed(rp.points) == _typed(rf.points)


def test_a_solve_keeps_no_frame_on_a_set_built_from_fractions():
    # a set built from Fractions is framed anew by each solve: one that kept
    # its frame would hold a second copy of every long-lived set
    rng = random.Random(9)
    x, y = (tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(9))
            for _ in range(2))
    gi = ov_reduction(OVInstance(x, y))
    blue = point_set(1, gi.blue.points[:8])  # few blues keep the solves short
    red = gi.red
    assert len(red) == 3440
    for solve in (emd_1d_monotone, emdut_1d_sweep):
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            solve(blue, red)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blue.frame is None and red.frame is None
        assert held - before < 1_000, (solve.__name__, held - before)


def test_package_exports_names_not_modules():
    # importing the submodules binds them on the package; ``import *``
    # gives the public names alone, every one the package has exported
    assert not [name for name in emdut.__all__
                if isinstance(getattr(emdut, name), ModuleType)]
    assert set(emdut.__all__) >= {
        "BudgetExceeded", "GadgetInstance", "Graph", "Matching", "Metric",
        "OVInstance", "Point", "PointFormatError", "PointSet", "Scalar",
        "SweepStats", "candidate_translations", "clique_instance",
        "clique_instance_value", "clique_l1_asym", "clique_l1_sym",
        "clique_linf_sym", "combine_gadgets", "decide_clique", "decide_ov",
        "emd_1d_monotone", "emd_bruteforce", "emd_hungarian",
        "emdut_1d_alignment_oracle", "emdut_1d_sweep", "emdut_1d_symmetric",
        "emdut_hd", "format_scalar", "has_clique", "has_orthogonal_pair",
        "lp_distance", "matching_cost", "ov_blue_gadget", "ov_red_gadget",
        "ov_reduction", "parse_point_set", "point", "point_set",
        "point_set_1d", "scalar", "serialize_point_set",
    }
    namespace = {}
    exec("from emdut import *", namespace)
    assert "envelope" not in namespace and "sweep1d" not in namespace
