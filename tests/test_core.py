import random
from fractions import Fraction as F

import pytest

from emdut.core import (
    Metric,
    PointFormatError,
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
    # a float translation is rejected like a float coordinate, not kept
    with pytest.raises(TypeError):
        ps.translate((0.1,))
    with pytest.raises(TypeError):
        point_set(2, [(1, 2)]).translate((F(1, 2), 0.5))


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
