import random
from fractions import Fraction

import pytest

from torusfields import MultiPoly, ParseError, Scalar, parse, serialize

from conftest import random_poly

M = Fraction(4)
M_IRR = Fraction(5)


def test_parse_fraction_coefficients():
    p = parse("(1/4)*x*z + x*y^2", M)
    assert p.coefficient((1, 0, 1)) == Fraction(1, 4)
    assert p.coefficient((1, 2, 0)) == 1


def test_a_squares_to_m():
    assert parse("a^2", M) == MultiPoly.constant(4)
    assert parse("a", M_IRR) == MultiPoly.constant(Scalar(0, 1, M_IRR))
    assert parse("a*a - a^2", M_IRR) == MultiPoly.zero()


def test_square_m_folds_a():
    assert parse("2*a - a^2", M).is_zero()
    assert parse("a", M) == MultiPoly.constant(2)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x + * y", M)
    assert err.value.offset == 4
    assert err.value.expected


def test_error_offsets_in_range():
    for text in ["", "x +", "(x", "x^", "1/", "x y", "b", "x ** 2", "2 ^ -1"]:
        with pytest.raises(ParseError) as err:
            parse(text, M)
        assert 0 <= err.value.offset <= len(text)


def test_exponent_overflow():
    with pytest.raises(OverflowError):
        parse("x^65", M)
    assert parse("x^5", M) == MultiPoly.variable("x") ** 5


def test_precedence():
    assert parse("-x^2", M) == -(MultiPoly.variable("x") ** 2)
    assert parse("2*x^2", M) == 2 * MultiPoly.variable("x") ** 2
    assert parse("x - y + z", M) == parse("(x - y) + z", M)
    assert parse("1/2*x", M) == parse("(1/2)*x", M)


def test_whitespace_insignificant():
    assert parse("  x  +  y ", M) == parse("x+y", M)


def test_serialize_examples():
    assert serialize(MultiPoly.zero()) == "0"
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    assert serialize(x ** 2 - y ** 2) == "x^2 - y^2"
    assert serialize(parse("(1/4)*x*z + x*y^2", M)) == "x*y^2 + (1/4)*x*z"


def test_serialize_scalar_coefficients():
    p = parse("(2 + 3*a)*x - a*y + (-1/2)*z", M_IRR)
    assert parse(serialize(p), M_IRR) == p
    q = parse("-x + (1/3)*a*y^2", M_IRR)
    assert parse(serialize(q), M_IRR) == q


def test_round_trip_bulk():
    rng = random.Random(20240809)
    for _ in range(1000):
        p = random_poly(rng, max_degree=6, max_terms=12, m=M_IRR, sqrt_part=True)
        assert parse(serialize(p), M_IRR) == p


def test_round_trip_graded_order_stable():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng, max_degree=5, max_terms=8)
        assert serialize(parse(serialize(p), M)) == serialize(p)
