import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torusfields import MixedExtensionError, Scalar, parse

M = Fraction(5)


def s(p, q=0):
    return Scalar(p, q, M if q else None)


def test_basic_arithmetic():
    assert s(2) + s(3) == s(5)
    assert s(2, 1) - s(2, 1) == s(0)
    assert s(0, 1) * s(0, 1) == s(5)          # sqrt(5)^2 = 5
    assert s(1, 1) * s(1, -1) == s(-4)        # (1+r)(1-r) = 1 - 5
    assert 2 + s(1, 1) == s(3, 1) and Fraction(1, 2) + s(0, 1) == s(Fraction(1, 2), 1)
    assert s(1, 1) ** 2 == s(6, 2) and s(0, 1) ** 3 == s(0, 5) and s(7, 3) ** 0 == s(1)
    assert -s(2, -3) == s(-2, 3)
    assert s(Fraction(1, 2)) * 4 == s(2)


def test_equality_is_structural():
    assert s(1, 2) != s(1, 3)
    assert s(1) == 1
    assert s(Fraction(2, 4)) == Fraction(1, 2)
    assert hash(s(3)) == hash(Fraction(3))


def test_equality_includes_m():
    assert Scalar(0, 1, 3) != Scalar(0, 1, 5)
    assert Scalar(1, 2, 3) == Scalar(1, 2, Fraction(6, 2))
    assert hash(Scalar(1, 2, 3)) == hash(Scalar(1, 2, Fraction(6, 2)))
    assert parse("a*x", 3) != parse("a*x", 5)
    assert len({parse("a*x", 3), parse("a*x", 5)}) == 2


def test_square_m_folds_to_rationals():
    assert Scalar(0, 1, 4) == 2 and Scalar(0, 1, 4).q == 0
    assert hash(Scalar(0, 1, 4)) == hash(2)
    assert Scalar(1, 2, Fraction(9, 4)) == Scalar(4)
    assert Scalar.sqrt_m(10 ** 400) == Scalar(10 ** 200)
    assert Scalar.sqrt_m(10 ** 400 + 1).q == 1


def test_sqrt_part_requires_m():
    with pytest.raises(ValueError):
        Scalar(1, 2)


def test_mixed_extensions_rejected():
    with pytest.raises(MixedExtensionError):
        Scalar(0, 1, 5) + Scalar(0, 1, 7)
    # rational scalars are compatible with anything
    assert Scalar(2) * Scalar(0, 1, 7) == Scalar(0, 2, 7)


def test_inverse_and_division():
    v = s(1, 1)
    assert v * v.inverse() == s(1)
    assert s(6) * s(3).inverse() == s(2)
    with pytest.raises(ZeroDivisionError):
        s(0).inverse()


def test_inverse_zero_norm_for_square_m():
    # 2 - sqrt(4) folds to the scalar zero, which has no inverse
    v = Scalar(2, -1, 4)
    with pytest.raises(ZeroDivisionError):
        v.inverse()


def test_exact_sign():
    assert s(3).sign() == 1
    assert s(-3).sign() == -1
    assert s(0).sign() == 0
    assert s(0, 1).sign() == 1
    assert s(0, -2).sign() == -1
    # 3 - sqrt(5) > 0, 2 - sqrt(5) < 0
    assert s(3, -1).sign() == 1
    assert s(2, -1).sign() == -1
    assert s(-3, 1).sign() == -1
    assert s(-2, 1).sign() == 1
    # 2 - sqrt(4) = 0 exactly when m is square
    assert Scalar(2, -1, 4).sign() == 0


def test_to_float():
    assert s(1, 1).to_float() == pytest.approx(1 + math.sqrt(5))
    assert s(Fraction(1, 4)).to_float() == 0.25


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def scalars(draw):
    p = draw(rationals)
    q = draw(rationals)
    return Scalar(p, q, M) if q else Scalar(p)


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Scalar(0) == a
    assert a * Scalar(1) == a


@given(scalars())
def test_inverse_roundtrip(a):
    if not a.is_zero():
        assert a * a.inverse() == Scalar(1)


@given(scalars())
def test_sign_matches_float(a):
    value = a.to_float()
    if abs(value) > 1e-9:
        assert a.sign() == (1 if value > 0 else -1)


@pytest.mark.parametrize("m", [Fraction(4), Fraction(9, 4), Fraction(5), Fraction(9, 2)])
def test_power_matches_repeated_multiplication(m):
    # rational, pure-sqrt, mixed and zero bases, at square and non-square m
    bases = [Scalar(0), Scalar(1), Scalar(Fraction(-3, 2)), Scalar(0, 1, m),
             Scalar(0, Fraction(-2, 3), m), Scalar(Fraction(1, 2), Fraction(-5, 3), m),
             Scalar(7, 1, m)]
    for base in bases:
        want = Scalar(1)
        for n in range(65):
            got = base ** n
            assert (got.p, got.q, got.m) == (want.p, want.q, want.m), (base, n)
            want = want * base


def test_negative_power_raises():
    for base, n in ((Scalar(2), -1), (Scalar(0, 1, 3), -2), (Scalar(1, 1, 3), -1),
                    (Scalar(0), -1)):
        with pytest.raises(ValueError):
            base ** n
