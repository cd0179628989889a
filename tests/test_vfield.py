import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusfields import (CubicParams, MultiPoly, RationalFn, Scalar,
                         TorusSurface, VectorField, X, Y, Z, apply,
                         build_cubic, build_kolmogorov, check_first_integral,
                         cofactor_on_torus, lie_bracket, parse,
                         torus_polynomial, KolmogorovParams)

from conftest import (NotDivisible, divide_exact, divide_exact_z, random_poly,
                      random_quadratic_field, random_scalar)

M = Fraction(4)
ROTATION = VectorField(Y, -X, MultiPoly.zero())


def sect5_field(m=M):
    return VectorField(parse("(1/4)*x*z + x*y^2", m),
                       parse("(1/4)*y*z - x^2*y", m),
                       parse("(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)", m))


def test_apply_examples():
    assert apply(ROTATION, X ** 2 + Y ** 2).is_zero()
    F = torus_polynomial(M)
    assert apply(ROTATION, F).is_zero()
    assert apply(sect5_field(), F) == Z * F


def test_torus_surface_validation():
    with pytest.raises(ValueError):
        TorusSurface(1)
    with pytest.raises(ValueError):
        TorusSurface(Fraction(1, 2))
    assert TorusSurface(9).radius() == Scalar(3)
    TorusSurface(10 ** 400 + 1)     # squareness is tested without floats
    surf = TorusSurface(Fraction(9, 2))
    assert surf.F == torus_polynomial(Fraction(9, 2))


def test_cofactor_examples():
    surf = TorusSurface(M)
    res = cofactor_on_torus(sect5_field(), surf)
    assert res.on_torus and res.K == Z

    res = cofactor_on_torus(ROTATION, surf)
    assert res.on_torus and res.K.is_zero()

    radial = VectorField(X, Y, Z)
    res = cofactor_on_torus(radial, surf)
    assert not res.on_torus
    # oracle: the derivative along the field misses divisibility by F
    derivative = apply(radial, surf.F)
    assert derivative == parse("4*(x^2+y^2)*(x^2+y^2-a^2) + 2*z^2", M)


def test_lie_bracket_worked_example():
    xf = VectorField(parse("x^2*z", M), parse("x*y*z", M),
                     parse("2*x*(-a^2*(x^2+y^2)+z^2+a^4-1)", M))
    yf = VectorField(parse("y^3", M), parse("-x*y^2", M), MultiPoly.zero())
    bracket = lie_bracket(xf, yf)
    assert bracket.R == parse("-2*y^3*(-a^2*(x^2+y^2)+z^2+a^4-1)", M)


def test_lie_bracket_self_is_zero():
    field = sect5_field()
    bracket = lie_bracket(field, field)
    assert bracket.is_zero()


def test_bracket_of_quadratics_shape():
    rng = random.Random(5)
    for _ in range(10):
        xf = random_quadratic_field(rng)
        yf = random_quadratic_field(rng)
        bracket = lie_bracket(xf, yf)
        assert bracket.R.is_zero()
        if bracket.P.is_zero():
            assert bracket.Q.is_zero()
            continue
        a = divide_exact(bracket.P, Y, "y")
        assert bracket.Q == -(a * X)
        assert a.degree <= 2


def test_check_first_integral_examples():
    ko = build_kolmogorov(KolmogorovParams(Scalar(2), Scalar(3)), M)
    radial_sq = (X * X + Y * Y) ** 2
    h = RationalFn(torus_polynomial(M), radial_sq)
    assert check_first_integral(ko, h)

    pseudo = VectorField(parse("y^2", M) * Y, -(parse("y^2", M) * X),
                         MultiPoly.zero())
    one = MultiPoly.constant(1)
    assert check_first_integral(pseudo, RationalFn(X * X + Y * Y, one))
    assert check_first_integral(pseudo, RationalFn(Z, one))

    drift = VectorField(MultiPoly.constant(1), MultiPoly.zero(), MultiPoly.zero())
    assert not check_first_integral(drift, RationalFn(X, one))


def quotient_rule(field, h):
    """The first-integral test written out: den*chi(num) - num*chi(den) = 0."""
    return (h.den * apply(field, h.num) - h.num * apply(field, h.den)).is_zero()


def test_check_first_integral_matches_quotient_rule_on_constant_denominators():
    m = Fraction(3)
    rng = random.Random(41)
    dens = [MultiPoly.constant(1), MultiPoly.constant(2), parse("a", m)]
    seen = set()
    for _ in range(30):
        a = random_poly(rng, max_degree=2, max_terms=3, m=m, sqrt_part=True)
        rotation = VectorField(a * Y, -(a * X), MultiPoly.zero())
        wild = VectorField(*(random_poly(rng, max_degree=2, max_terms=3, m=m,
                                         sqrt_part=True) for _ in range(3)))
        nums = [X * X + Y * Y, Z, random_poly(rng, max_degree=2, max_terms=3,
                                               m=m, sqrt_part=True)]
        for field in (rotation, wild):
            for num in nums:
                for den in dens:
                    h = RationalFn(num, den)
                    want = quotient_rule(field, h)
                    assert check_first_integral(field, h) == want
                    seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2), Fraction(9, 4)])
def test_cofactor_matches_division_of_the_derivative(m):
    rng = random.Random(int(m * 8))
    surf = TorusSurface(m)
    fields = [ROTATION]
    for _ in range(8):
        on = build_cubic(CubicParams(
            random_poly(rng, max_degree=1, max_terms=3, m=m, sqrt_part=True),
            random_poly(rng, max_degree=2, max_terms=4, m=m, sqrt_part=True),
            random_scalar(rng, m, sqrt_part=True),
            random_scalar(rng, m, sqrt_part=True)), m)
        bump = random_poly(rng, max_degree=3, max_terms=3, m=m, sqrt_part=True)
        fields += [on, VectorField(on.P, on.Q + bump, on.R),
                   VectorField(*(random_poly(rng, max_degree=3, max_terms=4, m=m,
                                             sqrt_part=True) for _ in range(3)))]
    seen = set()
    for field in fields:
        res = cofactor_on_torus(field, surf)
        try:
            K = divide_exact_z(apply(field, surf.F), surf.F)
        except NotDivisible:
            assert not res.on_torus, field
        else:
            assert res.on_torus and res.K == K, field
        seen.add(res.on_torus)
    assert seen == {True, False}


@st.composite
def small_fields(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    return VectorField(random_poly(rng, max_degree=2, max_terms=3),
                       random_poly(rng, max_degree=2, max_terms=3),
                       random_poly(rng, max_degree=2, max_terms=3))


@settings(max_examples=25, deadline=None)
@given(small_fields(), small_fields(), small_fields())
def test_bracket_bilinear_antisymmetric_jacobi(xf, yf, zf):
    assert lie_bracket(xf, yf).P == -(lie_bracket(yf, xf).P)
    summed = VectorField(xf.P + yf.P, xf.Q + yf.Q, xf.R + yf.R)
    lhs = lie_bracket(summed, zf)
    rhs_a = lie_bracket(xf, zf)
    rhs_b = lie_bracket(yf, zf)
    assert lhs.P == rhs_a.P + rhs_b.P
    assert lhs.Q == rhs_a.Q + rhs_b.Q
    assert lhs.R == rhs_a.R + rhs_b.R

    jac_terms = [lie_bracket(xf, lie_bracket(yf, zf)),
                 lie_bracket(yf, lie_bracket(zf, xf)),
                 lie_bracket(zf, lie_bracket(xf, yf))]
    total = VectorField(sum((t.P for t in jac_terms), MultiPoly.zero()),
                        sum((t.Q for t in jac_terms), MultiPoly.zero()),
                        sum((t.R for t in jac_terms), MultiPoly.zero()))
    assert total.is_zero()


def test_bracket_of_on_torus_fields_stays_on_torus():
    from torusfields import CubicParams, build_cubic
    from conftest import random_linear

    rng = random.Random(99)
    surf = TorusSurface(M)
    for _ in range(20):
        xf = random_quadratic_field(rng)
        yf = random_quadratic_field(rng)
        assert cofactor_on_torus(lie_bracket(xf, yf), surf).on_torus
    for _ in range(6):
        params = [CubicParams(random_linear(rng),
                              random_poly(rng, max_degree=2, max_terms=3),
                              Scalar(rng.randint(-2, 2)),
                              Scalar(rng.randint(-2, 2))) for _ in range(2)]
        xf, yf = (build_cubic(p, M) for p in params)
        assert cofactor_on_torus(lie_bracket(xf, yf), surf).on_torus


def test_common_first_integral_passes_to_bracket():
    rng = random.Random(123)
    one = MultiPoly.constant(1)
    h = RationalFn(X * X + Y * Y, one)
    for _ in range(10):
        a1 = random_poly(rng, max_degree=2, max_terms=3)
        a2 = random_poly(rng, max_degree=2, max_terms=3)
        xf = VectorField(a1 * Y, -(a1 * X), MultiPoly.zero())
        yf = VectorField(a2 * Y, -(a2 * X), MultiPoly.zero())
        assert check_first_integral(xf, h) and check_first_integral(yf, h)
        assert check_first_integral(lie_bracket(xf, yf), h)
