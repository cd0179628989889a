import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusfields import (MultiPoly, Scalar, UniPoly, X, Y, Z, parse,
                         torus_polynomial)
from torusfields.poly import NEG_INF, line_gcd, unipoly_gcd

from conftest import (MalformedDivisor, NotDivisible, coefficients_in,
                      divide_exact, divide_exact_z, eval_float, homogeneous_component,
                      homogeneous_parts, random_poly, substitute)

M = Fraction(4)


def test_arith_examples():
    assert X ** 2 + (-(X ** 2)) == MultiPoly.zero()
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2
    a = Scalar.sqrt_m(M)
    scaled = (X ** 2 + Y ** 2 - MultiPoly.constant(M)).scale(a)
    assert scaled.coefficient((2, 0, 0)) == a
    assert scaled.coefficient((0, 0, 0)) == Scalar(0, -M, M)


def test_degree_rules():
    assert MultiPoly.zero().degree == NEG_INF
    assert (X * Y * Z).degree == 3
    p = parse("x^2 + y", M)
    q = parse("z^3 - 1", M)
    assert (p * q).degree == p.degree + q.degree


def test_differentiate_examples():
    F = torus_polynomial(M)
    assert F.differentiate("z") == 2 * Z
    ring_sq = parse("(x^2+y^2-a^2)^2", M)
    assert ring_sq.differentiate("x") == parse("4*x*(x^2+y^2-a^2)", M)
    assert (X * Y ** 2).differentiate("y") == 2 * X * Y


def test_homogeneous_component():
    p = parse("(1/4)*x*z + x*y^2", M)
    assert homogeneous_component(p, 3) == X * Y ** 2
    assert homogeneous_component(p, 2) == parse("(1/4)*x*z", M)
    assert homogeneous_component(MultiPoly.zero(), 5) == MultiPoly.zero()


def test_substitute_examples():
    assert substitute(Z ** 2 - 1, "z", 1) == MultiPoly.zero()
    F = torus_polynomial(M)
    assert substitute(F, "z", 0) == parse("(x^2+y^2-a^2)^2 - 1", M)
    assert substitute(X ** 2 + Y, "y", X * Z) == X ** 2 + X * Z


def test_eval():
    a = Scalar.sqrt_m(M)
    ring = X ** 2 + Y ** 2 - MultiPoly.constant(M)
    assert ring.eval_exact((a, 0, 0)).is_zero()
    F = torus_polynomial(M)
    assert eval_float(F, (math.sqrt(4 + 1), 0.0, 0.0)) == pytest.approx(0, abs=1e-12)
    assert Z.eval_exact((0, 0, 1)) == Scalar(1)


def test_divide_exact_z_examples():
    assert divide_exact_z(Z ** 2 - 1, Z - 1) == Z + 1
    F = torus_polynomial(M)
    field_derivative = parse(
        "((1/4)*x*z + x*y^2)*4*x*(x^2+y^2-a^2)"
        "+ ((1/4)*y*z - x^2*y)*4*y*(x^2+y^2-a^2)"
        "+ ((1/2)*(-a^2*(x^2+y^2)+z^2+a^4-1))*2*z", M)
    assert divide_exact_z(field_derivative, F) == Z
    with pytest.raises(NotDivisible):
        divide_exact_z(Z ** 2 + 1, Z)
    with pytest.raises(MalformedDivisor):
        divide_exact_z(Z ** 2, X * Z)
    with pytest.raises(MalformedDivisor):
        divide_exact_z(Z, MultiPoly.zero())


def _brute_force_line_groups(p: MultiPoly) -> dict:
    """Oracle: substitute y -> t*x monomial by monomial."""
    groups = {}
    for (i, j, k), coeff in p.terms.items():
        groups.setdefault((i + j, k), {})
        groups[(i + j, k)][j] = groups[(i + j, k)].get(j, Scalar(0)) + coeff
    return {key: {d: c for d, c in slot.items() if not c.is_zero()}
            for key, slot in groups.items()}


def test_line_gcd_examples():
    p = parse("-x*y*(x^2+y^2)", M)
    # oracle: -x^3*y - x*y^3 -> x^4 * (-t - t^3), one group
    oracle = _brute_force_line_groups(p)
    assert set(oracle) == {(4, 0)}
    assert oracle[(4, 0)] == {1: Scalar(-1), 3: Scalar(-1)}
    assert line_gcd(p) == UniPoly([0, 1, 0, 1])          # -t - t^3, made monic

    assert line_gcd(X ** 2 + Y ** 2) == UniPoly([1, 0, 1])  # 1 + t^2: no real roots
    assert line_gcd(X) == UniPoly([1])
    # two groups, x^3 and x^2*z: gcd(t*(1 + t^2), t*(1 - 2*t)) = t
    assert line_gcd(parse("x^2*y + y^3 + x*y*z - 2*y^2*z", M)) == UniPoly([0, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    p, q, r = (random_poly(rng, sqrt_part=True) for _ in range(3))
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_partial_derivatives_commute(seed):
    rng = random.Random(seed)
    p = random_poly(rng, sqrt_part=True)
    assert (p.differentiate("x").differentiate("y")
            == p.differentiate("y").differentiate("x"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_division_inverts_multiplication(seed):
    rng = random.Random(seed)
    p = random_poly(rng)
    # random divisor monic in z
    q = random_poly(rng, max_degree=2) + Z ** rng.randint(1, 3)
    by_z = coefficients_in(q, "z")
    if q.is_zero() or not by_z[max(by_z)].is_scalar():
        return
    assert divide_exact_z(p * q, q) == p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_homogeneous_partition(seed):
    rng = random.Random(seed)
    p = random_poly(rng, sqrt_part=True)
    total = MultiPoly.zero()
    for _, part in homogeneous_parts(p).items():
        total = total + part
    assert total == p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_eval_float_matches_exact(seed):
    rng = random.Random(seed)
    p = random_poly(rng, sqrt_part=True)
    pt_exact = tuple(Scalar(Fraction(rng.randint(-8, 8), 4)) for _ in range(3))
    pt_float = tuple(v.to_float() for v in pt_exact)
    exact = p.eval_exact(pt_exact).to_float()
    approx = eval_float(p, pt_float)
    assert approx == pytest.approx(exact, abs=1e-10 * (1 + abs(exact)))


def test_unipoly_divmod_and_gcd():
    u = UniPoly([Scalar(-1), Scalar(0), Scalar(1)])       # t^2 - 1
    v = UniPoly([Scalar(1), Scalar(1)])                   # t + 1
    quot, rem = u.divmod(v)
    assert rem.is_zero() and quot == UniPoly([Scalar(-1), Scalar(1)])
    g = unipoly_gcd([u, UniPoly([Scalar(-1), Scalar(1)])])
    assert g == UniPoly([Scalar(-1), Scalar(1)])          # monic t - 1

    common = UniPoly([Scalar(2), Scalar(1)])
    a = common * UniPoly([Scalar(3), Scalar(0), Scalar(1)])
    b = common * UniPoly([Scalar(-5), Scalar(1)])
    assert unipoly_gcd([a, b]) == common.monic()
