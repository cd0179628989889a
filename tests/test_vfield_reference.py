"""Seeded differential tests of the field derivative, the Lie bracket and
the torus cofactor.

The references kept here are the gradient-product paths: each partial
derivative is built as a MultiPoly and multiplied through
``sum_of_products``, and a cofactor is ``chi(F)`` divided by ``F`` with the
general exact division.  The draws cover sqrt(m) coefficients, zero
components, z-degree up to 7, on-torus fields ``F*X + h*T`` with T tangent
to the torus, and fields that leave it.
"""

import random
from fractions import Fraction

import pytest

from torusfields import (CubicParams, MultiPoly, RationalFn, Scalar, TorusSurface,
                         VectorField, X, Y, Z, apply, build_cubic,
                         check_first_integral, cofactor_on_torus, dynamics,
                         lie_bracket)
from torusfields.poly import sum_of_products

from conftest import NotDivisible, divide_exact_z, random_poly, random_scalar

MS = (Fraction(4), Fraction(3), Fraction(9, 2), Fraction(2), Fraction(5, 4),
      Fraction(9, 4))
DRAWS_PER_M = 200
ZERO = MultiPoly.zero()


def reference_gradient(f):
    return tuple(f.differentiate(v) for v in "xyz")


def reference_apply(field, f):
    return sum_of_products(zip(field.components(), reference_gradient(f)))


def reference_bracket(xf, yf):
    minus_y = [-c for c in yf.components()]
    return VectorField(*(
        sum_of_products([*zip(xf.components(), reference_gradient(yc)),
                         *zip(minus_y, reference_gradient(xc))])
        for xc, yc in zip(xf.components(), yf.components())))


def reference_cofactor(field, F):
    """(on_torus, K) from chi(F) by the gradient products and the general
    exact division by F."""
    try:
        return True, divide_exact_z(reference_apply(field, F), F)
    except NotDivisible:
        return False, None


def z_heavy_poly(rng, m, max_z=7, max_terms=6):
    """Up to ``max_terms`` terms x^i*y^j*z^k, i + j <= 3, k <= max_z, with
    sqrt(m) coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randint(0, 3)
        exp = (i, rng.randint(0, 3 - i), rng.randint(0, max_z))
        terms[exp] = random_scalar(rng, m, sqrt_part=True)
    return MultiPoly(terms)


def with_zero_components(rng, comps):
    """Each component dropped to 0 with probability 1/4."""
    return VectorField(*(ZERO if rng.random() < 0.25 else c for c in comps))


def draw_field(rng, m, surface):
    """(field, kind): on-torus fields F*X + h*T, cubic forms and rotation
    shapes; off-torus random fields and on-torus fields with a bump."""
    F = surface.F
    fx, fy, fz = reference_gradient(F)
    kind = rng.choice(("tangent", "tangent", "cubic", "rotation", "off", "bump"))
    if kind == "tangent":
        h = random_poly(rng, max_degree=2, max_terms=3, m=m, sqrt_part=True)
        tangent = rng.choice([(fy, -fx, ZERO), (ZERO, fz, -fy), (fz, ZERO, -fx)])
        x = with_zero_components(rng, [z_heavy_poly(rng, m, max_z=5, max_terms=3)
                                       for _ in range(3)])
        return VectorField(*(F * a + h * t for a, t in zip(x.components(), tangent))), kind
    if kind == "cubic":
        kprime = random_poly(rng, max_degree=1, max_terms=4, m=m, sqrt_part=True)
        f = random_poly(rng, max_degree=2, max_terms=5, m=m, sqrt_part=True)
        beta, gamma = (random_scalar(rng, m, sqrt_part=True) for _ in range(2))
        return build_cubic(CubicParams(kprime, f, beta, gamma), m), kind
    if kind == "rotation":
        a = z_heavy_poly(rng, m, max_z=6)
        return VectorField(a * Y, -(a * X), ZERO), kind
    if kind == "off":
        return with_zero_components(rng, [z_heavy_poly(rng, m) for _ in range(3)]), kind
    on, _ = draw_field(rng, m, surface)
    bump = MultiPoly.monomial((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 7)),
                              random_scalar(rng, m, sqrt_part=True) or Scalar(1))
    slot = rng.randrange(3)
    return VectorField(*(c + bump if i == slot else c
                         for i, c in enumerate(on.components()))), kind


@pytest.mark.parametrize("m", MS)
def test_derivative_bracket_and_cofactor_match_the_gradient_products(m):
    rng = random.Random(int(m * 8) + 1)
    surface = TorusSurface(m)
    F = surface.F
    seen = set()
    previous = VectorField(ZERO, ZERO, ZERO)
    for _ in range(DRAWS_PER_M):
        field, kind = draw_field(rng, m, surface)
        f = z_heavy_poly(rng, m)
        assert apply(field, f) == reference_apply(field, f)
        assert apply(field, F) == reference_apply(field, F)
        assert lie_bracket(field, previous) == reference_bracket(field, previous)
        on_torus, K = reference_cofactor(field, F)
        got = cofactor_on_torus(field, surface)
        assert (got.on_torus, got.K) == (on_torus, K), (kind, field)
        if kind in ("tangent", "cubic", "rotation"):
            assert on_torus, (kind, field)
        den = z_heavy_poly(rng, m, max_z=2, max_terms=3) or MultiPoly.constant(1)
        h = RationalFn(f, den)
        want = (den * reference_apply(field, f) - f * reference_apply(field, den)).is_zero()
        assert check_first_integral(field, h) == want
        if kind == "rotation":
            # x^2 + y^2 and z are conserved, so any rational function of them
            radial = RationalFn(X * X + Y * Y, Z * Z + 1)
            assert check_first_integral(field, radial)
        seen.add((kind, on_torus))
        previous = field
    assert {("off", False), ("bump", False), ("tangent", True), ("cubic", True),
            ("rotation", True)} <= seen


@pytest.mark.parametrize("m", MS)
def test_whole_torus_test_matches_the_division_by_F(m):
    rng = random.Random(int(m * 8) + 2)
    F = TorusSurface(m).F
    hits = 0
    for _ in range(100):
        p = z_heavy_poly(rng, m)
        if rng.random() < 0.5:
            p = F * p
        try:
            divide_exact_z(p, F)
            want = True
        except NotDivisible:
            want = False
        assert dynamics._vanishes_on_torus(p, m) == want, p
        hits += want
    assert 20 < hits < 80
