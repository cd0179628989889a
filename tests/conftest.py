import random
from fractions import Fraction

import pytest

from torusfields import (MultiPoly, QuadraticParams, Scalar, VectorField,
                         build_quadratic)

M_DEFAULT = Fraction(4)


@pytest.fixture
def m():
    return M_DEFAULT


def random_scalar(rng: random.Random, m=M_DEFAULT, sqrt_part=False) -> Scalar:
    p = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if sqrt_part and rng.random() < 0.3:
        return Scalar(p, Fraction(rng.randint(-3, 3)), m)
    return Scalar(p)


def random_poly(rng: random.Random, max_degree=4, max_terms=6,
                m=M_DEFAULT, sqrt_part=False) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(3))
        if sum(exp) > max_degree:
            continue
        terms[exp] = random_scalar(rng, m, sqrt_part)
    return MultiPoly(terms)


def sympy_scalar(c: Scalar):
    """The sympy number p + q*sqrt(m) of a Scalar."""
    import sympy

    out = sympy.Rational(c.p.numerator, c.p.denominator)
    if c.q:
        out += (sympy.Rational(c.q.numerator, c.q.denominator)
                * sympy.sqrt(sympy.Rational(c.m.numerator, c.m.denominator)))
    return out


def random_linear(rng: random.Random, lo=-3, hi=3) -> MultiPoly:
    return MultiPoly({(0, 0, 0): Scalar(rng.randint(lo, hi)),
                      (1, 0, 0): Scalar(rng.randint(lo, hi)),
                      (0, 1, 0): Scalar(rng.randint(lo, hi)),
                      (0, 0, 1): Scalar(rng.randint(lo, hi))})


def random_quadratic_field(rng: random.Random, m=M_DEFAULT) -> VectorField:
    """Random on-torus quadratic field with coefficients in {-3..3}."""
    alpha = Scalar(rng.randint(-3, 3))
    return build_quadratic(QuadraticParams(alpha, random_linear(rng)), m)
