import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from torusfields import (MultiPoly, QuadraticParams, Scalar, VectorField,
                         build_cubic, build_quadratic, invariant_meridians,
                         meridian_periodicity)

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


class MeridianVerdict(NamedTuple):
    angle: float
    plane: object
    verdict: object


def meridian_verdicts(params, m):
    """meridian_periodicity on the invariant meridian planes of the cubic
    field of ``params``, as the report passes them, one entry per meridian
    by increasing angle."""
    planes = invariant_meridians(build_cubic(params, m)).planes
    pairs = meridian_periodicity(params, m, planes)
    assert len(pairs) == len(planes)
    return sorted((MeridianVerdict(plane.angle() + shift, plane, verdict)
                   for (plane, _), pair in zip(planes, pairs)
                   for shift, verdict in zip((0.0, math.pi), pair)),
                  key=lambda mv: mv.angle)


def random_quadratic_field(rng: random.Random, m=M_DEFAULT) -> VectorField:
    """Random on-torus quadratic field with coefficients in {-3..3}."""
    alpha = Scalar(rng.randint(-3, 3))
    return build_quadratic(QuadraticParams(alpha, random_linear(rng)), m)


# -- polynomial helpers only the tests use ----------------------------------


def eval_float(p: MultiPoly, point, m_float=None) -> float:
    """Float value of p at a point; sqrt(m) coefficients embedded numerically."""
    x, y, z = point
    return sum(c * x**i * y**j * z**k for (i, j, k), c in p.float_terms(m_float))


def homogeneous_component(p: MultiPoly, d: int) -> MultiPoly:
    """Sum of the terms of p of total degree exactly d."""
    return MultiPoly({e: c for e, c in p.terms.items() if sum(e) == d})


def homogeneous_parts(p: MultiPoly) -> dict[int, MultiPoly]:
    """Total degree -> the homogeneous component of p of that degree."""
    return {d: homogeneous_component(p, d) for d in sorted({sum(e) for e in p.terms})}


def substitute(p: MultiPoly, var: str, replacement) -> MultiPoly:
    """Formal composition: ``var`` replaced by ``replacement`` in p."""
    repl = MultiPoly.coerce(replacement)
    idx = "xyz".index(var)
    out = MultiPoly.zero()
    for exp, coeff in p.terms.items():
        rest = list(exp)
        rest[idx] = 0
        out = out + repl ** exp[idx] * MultiPoly.monomial(tuple(rest), coeff)
    return out


def _reference_rational(r: Fraction) -> str:
    return str(r) if r.denominator == 1 else f"({r})"


def _reference_coeff(c: Scalar) -> tuple[bool, str]:
    """(negate, body) where body multiplies a monomial and re-parses."""
    if c.q == 0:
        neg = c.p < 0
        return neg, _reference_rational(-c.p if neg else c.p)
    if c.p == 0:
        neg = c.q < 0
        mag = -c.q if neg else c.q
        return neg, "a" if mag == 1 else f"{_reference_rational(mag)}*a"
    # mixed rational + sqrt part: keep both signs inside one parenthesis
    q_abs = -c.q if c.q < 0 else c.q
    q_part = "a" if q_abs == 1 else f"{_reference_rational(q_abs)}*a"
    return False, f"({c.p} {'-' if c.q < 0 else '+'} {q_part})"


def reference_serialize(p: MultiPoly) -> str:
    """The canonical text form written from Scalar coefficients
    (``p.terms``): the reference that ``serialize`` must match byte for byte."""
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda e: (sum(e), e[0], e[1]), reverse=True)
    chunks: list[str] = []
    for exp in keys:
        neg, body = _reference_coeff(p.terms[exp])
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip("xyz", exp) if e)
        if mono:
            text = mono if body == "1" else f"{body}*{mono}"
        else:
            text = body
        if not chunks:
            chunks.append(f"-{text}" if neg else text)
        else:
            chunks.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(chunks)
