import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from torusfields import (MultiPoly, QuadraticParams, Scalar, VectorField,
                         build_cubic, build_quadratic, invariant_meridians,
                         meridian_periodicity)
from torusfields.poly import (_VAR_INDEX, _merge_m, _mul_into, _nonzero, _poly,
                              _scaled, _shifted, radicand)

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


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class MalformedDivisor(ValueError):
    """Divisor's leading coefficient in the division variable is not scalar."""


def divide_exact(dividend: MultiPoly, divisor: MultiPoly, var: str = "z") -> MultiPoly:
    """Exact division along one variable, the reference for every division
    the package does by a polynomial.

    The divisor, viewed in Q(sqrt(m))[rest][var], must have a nonzero Scalar
    as its leading coefficient (true for F, z, z - k, y - t*x, a*x + b*y).
    Its inverse is taken once; the divisor made monic has its leading
    numerator equal to its denominator, so each step subtracts a numerator
    product and rescales by that denominator only when it is not 1.  A
    monomial divisor ``c*var^d`` only shifts the exponents and scales.
    Raises :class:`NotDivisible` when a remainder survives.
    """
    if divisor.is_zero():
        raise MalformedDivisor("division by the zero polynomial")
    idx = _VAR_INDEX[var]
    d_deg = divisor.var_degree(var)
    lead_exp = tuple(d_deg if v == idx else 0 for v in range(3))
    if any(e[idx] == d_deg and e != lead_exp for e in divisor._keys()):
        lead = coefficients_in(divisor, var)[d_deg]
        raise MalformedDivisor(
            f"divisor is not monic-izable in {var}: leading coefficient {lead!r}")
    lead = divisor.coefficient(lead_exp)
    lead_inv = None if lead == 1 else lead.inverse()
    if len(divisor._keys()) == 1:
        # c*var^d: the quotient is the dividend with var's exponents shifted
        if any(e[idx] < d_deg for e in dividend._keys()):
            raise NotDivisible(f"a term of {var}-degree below {d_deg} is left")
        quot = _poly(_shifted(dividend._p, idx, -d_deg),
                     _shifted(dividend._q, idx, -d_deg), dividend._den,
                     _merge_m(dividend.m, divisor.m))
        return quot if lead_inv is None else quot.scale(lead_inv)
    monic = divisor if lead_inv is None else divisor.scale(lead_inv)

    m = _merge_m(dividend.m, divisor.m)
    s = radicand(m)
    scale = monic._den
    rp, rq, den = dict(dividend._p), dict(dividend._q), dividend._den
    qp: dict = {}
    qq: dict = {}
    while rp or rq:
        r_deg = max(e[idx] for e in (rp.keys() | rq.keys()))
        if r_deg < d_deg:
            raise NotDivisible(f"remainder of {var}-degree {r_deg} left")
        # the quotient term: the top var-slice of the remainder over var^d_deg
        tp = _shifted({e: c for e, c in rp.items() if e[idx] == r_deg}, idx, -d_deg)
        tq = _shifted({e: c for e, c in rq.items() if e[idx] == r_deg}, idx, -d_deg)
        qp.update(tp)
        qq.update(tq)
        if scale != 1:
            rp, rq = _scaled(rp, scale), _scaled(rq, scale)
            qp, qq = _scaled(qp, scale), _scaled(qq, scale)
            den *= scale
        _mul_into(rp, rq, (tp, tq), (monic._p, monic._q), -1, s)
        rp, rq = _nonzero(rp), _nonzero(rq)
    quot = _poly(qp, qq, den, m)
    return quot if lead_inv is None else quot.scale(lead_inv)


def coefficients_in(p: MultiPoly, var: str) -> dict[int, MultiPoly]:
    """p as a polynomial in ``var``: degree -> coefficient polynomial."""
    idx = _VAR_INDEX[var]
    out: dict = {}
    for exp, coeff in p.terms.items():
        rest = list(exp)
        rest[idx] = 0
        out.setdefault(exp[idx], {})[tuple(rest)] = coeff
    return {d: MultiPoly(terms) for d, terms in sorted(out.items())}


def divide_exact_z(dividend: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    return divide_exact(dividend, divisor, "z")


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
