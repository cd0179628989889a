import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusfields import Scalar, UniPoly, dense_scan_roots, real_roots
from torusfields.roots import square_free_parts

from conftest import sympy_scalar


def up(*coeffs):
    return UniPoly([Scalar(c) for c in coeffs])


def test_simple_root():
    roots = real_roots(up(-2, 0, 1), (0.0, 2.0))       # t^2 - 2
    assert len(roots) == 1
    r, mult = roots[0]
    assert r == pytest.approx(math.sqrt(2), abs=1e-12)
    assert mult == 1


def test_triple_root():
    roots = real_roots(up(0, 0, 0, 1), (-1.0, 1.0))    # t^3
    assert roots == [(Fraction(0), 3)]
    assert isinstance(roots[0][0], Fraction)


def test_no_real_roots():
    assert real_roots(up(1, 0, 1), (-10.0, 10.0)) == []
    assert real_roots(up(1, 0, 1)) == []


def test_roots_outside_interval_excluded():
    roots = real_roots(up(-2, 0, 1), (2.0, 9.0))
    assert roots == []


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_roots(UniPoly([]), (0.0, 1.0))


def test_double_root():
    # (t - 1)^2 * (t + 2)
    poly = up(2, -3, 0, 1)
    assert real_roots(poly, (-3.0, 3.0)) == [(Fraction(-2), 1), (Fraction(1), 2)]


def test_closed_interval_keeps_endpoint_roots():
    # (t - 1)(t + 1)(t^2 - 1/2): the endpoints are exact, the rest floats
    poly = up(-1, 0, 1) * up(Fraction(-1, 2), 0, 1)
    roots = real_roots(poly, (-1, 1))
    assert [r for r, _ in roots][0] == Fraction(-1)
    assert [r for r, _ in roots][-1] == Fraction(1)
    assert [r for r, _ in roots][1:3] == pytest.approx(
        [-math.sqrt(0.5), math.sqrt(0.5)], abs=1e-15)


def test_bisection_point_on_a_root_is_exact():
    # the rational-root search skips end coefficients beyond 10^6, so the
    # roots -2^21 and 3/2 are met by the Sturm walk: -2^21 as a doubling
    # bound, 3/2 as the midpoint of (1, 2)
    big = 2 ** 21
    poly = up(Fraction(-3, 2), 1) * up(big, 1) * up(-3, 0, 1)
    roots = real_roots(poly)
    assert [r for r, _ in roots if isinstance(r, Fraction)] == [
        Fraction(-big), Fraction(3, 2)]
    floats = [r for r, _ in roots if isinstance(r, float)]
    assert floats == pytest.approx([-math.sqrt(3), math.sqrt(3)], abs=1e-15)


def test_linear_part_with_large_root_is_exact():
    # 10^7 is beyond the rational-root search, yet a degree-1 square-free
    # part gives its root exactly
    big = 10 ** 7
    assert real_roots(up(-big, 1)) == [(Fraction(big), 1)]
    poly = up(-big, 1) * up(-big, 1) * up(-3, 0, 1)     # (t - 10^7)^2 (t^2 - 3)
    roots = real_roots(poly)
    assert roots[-1] == (Fraction(big), 2)
    assert isinstance(roots[-1][0], Fraction)
    assert real_roots(poly, (-2, 2)) == [
        (pytest.approx(-math.sqrt(3), abs=1e-15), 1),
        (pytest.approx(math.sqrt(3), abs=1e-15), 1)]
    # an irrational linear root stays a polished float
    a = Scalar(0, 1, Fraction(3))
    roots = real_roots(UniPoly([-big * a, Scalar(1)]))
    assert len(roots) == 1 and isinstance(roots[0][0], float)
    assert roots[0][0] == pytest.approx(big * math.sqrt(3), rel=1e-15)


def test_sqrt_m_coefficients():
    m = Fraction(3)
    a = Scalar(0, 1, m)
    # (t - a)^2 (t + 1/2): the sqrt(3) root is a float, the other exact
    lin = UniPoly([-a, 1])
    poly = lin * lin * up(Fraction(1, 2), 1)
    roots = real_roots(poly)
    assert roots[0] == (Fraction(-1, 2), 1)
    assert roots[1][0] == pytest.approx(math.sqrt(3), abs=1e-15)
    assert roots[1][1] == 2


@pytest.mark.parametrize("seed", range(12))
def test_against_numpy_roots(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 6)
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
    poly = up(*coeffs)
    numpy_roots = np.roots(list(reversed([float(c) for c in coeffs])))
    expected = sorted(r.real for r in numpy_roots if abs(r.imag) < 1e-9)
    got = real_roots(poly)
    flattened = sorted(r for r, mult in got for _ in range(mult))
    assert len(flattened) == len(expected)
    for a, b in zip(flattened, expected):
        assert a == pytest.approx(b, abs=1e-7)


def test_dense_scan_agrees():
    poly = up(-2, 0, 1)
    scanned = dense_scan_roots(poly, (0.0, 2.0))
    assert len(scanned) == 1
    assert scanned[0][0] == pytest.approx(math.sqrt(2), abs=1e-9)


# -- differential tests against sympy -------------------------------------------

FIELDS = [None, Fraction(3), Fraction(9, 2)]    # Q, Q(sqrt 3), Q(sqrt(9/2))


def _random_factor(rng, m):
    """A monic factor: rational or sqrt(m) linear, or a quadratic with
    no real roots or with irrational ones."""
    kinds = ["rational", "quadratic-complex", "quadratic-real"]
    if m is not None:
        kinds.append("sqrt-linear")
    kind = rng.choice(kinds)
    r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    if kind == "rational":
        return UniPoly([-r, 1])
    if kind == "sqrt-linear":
        return UniPoly([-Scalar(r, rng.choice([-2, -1, 1, 2]), m), 1])
    lin = UniPoly([-r, 1])
    shift = rng.choice([1, 2, 5, 7]) * (1 if kind == "quadratic-complex" else -1)
    return lin * lin + UniPoly([shift])


def _random_product(rng, m):
    poly = UniPoly([1])
    for _ in range(rng.randint(2, 4)):
        factor = _random_factor(rng, m)
        for _ in range(rng.choice([1, 1, 2, 3])):
            poly = poly * factor
    return poly


def _to_sympy(u, t):
    return sum(sympy_scalar(c) * t ** k for k, c in enumerate(u.coeffs))


def _sympy_real_roots(u, m):
    """(rational roots, irrational roots) of u as {value: multiplicity}.

    Multiplicities come from sympy's square-free factorization over
    Q(sqrt(m)); values from isolating intervals of each factor's rational
    norm, kept where the factor itself vanishes.
    """
    import sympy

    t = sympy.Symbol("t")
    ext = {} if m is None else {
        "extension": sympy.sqrt(sympy.Rational(m.numerator, m.denominator))}
    _, parts = sympy.sqf_list(sympy.expand(_to_sympy(u, t)), t, **ext)
    rational, irrational = {}, {}
    for f, mult in parts:
        poly = sympy.Poly(f, t, **ext)
        norm = poly.norm() if m is not None else poly
        exact = set()
        for lin, _ in sympy.factor_list(norm.as_expr(), t)[1]:
            if sympy.degree(lin, t) == 1:
                r = sympy.solve(lin, t)[0]
                if sympy.expand(f.subs(t, r)) == 0:
                    exact.add(r)
                    rational[Fraction(int(r.p), int(r.q))] = mult
        for (lo, hi), _ in norm.intervals(eps=sympy.Rational(1, 10 ** 30)):
            mid = (lo + hi) / 2
            if any(lo <= r <= hi for r in exact):
                continue
            if abs(f.subs(t, mid).evalf(40)) < 1e-12:
                irrational[float(mid)] = mult
    return rational, irrational


@pytest.mark.parametrize("m", FIELDS)
@pytest.mark.parametrize("seed", range(5))
def test_against_sympy(m, seed):
    rng = random.Random(1000 * seed + (0 if m is None else m.numerator))
    poly = _random_product(rng, m)
    got = real_roots(poly)
    rational, irrational = _sympy_real_roots(poly, m)
    assert {r: k for r, k in got if isinstance(r, Fraction)} == rational
    floats = sorted((r, k) for r, k in got if isinstance(r, float))
    assert [k for _, k in floats] == [irrational[r] for r in sorted(irrational)]
    assert [r for r, _ in floats] == pytest.approx(sorted(irrational), rel=1e-12,
                                                   abs=1e-12)

    # the square-free parts reproduce the polynomial up to a constant
    product = UniPoly([1])
    for part, mult in square_free_parts(poly):
        for _ in range(mult):
            product = product * part
    assert product == poly.monic()

    # the float cross-check finds the same roots
    if got:
        lo = min(float(r) for r, _ in got) - 1
        hi = max(float(r) for r, _ in got) + 1
        scanned = dense_scan_roots(poly, (lo, hi), samples=20000)
        assert [k for _, k in scanned] == [k for _, k in got]
        assert [r for r, _ in scanned] == pytest.approx(
            [float(r) for r, _ in got], abs=1e-9)
