import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusfields import Scalar, UniPoly, dense_scan_roots, real_roots
from torusfields import roots
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


def test_rational_roots_past_the_search_limit_are_exact():
    # end coefficients beyond 10^6 skip the rational-root search; the Sturm
    # isolation still gives (10^k + 1)/10^k exactly, in Q and in Q(sqrt(3))
    a = Scalar(0, 1, Fraction(3))
    for k in (8, 40):
        big = 10 ** k
        want = Fraction(big + 1, big)
        near_one = up(-(big + 1), big)
        assert real_roots(near_one * up(-2, 0, 1)) == [
            (pytest.approx(-math.sqrt(2), abs=1e-15), 1), (want, 1),
            (pytest.approx(math.sqrt(2), abs=1e-15), 1)]
        assert real_roots(near_one * up(-2, 0, 1), (0, 2))[0] == (want, 1)
        roots = real_roots(near_one * UniPoly([-a, 0, 1]) * up(-3, 0, 1))
        assert [r for r, _ in roots if isinstance(r, Fraction)] == [want]
        assert len(roots) == 5
    rng = random.Random(41)
    for _ in range(30):
        den = rng.randint(10 ** 6, 10 ** 12)
        want = Fraction(rng.randint(-10 ** 13, 10 ** 13), den)
        other = up(rng.randint(-10 ** 7, -1), rng.randint(-9, 9), rng.randint(1, 10 ** 7))
        roots = real_roots(up(-want.numerator, want.denominator) * other)
        assert [r for r, _ in roots if isinstance(r, Fraction)] == [want]


def test_large_parts_without_rational_roots_keep_their_floats():
    # the rational-root search skips these parts, and the Sturm isolation
    # finds no fraction in their intervals: the polished floats are unchanged
    big = 10 ** 8
    quad = up(-(2 * big + 3), 0, big + 1)
    assert [r for r, _ in real_roots(up(big + 7, -3 * big, 0, big))] == [
        -1.8793852507868698, 0.34729638186754863, 1.532088868919321]
    assert [r for r, _ in real_roots(quad)] == [-1.414213565908629, 1.414213565908629]
    assert [r for r, _ in real_roots(quad * UniPoly([Scalar(0, 1, Fraction(3)), 1]))] == [
        -1.7320508075688772, -1.4142135659086295, 1.414213565908629]


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


# -- reference: the rational-root search over the whole Fraction candidate set


def reference_rational_roots(g):
    shadow = g.p if any(g.p) else [c * g.m.denominator for c in g.q]
    content = math.gcd(g.den, *shadow)
    ints = [c // content for c in shadow]
    candidates = set()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        candidates.add(Fraction(0))
    if low < len(ints) - 1:
        a0, an = ints[low], ints[-1]
        if abs(a0) <= roots.RATIONAL_ROOT_LIMIT and abs(an) <= roots.RATIONAL_ROOT_LIMIT:
            for num in roots._divisors(a0):
                for den in roots._divisors(an):
                    candidates.add(Fraction(num, den))
                    candidates.add(Fraction(-num, den))
    return [r for r in sorted(candidates)
            if roots._values_at((g.p, g.q), r) == (0, 0)]


@pytest.mark.parametrize("m", FIELDS)
def test_rational_roots_match_the_candidate_set_search(m):
    rng = random.Random(31 if m is None else m.numerator)
    scales = [Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 4)))]
    if m is not None:
        scales.append(Scalar(0, Fraction(rng.randint(1, 5), rng.randint(1, 3)), m))
    for _ in range(60):
        poly = _random_product(rng, m)
        if rng.random() < 0.3:
            poly = poly * UniPoly([0, 1])       # a root at 0
        poly = poly * UniPoly([rng.choice(scales)])
        for g in [poly] + [part for part, _ in square_free_parts(poly)]:
            assert roots._rational_roots(g) == reference_rational_roots(g)
    # 36 = 6^2 lists the divisor 6 twice; each root still comes back once
    square = UniPoly([-36, 0, 1])
    assert roots._rational_roots(square) == reference_rational_roots(square) == \
        [Fraction(-6), Fraction(6)]


# -- reference: real_roots with no 1 + t^2 division and no closed form ----------


def reference_real_roots(u, interval=None):
    """Every square-free part through the rational-root search, then the
    degree-1 shortcut or the Sturm isolation, as real_roots did before it
    divided out 1 + t^2 and solved low-degree parts in closed form."""
    if u.is_zero():
        raise ValueError("real_roots of the zero polynomial")
    if u.degree < 1:
        return []
    bounds = None if interval is None else tuple(Fraction(t) for t in interval)
    out = []
    for part, mult in square_free_parts(u):
        found = []
        lead = roots._unsearched_lead(roots._shadow(part))
        for r in roots._rational_roots(part):
            if bounds is None or bounds[0] <= r <= bounds[1]:
                found.append(r)
            part = part.divmod(UniPoly([-r, 1]))[0]
        while part.degree >= 1:
            linear = part.monic() if part.degree == 1 else None
            if linear is not None and not linear.q:
                root = Fraction(-linear.p[0], linear.den)
                if bounds is None or bounds[0] <= root <= bounds[1]:
                    found.append(root)
                break
            try:
                found += roots._sturm_roots(part, bounds, lead)
                break
            except roots._RationalHit as hit:
                t = hit.args[0]
                found.append(t)
                part = part.divmod(UniPoly([-t, 1]))[0]
        out += [(r, mult) for r in found]
    return sorted(out, key=lambda rm: rm[0])


def _draw_rational(rng):
    """A rational of small height, or one whose numerator or denominator is
    past RATIONAL_ROOT_LIMIT."""
    if rng.random() < 0.2:
        return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 8))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _draw_factor(rng, m):
    kinds = ["linear", "rational-quadratic", "irrational-quadratic",
             "complex-quadratic"]
    if m is not None:
        kinds.append("sqrt-linear")
    kind = rng.choice(kinds)
    r = _draw_rational(rng)
    if kind == "linear":
        return UniPoly([-r, 1])
    if kind == "rational-quadratic":
        return UniPoly([-r, 1]) * UniPoly([-_draw_rational(rng), 1])
    if kind == "sqrt-linear":
        return UniPoly([-Scalar(r, Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)),
                                m), 1])
    lin = UniPoly([-r, 1])
    shift = _draw_rational(rng)
    shift = abs(shift) or Fraction(1)
    return lin * lin + UniPoly([shift if kind == "complex-quadratic" else -shift])


def _draw_polynomial(rng, m):
    """A product of drawn factors, some squared or cubed, times (1 + t^2)^k
    with k from 0 to 3 and a rational or sqrt(m) constant."""
    poly = UniPoly([1])
    for _ in range(rng.choice([1, 2, 2, 3])):
        factor = _draw_factor(rng, m)
        for _ in range(rng.choice([1, 1, 1, 1, 2, 2, 3]) if factor.degree == 1 else
                       rng.choice([1, 1, 1, 2])):
            poly = poly * factor
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        poly = poly * UniPoly([1, 0, 1])
    scales = [Scalar(_draw_rational(rng) or 1)]
    if m is not None:
        scales.append(Scalar(0, Fraction(rng.randint(1, 5), rng.randint(1, 3)), m))
    return poly * UniPoly([rng.choice(scales)])


def _draw_interval(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return None
    if kind == 1:
        return (-1, 1)
    shift = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
    if kind == 2:
        return (shift - 1, shift + 1)
    lo = _draw_rational(rng)
    return (lo, lo + abs(_draw_rational(rng)) + Fraction(1, 3))


def _draw_low_degree(rng, m):
    """c*L*(1 + t^2)^k with k from 0 to 3 and L of degree <= 2: 1, t - r,
    (t - r)^2, (t - r1)*(t - r2), or a quadratic with non-real or irrational
    roots; c is rational or, when m is given, a sqrt(m) multiple."""
    r = _draw_rational(rng)
    kind = rng.randrange(6)
    if kind == 0:
        low = UniPoly([1])
    elif kind == 1:
        low = UniPoly([-r, 1])
    elif kind == 2:
        low = UniPoly([-r, 1]) * UniPoly([-r, 1])
    elif kind == 3:
        low = UniPoly([-r, 1]) * UniPoly([-_draw_rational(rng), 1])
    else:
        shift = abs(_draw_rational(rng)) or Fraction(1)
        low = UniPoly([-r, 1]) * UniPoly([-r, 1]) + UniPoly([shift if kind == 4 else -shift])
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        low = low * UniPoly([1, 0, 1])
    scale = Scalar(_draw_rational(rng) or 1)
    if m is not None and rng.random() < 0.2:
        scale = Scalar(0, Fraction(rng.randint(1, 5), rng.randint(1, 3)), m)
    return low * UniPoly([scale])


@pytest.mark.parametrize("m", FIELDS)
def test_real_roots_match_the_reference_repr_for_repr(m):
    # the closed form and the division by 1 + t^2 change no root, no
    # multiplicity and no float bit
    rng = random.Random(29 if m is None else m.numerator)
    kinds = set()
    for i in range(2300):
        poly = _draw_polynomial(rng, m) if i < 1700 else _draw_low_degree(rng, m)
        interval = _draw_interval(rng)
        got = real_roots(poly, interval)
        assert repr(got) == repr(reference_real_roots(poly, interval)), (poly, interval)
        kinds.update(type(r).__name__ for r, _ in got)
    assert kinds == {"Fraction", "float"}


def _no_decomposition(*args, **kwargs):
    raise AssertionError("reached Yun's decomposition or the Sturm chain")


@pytest.mark.parametrize("m", FIELDS)
def test_rational_rest_of_degree_two_needs_no_decomposition(m, monkeypatch):
    # (1 + t^2)^k times a rational part of degree <= 2 whose roots are
    # rational or non-real: a double root keeps multiplicity 2
    rng = random.Random(31 if m is None else m.numerator)
    cases = []
    while len(cases) < 600:
        poly, interval = _draw_low_degree(rng, m), _draw_interval(rng)
        rest, _ = roots._divide_out_one_plus_t2(poly)
        if rest.q or rest.degree == 2 and roots._closed_form_roots(rest) is None:
            continue        # sqrt(m) coefficients or irrational roots
        cases.append((poly, interval, repr(reference_real_roots(poly, interval))))
    monkeypatch.setattr(roots, "square_free_parts", _no_decomposition)
    monkeypatch.setattr(roots, "_sturm_roots", _no_decomposition)
    monkeypatch.setattr(roots, "_rational_roots", _no_decomposition)
    mults = set()
    for poly, interval, want in cases:
        got = real_roots(poly, interval)
        assert repr(got) == want, (poly, interval)
        mults.update(mult for _, mult in got)
    assert mults == {1, 2}
