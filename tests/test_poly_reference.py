"""Seeded differential tests of the integer-numerator polynomials.

Every operation is compared with a plain reference kept here: a MultiPoly is
a ``dict[exp -> Scalar]`` and a UniPoly a list of Scalars, both combined with
Scalar arithmetic only.  The extension parameter runs over a square, an
integer non-square and a non-integer m, with sqrt(m) coefficients.
"""

import math
import random
from fractions import Fraction

import pytest

from torusfields import MixedExtensionError, MultiPoly, Scalar, UniPoly, parse
from torusfields.kernels import compile_poly
from torusfields.poly import unipoly_gcd
from torusfields.roots import real_roots, square_free_parts

from conftest import NotDivisible, divide_exact

MS = (Fraction(4), Fraction(3), Fraction(9, 2))
SEEDS = range(12)
ZERO = Scalar(0)


def rand_scalar(rng, m):
    p = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if rng.random() < 0.4:
        return Scalar(p, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), m)
    return Scalar(p)


def rand_ref(rng, m, max_degree=3, max_terms=5):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(3))
        if sum(exp) <= max_degree:
            out[exp] = rand_scalar(rng, m)
    return clean(out)


# -- the reference: dict[exp -> Scalar] -------------------------------------------


def clean(d):
    return {e: c for e, c in d.items() if not c.is_zero()}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c * sign
    return clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return clean(out)


def ref_pow(a, n):
    out = {(0, 0, 0): Scalar(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def shift(e, idx, by):
    e = list(e)
    e[idx] += by
    return tuple(e)


def ref_diff(a, idx):
    return clean({shift(e, idx, -1): c * e[idx] for e, c in a.items() if e[idx]})


def ref_divide(dividend, divisor, idx):
    d_deg = max(e[idx] for e in divisor)
    lead_inv = divisor[shift((0, 0, 0), idx, d_deg)].inverse()
    rem, quot = dict(dividend), {}
    while rem:
        r_deg = max(e[idx] for e in rem)
        if r_deg < d_deg:
            raise NotDivisible("reference remainder")
        for e, c in [(e, c) for e, c in rem.items() if e[idx] == r_deg]:
            term = {shift(e, idx, -d_deg): c * lead_inv}
            quot.update(term)
            rem = ref_add(rem, ref_mul(term, divisor), -1)
    return quot


def same(poly, ref):
    """The integer form equals the reference, as a value and as a term view."""
    return poly == MultiPoly(ref) and poly.terms == ref


@pytest.mark.parametrize("m", MS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_multipoly_ring_operations(m, seed):
    rng = random.Random(seed)
    a, b = rand_ref(rng, m), rand_ref(rng, m)
    pa, pb = MultiPoly(a), MultiPoly(b)
    assert same(pa, a) and same(pb, b)
    assert same(pa + pb, ref_add(a, b))
    assert same(pa - pb, ref_add(a, b, -1))
    assert same(pa * pb, ref_mul(a, b))
    assert same(-pa, clean({e: -c for e, c in a.items()}))
    n = rng.randint(0, 3)
    assert same(pa ** n, ref_pow(a, n))
    c = rand_scalar(rng, m)
    assert same(pa.scale(c), ref_mul(a, {(0, 0, 0): c}))
    for idx, var in enumerate("xyz"):
        assert same(pa.differentiate(var), ref_diff(a, idx))
    assert hash(pa * pb) == hash(MultiPoly(ref_mul(a, b)))


@pytest.mark.parametrize("m", MS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_divide_exact_matches_reference(m, seed):
    rng = random.Random(seed)
    idx = rng.randint(0, 2)
    var = "xyz"[idx]
    # a divisor whose leading var-coefficient is a (possibly sqrt(m)) scalar
    lower = {e: c for e, c in rand_ref(rng, m, max_degree=2).items() if e[idx] < 2}
    divisor = {**lower, shift((0, 0, 0), idx, 2): rand_scalar(rng, m) or Scalar(3, 1, m)}
    quotient = rand_ref(rng, m)
    product = ref_mul(quotient, divisor)
    got = divide_exact(MultiPoly(product), MultiPoly(divisor), var)
    assert same(got, ref_divide(product, divisor, idx))
    assert same(got, quotient)
    remainder = ref_add(product, {(0, 0, 0): Scalar(1)})
    with pytest.raises(NotDivisible):
        ref_divide(remainder, divisor, idx)
    with pytest.raises(NotDivisible):
        divide_exact(MultiPoly(remainder), MultiPoly(divisor), var)


# -- univariate reference: lists of Scalars -----------------------------------


def utrim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def umul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return utrim(out)


def usub(a, b):
    n = max(len(a), len(b))
    a, b = a + [ZERO] * (n - len(a)), b + [ZERO] * (n - len(b))
    return utrim(x + y * -1 for x, y in zip(a, b))


def udivmod(a, b):
    inv = b[-1].inverse()
    rem, quot = list(a), [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * inv
        k = len(rem) - len(b)
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] = rem[k + i] + c * y * -1
        rem = utrim(rem)
    return utrim(quot), rem


def umonic(a):
    inv = a[-1].inverse()
    return [c * inv for c in a]


def ugcd(polys):
    g = []
    for p in polys:
        a, b = g, p
        while b:
            a, b = b, udivmod(a, b)[1]
        g = umonic(a) if a else []
    return g


def uderiv(a):
    return utrim([c * i for i, c in enumerate(a)][1:])


def usquare_free(u):
    """Yun's algorithm on the reference lists."""
    du = uderiv(u)
    g = ugcd([u, du])
    if len(g) == 1:
        return [(umonic(u), 1)]
    c = udivmod(u, g)[0]
    d = usub(udivmod(du, g)[0], uderiv(c))
    parts, i = [], 1
    while len(c) > 1:
        a = ugcd([c, d])
        c = udivmod(c, a)[0]
        d = usub(udivmod(d, a)[0], uderiv(c))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def rand_factor(rng, m):
    """A monic linear or quadratic factor with rational or sqrt(m) parts."""
    if rng.random() < 0.6:
        return [-rand_scalar(rng, m), Scalar(1)]
    return [rand_scalar(rng, m), rand_scalar(rng, m), Scalar(1)]


@pytest.mark.parametrize("m", MS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_unipoly_gcd_and_square_free_parts(m, seed):
    rng = random.Random(seed)
    common = [Scalar(1)]
    for _ in range(rng.randint(0, 2)):
        common = umul(common, rand_factor(rng, m))
    a = umul(common, umul(rand_factor(rng, m), [rand_scalar(rng, m) or Scalar(2)]))
    b = umul(common, rand_factor(rng, m))
    assert UniPoly(a).coeffs == a
    assert unipoly_gcd([UniPoly(a), UniPoly(b)]).coeffs == ugcd([a, b])
    quot, rem = UniPoly(a).divmod(UniPoly(b))
    assert (quot.coeffs, rem.coeffs) == udivmod(a, b)

    u = [rand_scalar(rng, m) or Scalar(1)]
    for power in range(1, 4):
        if rng.random() < 0.7:
            factor = rand_factor(rng, m)
            for _ in range(power):
                u = umul(u, factor)
    if len(u) > 1:
        got = [(part.coeffs, mult) for part, mult in square_free_parts(UniPoly(u))]
        assert got == usquare_free(u)


@pytest.mark.parametrize("m", MS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_real_roots_of_constructed_products(m, seed):
    """Roots and multiplicities of lead * prod (t - r)^k * (t^2 + d), d > 0."""
    rng = random.Random(seed)
    roots, count = {}, rng.randint(1, 3)
    while len(roots) < count:
        r = rand_scalar(rng, m)
        roots[r.to_float()] = (r, rng.randint(1, 3))
    u = [Scalar(rng.randint(1, 5)), ZERO, Scalar(1)]
    u = umul(u, [rand_scalar(rng, m) or Scalar(-3)])
    for r, k in roots.values():
        for _ in range(k):
            u = umul(u, [-r, Scalar(1)])
    got = real_roots(UniPoly(u))
    want = sorted(roots.values(), key=lambda rk: rk[0].to_float())
    assert [k for _, k in got] == [k for _, k in want]
    for (root, _), (r, _) in zip(got, want):
        if not r.q:
            assert root == r.p and isinstance(root, Fraction)
        else:
            assert math.isclose(root, r.to_float(), rel_tol=1e-12, abs_tol=1e-12)


# -- floats, parameters, equality ----------------------------------------------------


@pytest.mark.parametrize("m", MS + (Fraction(5), Fraction(7, 3)), ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_float_conversions_are_bit_identical(m, seed):
    rng = random.Random(seed)
    ref = rand_ref(rng, m, max_terms=8)
    poly = MultiPoly(ref)
    want = [(e, c.to_float()) for e, c in sorted(ref.items())]
    got = compile_poly(poly, float(m)).terms
    assert [e for e, _ in got] == [e for e, _ in want]
    assert all(g.hex() == w.hex() for (_, g), (_, w) in zip(got, want))
    coeffs = [rand_scalar(rng, m) for _ in range(5)] + [Scalar(1, 1, m)]
    assert [v.hex() for v in UniPoly(coeffs).to_floats()] == \
        [c.to_float().hex() for c in utrim(coeffs)]


def test_mixing_two_parameters_raises():
    a3, a5 = parse("a*x + 1", 3), parse("a*y", 5)
    for op in (lambda: a3 + a5, lambda: a3 - a5, lambda: a3 * a5,
               lambda: divide_exact(a3 * parse("z + a", 3), parse("z + a", 5))):
        with pytest.raises(MixedExtensionError):
            op()
    u3, u5 = UniPoly([Scalar(0, 1, 3), 1]), UniPoly([Scalar(0, 1, 5), 1])
    for op in (lambda: u3 + u5, lambda: u3 * u5, lambda: u3.divmod(u5),
               lambda: unipoly_gcd([u3, u5])):
        with pytest.raises(MixedExtensionError):
            op()
    # a rational polynomial mixes with any parameter
    assert parse("x", 3) * a5 == parse("a*x*y", 5)


def test_equality_and_hash_include_m():
    assert parse("a*x", 3) != parse("a*x", 5)
    assert len({parse("a*x", 3), parse("a*x", 5), parse("a*x", Fraction(6, 2))}) == 2
    assert UniPoly([Scalar(0, 1, 3)]) != UniPoly([Scalar(0, 1, 5)])
    # without a sqrt part, m is not carried
    assert parse("(1/2)*x + 1", 3) == parse("(1/2)*x + 1", 5)
    assert hash(parse("(1/2)*x + 1", 3)) == hash(parse("(1/2)*x + 1", 5))
    assert (parse("a*x", 3) - parse("a*x", 3)).m is None
    # canonical after cancellation: content and denominator reduce
    assert (parse("(1/3)*x + (1/6)*y", 3) * 6) == parse("2*x + y", 3)
