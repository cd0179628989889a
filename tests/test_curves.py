import math
import random
from fractions import Fraction

import pytest

from torusfields import roots
from torusfields import (CubicParams, KolmogorovParams, MeridianPlane, MultiPoly,
                         PseudoTypeParams, Scalar, TorusSurface, UniPoly, VectorField,
                         X, Y, Z, build_cubic, build_kolmogorov,
                         build_pseudo_type, build_two_parallel,
                         check_four_meridian_criterion, cofactor_on_torus,
                         divide_exact, extactic_xy, invariant_meridians,
                         invariant_parallels, lie_bracket, linear_xy_factors,
                         parse, recognize, TwoParallelParams)
from torusfields.curves import LinearFactor, plane_from_factor
from torusfields.poly import line_gcd, unipoly_gcd, z_profile_gcd

from conftest import (homogeneous_component, random_linear, random_poly,
                      random_scalar, sympy_scalar)

M = Fraction(4)
# inventories run at a square m (sqrt(m) folds to 2) and at two non-square m
MS = (Fraction(4), Fraction(3), Fraction(9, 2))


def sect5_field(m=M):
    return build_cubic(CubicParams(MultiPoly.constant(1), X * Y,
                                   Scalar(0), Scalar(0)), m)


def plane_pairs(mset):
    return sorted((round(pl.a, 9), round(pl.b, 9), mult)
                  for pl, mult in mset.planes)


def test_extactic_examples():
    ko = build_kolmogorov(KolmogorovParams(Scalar(3), Scalar(2)), M)
    assert extactic_xy(ko) == parse("-3*x*y*(x^2+y^2)", M)

    rng = random.Random(17)
    for _ in range(10):
        params = CubicParams(random_linear(rng),
                             random_poly(rng, max_degree=2, max_terms=4),
                             Scalar(rng.randint(-2, 2)),
                             Scalar(rng.randint(-2, 2)))
        field = build_cubic(params, M)
        expected = (-(params.f * (X * X + Y * Y))
                    + Z * (X * params.gamma - Y * params.beta))
        assert extactic_xy(field) == expected

    a_poly = parse("x^2 - x*y", M)
    pt = build_pseudo_type(PseudoTypeParams(3, a_poly))
    assert extactic_xy(pt) == -(a_poly * (X * X + Y * Y))


def test_meridians_worked_example():
    for m in MS:
        mset = invariant_meridians(sect5_field(m))
        assert not mset.infinite
        assert mset.meridian_count() == 4
        assert plane_pairs(mset) == [(0.0, 1.0, 1), (1.0, 0.0, 1)]
        assert all(pl.exact for pl, _ in mset.planes)
        assert not mset.fallback_scan


def test_meridians_kolmogorov():
    rng = random.Random(4)
    for _ in range(10):
        c1 = Scalar(rng.choice([c for c in range(-4, 5) if c]))
        c2 = Scalar(rng.choice([c for c in range(-4, 5) if c]))
        for m in MS:
            ko = build_kolmogorov(KolmogorovParams(c1, c2), m)
            mset = invariant_meridians(ko)
            assert plane_pairs(mset) == [(0.0, 1.0, 1), (1.0, 0.0, 1)]
            pset = invariant_parallels(ko)
            assert [(pl.k, mult) for pl, mult in pset.planes] == [(0.0, 1)]
            assert pset.planes[0][0].exact


def test_meridians_saturating_pseudo_type():
    # A = product of n-1 distinct meridian forms achieves the bound 2(n-1)
    forms = [(1, 0), (0, 1), (1, -1), (2, 1), (1, 3)]
    for n in range(2, 7):
        a_poly = MultiPoly.constant(1)
        for (ca, cb) in forms[:n - 1]:
            a_poly = a_poly * (X * ca + Y * cb)
        field = build_pseudo_type(PseudoTypeParams(n, a_poly))
        mset = invariant_meridians(field)
        assert mset.meridian_count() == 2 * (n - 1)
        assert all(pl.exact for pl, _ in mset.planes)


def test_meridian_multiplicity():
    # A = (x - y)^2 gives one plane of multiplicity 2
    a_poly = (X - Y) * (X - Y)
    field = build_pseudo_type(PseudoTypeParams(3, a_poly))
    mset = invariant_meridians(field)
    assert len(mset.planes) == 1
    plane, mult = mset.planes[0]
    assert mult == 2
    assert mset.meridian_count() == 4
    assert plane.polynomial() == X - Y


def test_meridians_irrational_slope():
    # f = x^2 - 2 y^2 factors through slopes +-1/sqrt(2)
    for m in MS:
        params = CubicParams(MultiPoly.zero(), parse("x^2 - 2*y^2", m),
                             Scalar(0), Scalar(0))
        field = build_cubic(params, m)
        mset = invariant_meridians(field)
        assert len(mset.planes) == 2
        assert mset.meridian_count() == 4
        slopes = sorted(-pl.a / pl.b for pl, _ in mset.planes)
        assert slopes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                       abs=1e-12)
        assert not any(pl.exact for pl, _ in mset.planes)


def test_meridian_slope_in_sqrt_m():
    # f = (y - a*x)(y + x): the slope a is rational only at square m
    for m in MS:
        f = parse("(y - a*x)*(y + x)", m)
        field = build_cubic(CubicParams(MultiPoly.zero(), f, Scalar(0),
                                        Scalar(0)), m)
        mset = invariant_meridians(field)
        slopes = {round(-pl.a / pl.b, 12): (pl.exact, mult)
                  for pl, mult in mset.planes}
        root = math.sqrt(m)
        assert slopes == {-1.0: (True, 1),
                          round(root, 12): (root.is_integer(), 1)}


def test_meridians_infinite_for_radial_rotation():
    # (fy, -fx, 0) with f = x^2 + y^2: extactic is identically... nonzero;
    # a true infinite case is the zero extactic, e.g. f = 0 field is zero.
    zero = VectorField(MultiPoly.zero(), MultiPoly.zero(), MultiPoly.zero())
    assert invariant_meridians(zero).infinite
    assert invariant_parallels(zero).infinite


def test_no_real_meridian_planes():
    for m in MS:
        params = CubicParams(MultiPoly.zero(), parse("x^2 + y^2", m),
                             Scalar(0), Scalar(0))
        field = build_cubic(params, m)
        mset = invariant_meridians(field)
        assert mset.planes == []


def test_parallels_two_parallel_family():
    rng = random.Random(6)
    for _ in range(10):
        p = rng.randint(-3, 3)
        q = rng.randint(-3, 3)
        if p == 0 and q == 0:
            continue
        params = TwoParallelParams(Scalar(p), Scalar(q),
                                   random_poly(rng, max_degree=2, max_terms=3))
        for m in MS:
            pset = invariant_parallels(build_two_parallel(params, m))
            assert [(pl.k, mult) for pl, mult in pset.planes] == [(-1.0, 1), (1.0, 1)]
            assert pset.parallel_count() == 2  # boundary circles count once


def test_parallels_pseudo_type_infinite():
    pt = build_pseudo_type(PseudoTypeParams(3, X * Y))
    assert invariant_parallels(pt).infinite


def test_parallels_multiplicity_and_range():
    # R = (z - 1/2)^2 * x : plane k = 1/2 with multiplicity 2
    r_poly = (Z - MultiPoly.constant(Fraction(1, 2))) ** 2 * X
    field = VectorField(MultiPoly.zero(), MultiPoly.zero(), r_poly)
    pset = invariant_parallels(field)
    assert [(pl.k, mult) for pl, mult in pset.planes] == [(0.5, 2)]
    assert pset.parallel_count() == 4

    # roots outside [-1, 1] are not parallels
    field = VectorField(MultiPoly.zero(), MultiPoly.zero(),
                        (Z - MultiPoly.constant(2)) * X)
    assert invariant_parallels(field).planes == []


def test_four_meridian_criterion_examples():
    assert check_four_meridian_criterion(
        CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0)))
    assert not check_four_meridian_criterion(
        CubicParams(MultiPoly.constant(1), parse("x^2 + y^2", M),
                    Scalar(0), Scalar(0)))
    assert not check_four_meridian_criterion(
        CubicParams(MultiPoly.constant(1), X * Y, Scalar(1), Scalar(0)))
    # double factor still counts four meridians with multiplicity
    assert check_four_meridian_criterion(
        CubicParams(MultiPoly.zero(), (X - Y) * (X - Y), Scalar(0), Scalar(0)))
    # f of wrong degree or with z terms fails
    assert not check_four_meridian_criterion(
        CubicParams(MultiPoly.zero(), X, Scalar(0), Scalar(0)))
    assert not check_four_meridian_criterion(
        CubicParams(MultiPoly.zero(), X * Z, Scalar(0), Scalar(0)))


def test_four_meridian_criterion_matches_inventory():
    rng = random.Random(2024)
    agree = 0
    for _ in range(200):
        params = CubicParams(
            Kprime=random_linear(rng),
            f=random_poly(rng, max_degree=2, max_terms=4),
            beta=Scalar(rng.randint(-1, 1)),
            gamma=Scalar(rng.randint(-1, 1)))
        criterion = check_four_meridian_criterion(params)
        for m in MS:
            field = build_cubic(params, m)
            if extactic_xy(field).is_zero():
                assert not criterion
                continue
            count = invariant_meridians(field).meridian_count()
            assert criterion == (count == 4), (params, m, count)
            agree += 1
    assert agree > 150 * len(MS)


def test_meridian_bound_on_mixed_fields():
    rng = random.Random(55)
    checked = 0
    for _ in range(80):
        kind = rng.random()
        if kind < 0.5:
            params = CubicParams(
                Kprime=random_linear(rng),
                f=random_poly(rng, max_degree=2, max_terms=4),
                beta=Scalar(rng.randint(-2, 2)),
                gamma=Scalar(rng.randint(-2, 2)))
            fields = [build_cubic(params, m) for m in MS]
        else:
            n = rng.randint(2, 6)
            a_poly = random_poly(rng, max_degree=n - 1, max_terms=4)
            a_poly = homogeneous_component(a_poly, n - 1)
            if a_poly.is_zero():
                continue
            fields = [build_pseudo_type(PseudoTypeParams(n, a_poly))]
        msets = [invariant_meridians(field) for field in fields]
        if any(mset.infinite for mset in msets):
            continue
        for field, mset in zip(fields, msets):
            degree = int(field.degree)
            assert mset.meridian_count() <= 2 * (degree - 1)
        checked += 1
    assert checked > 40


def test_parallel_plane_bound_for_cubics():
    rng = random.Random(66)
    for _ in range(60):
        params = CubicParams(
            Kprime=random_linear(rng),
            f=random_poly(rng, max_degree=2, max_terms=3),
            beta=Scalar(rng.randint(-2, 2)),
            gamma=Scalar(rng.randint(-2, 2)))
        for m in MS:
            field = build_cubic(params, m)
            if field.R.is_zero():
                continue
            pset = invariant_parallels(field)
            assert pset.plane_multiplicity_total() <= 2


def test_pseudo_type_2_bracket_meridian_bound():
    rng = random.Random(14)
    for _ in range(30):
        a = homogeneous_component(random_linear(rng), 1)
        b = homogeneous_component(random_linear(rng), 1)
        if a.is_zero() or b.is_zero():
            continue
        bracket = lie_bracket(build_pseudo_type(PseudoTypeParams(2, a)),
                              build_pseudo_type(PseudoTypeParams(2, b)))
        if bracket.is_zero():
            continue
        mset = invariant_meridians(bracket)
        assert not mset.infinite
        assert len(mset.planes) <= 1
        assert mset.meridian_count() <= 2


def test_reported_planes_really_divide_extactic():
    rng = random.Random(31337)
    for _ in range(40):
        params = CubicParams(
            Kprime=random_linear(rng),
            f=random_poly(rng, max_degree=2, max_terms=4),
            beta=Scalar(rng.randint(-2, 2)),
            gamma=Scalar(rng.randint(-2, 2)))
        for m in MS:
            field = build_cubic(params, m)
            ext = extactic_xy(field)
            if ext.is_zero():
                continue
            mset = invariant_meridians(field)
            for plane, mult in mset.planes:
                if not plane.exact:
                    continue
                ppoly = plane.polynomial()
                var = "x" if not ppoly.coefficient((1, 0, 0)).is_zero() else "y"
                quotient = ext
                for _ in range(mult):
                    quotient = divide_exact(quotient, ppoly, var)


def test_reported_planes_pass_invariance_residual():
    from torusfields.vfield import apply

    for m in MS:
        # exact planes: the field derivative of the plane divides exactly
        field = sect5_field(m)
        mset = invariant_meridians(field)
        for plane, _ in mset.planes:
            ppoly = plane.polynomial()
            derivative = apply(field, ppoly)
            if not derivative.is_zero():
                var = "x" if not ppoly.coefficient((1, 0, 0)).is_zero() else "y"
                divide_exact(derivative, ppoly, var)

        # float planes: the slopes t0 of x^2 - 2*y^2 solve 2*t0^2 - 1 = 0
        params = CubicParams(MultiPoly.zero(), parse("x^2 - 2*y^2", m),
                             Scalar(0), Scalar(0))
        planes = invariant_meridians(build_cubic(params, m)).planes
        assert len(planes) == 2
        for plane, _ in planes:
            t0 = -plane.a / plane.b
            assert abs(2 * t0 * t0 - 1) < 1e-12


def _planted_plane_field(kprime, beta, gamma, cofactor, m):
    """``build_cubic`` with f = L*cofactor for L = gamma*x - beta*y, so that
    Q*x - P*y = L*(z - (x^2 + y^2)*cofactor) and the plane L = 0 is
    invariant."""
    f = (X * gamma - Y * beta) * cofactor
    return build_cubic(CubicParams(kprime, f, beta, gamma), m)


def _is_plane(plane, beta, gamma):
    """The plane a*x + b*y = 0 is gamma*x - beta*y = 0."""
    bf, gf = beta.to_float(), gamma.to_float()
    return abs(plane.a * bf + plane.b * gf) < 1e-12 * math.hypot(bf, gf)


@pytest.mark.parametrize("m", [Fraction(3), Fraction(5), Fraction(9, 2),
                               Fraction(2)])
def test_meridian_plane_with_irrational_slope_in_sqrt_m(m):
    # the slope gamma/beta is irrational in Q(sqrt(m)), so only an exact
    # argument decides that the plane is invariant
    beta, gamma = Scalar(Fraction(5, 3), 1, m), Scalar(-5, 1, m)
    field = _planted_plane_field(MultiPoly.zero(), beta, gamma, X, m)
    mset = invariant_meridians(field)
    assert len(mset.planes) == 1
    plane, mult = mset.planes[0]
    assert mult == 1
    assert -plane.a / plane.b == pytest.approx(
        (gamma * beta.inverse()).to_float(), abs=1e-12)
    assert mset.meridian_count() == 2


def _nonzero_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))


def test_planted_meridian_planes_are_reported():
    rng = random.Random(2027)
    for m in (Fraction(3), Fraction(5), Fraction(9, 2), Fraction(4)):
        for _ in range(25):
            # mixed p + q*sqrt(m) values at non-square m, rational ones at m = 4
            beta, gamma = (Scalar(_nonzero_fraction(rng),
                                  0 if m == 4 else _nonzero_fraction(rng), m)
                           for _ in range(2))
            field = _planted_plane_field(random_linear(rng), beta, gamma,
                                         random_linear(rng), m)
            mset = invariant_meridians(field)
            assert not mset.infinite
            assert any(_is_plane(plane, beta, gamma) for plane, _ in mset.planes)


def test_parallels_irrational_height():
    # R = (z^2 - 1/2) * x: invariant parallels at k = +-1/sqrt(2), floats
    r_poly = (Z * Z - MultiPoly.constant(Fraction(1, 2))) * X
    field = VectorField(MultiPoly.zero(), MultiPoly.zero(), r_poly)
    pset = invariant_parallels(field)
    assert len(pset.planes) == 2
    ks = sorted(pl.k for pl, _ in pset.planes)
    assert ks == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], abs=1e-10)
    assert not any(pl.exact for pl, _ in pset.planes)
    assert pset.parallel_count() == 4


def _sympy_linear_xy_factors(p, m):
    """(slope or None, exact, multiplicity) of every real factor a*x + b*y of
    p, from sympy's factorization over Q(sqrt(m)).

    A real linear form dividing p divides one irreducible factor over
    Q(sqrt(m)), together with its conjugates, so that factor is a binary
    form in x, y whose real roots y/x are the slopes.
    """
    import sympy

    x, y, z = sympy.symbols("x y z")
    root_m = sympy.sqrt(sympy.Rational(m.numerator, m.denominator))
    expr = sum(sympy_scalar(c) * x ** i * y ** j * z ** k for (i, j, k), c in p)
    out = []
    for g, mult in sympy.factor_list(expr, x, y, z, extension=root_m)[1]:
        poly = sympy.Poly(g, x, y, z)
        if poly.degree(z) > 0 or not poly.is_homogeneous:
            continue
        if poly.degree(y) < poly.total_degree():
            out.append((None, True, mult))      # irreducible, so g = c*x
            continue
        in_t = sympy.Poly(g.subs(x, 1), y)
        for t0 in in_t.nroots(n=30):
            if abs(sympy.im(t0)) < 1e-20:
                exact = in_t.degree() == 1 and sympy.nsimplify(
                    -in_t.all_coeffs()[1] / in_t.all_coeffs()[0]).is_rational
                out.append((float(sympy.re(t0)), bool(exact), mult))
    return out


def test_linear_factors_against_sympy():
    # pseudo-type fields with A a product of random binary forms over
    # Q(sqrt(m)): the extactic is -A*(x^2 + y^2)
    rng = random.Random(8)
    for i in range(12):
        m = MS[i % 3]
        a_poly = MultiPoly.constant(1)
        for _ in range(rng.randint(1, 3)):
            degree = rng.choice([1, 1, 2])
            form = MultiPoly({(d, degree - d, 0): random_scalar(rng, m, True)
                              for d in range(degree + 1)})
            if not form.is_zero():
                a_poly = a_poly * form ** rng.choice([1, 1, 2])
        if a_poly.degree < 1:
            continue
        field = build_pseudo_type(PseudoTypeParams(int(a_poly.degree) + 1, a_poly))
        ext = extactic_xy(field)
        got = [(None if fa.slope is None else float(fa.slope), fa.exact,
                fa.multiplicity) for fa in linear_xy_factors(ext)]
        want = _sympy_linear_xy_factors(ext, m)
        key = lambda e: (e[0] is not None, e[0] or 0.0)
        got, want = sorted(got, key=key), sorted(want, key=key)
        assert [(e[0] is None, e[1], e[2]) for e in got] == \
            [(e[0] is None, e[1], e[2]) for e in want], (a_poly, m)
        assert [e[0] for e in got if e[0] is not None] == pytest.approx(
            [e[0] for e in want if e[0] is not None], abs=1e-12)


# -- the named fields' planes come from the closed form, with no Sturm chain ----

NAMED_FIELDS = {
    # name: (P, Q, R, meridian planes (a, b, multiplicity), parallel heights)
    "worked-cubic": ("(1/4)*x*z + x*y^2", "(1/4)*y*z - x^2*y",
                     "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)",
                     [(0.0, 1.0, 1), (1.0, 0.0, 1)], []),
    "kolmogorov": ("(1/4)*(2*z)*x*z + (x*y)*y", "(1/4)*(2*z)*y*z - (x*y)*x",
                   "(1/2)*(2*z)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)",
                   [(0.0, 1.0, 1), (1.0, 0.0, 1)], [(0.0, 1)]),
    "quadratic": ("(1/4)*(2)*x*z + (1 + x - 2*y + z)*y",
                  "(1/4)*(2)*y*z - (1 + x - 2*y + z)*x",
                  "(1/2)*(2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)", [], []),
    "pseudo-type": ("(x^2 - y^2)*y", "-(x^2 - y^2)*x", "0",
                    [(0.7071067811865475, -0.7071067811865475, 1),
                     (0.7071067811865475, 0.7071067811865475, 1)], None),
}


def _no_search(*args, **kwargs):
    raise AssertionError("reached the rational-root search or the Sturm chain")


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
def test_named_planes_need_no_search_and_no_sturm(name, m, monkeypatch):
    # each gcd is (1 + t^2)^k times parts of degree <= 2 with rational roots
    px, qy, rz, planes, heights = NAMED_FIELDS[name]
    field = VectorField(parse(px, m), parse(qy, m), parse(rz, m))
    monkeypatch.setattr(roots, "_sturm_roots", _no_search)
    monkeypatch.setattr(roots, "_rational_roots", _no_search)
    mset = invariant_meridians(field)
    assert not mset.infinite
    assert [(pl.a, pl.b, mult) for pl, mult in mset.planes] == planes
    assert mset.meridian_count() == 2 * len(planes)
    assert all(pl.exact for pl, _ in mset.planes)
    pset = invariant_parallels(field)
    if heights is None:
        assert pset.infinite
    else:
        assert [(pl.k, mult) for pl, mult in pset.planes] == heights
        assert all(pl.exact for pl, _ in pset.planes)


def test_irrational_slopes_still_reach_sturm_with_the_same_float_bits(monkeypatch):
    # A = x^2 - 3*y^2 at m = 3: the gcd (1 - 3*t^2)*(1 + t^2) leaves the
    # irrational quadratic t^2 - 1/3, isolated by Sturm and polished on the
    # coefficients with 1 + t^2 restored
    m = Fraction(3)
    field = VectorField(parse("(x^2 - 3*y^2)*y", m), parse("-(x^2 - 3*y^2)*x", m),
                        parse("0", m))
    calls = []
    sturm = roots._sturm_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return sturm(*args, **kwargs)

    monkeypatch.setattr(roots, "_sturm_roots", counted)
    factors = linear_xy_factors(extactic_xy(field))
    assert [(f.slope.hex(), f.multiplicity) for f in factors] == [
        ("-0x1.279a74590331cp-1", 1), ("0x1.279a74590331cp-1", 1)]
    mset = invariant_meridians(field)
    assert len(calls) == 2
    assert [(pl.a.hex(), pl.b.hex(), mult) for pl, mult in mset.planes] == [
        ("0x1.0000000000000p-1", "-0x1.bb67ae8584cabp-1", 1),
        ("0x1.0000000000000p-1", "0x1.bb67ae8584cabp-1", 1)]
    assert [(repr(pl.a), repr(pl.b)) for pl, _ in mset.planes] == [
        ("0.5", "-0.8660254037844387"), ("0.5", "0.8660254037844387")]
    assert not any(pl.exact for pl, _ in mset.planes)


# -- the extactic polynomial, the plane gcds and the planes against their
# polynomial-arithmetic references -----------------------------------------------


def reference_plane_from_factor(factor):
    """The plane of a factor as it was built from Fraction arithmetic."""
    if factor.slope is None:
        return MeridianPlane(1.0, 0.0, (Scalar(1), Scalar(0)))
    if factor.exact:
        t0 = factor.slope
        a, b = -t0, Fraction(1)
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        scale = a.denominator if a else b.denominator
        pair = (Scalar(a * scale), Scalar(b * scale))
        h = math.hypot(float(a), float(b))
        return MeridianPlane(float(a) / h, float(b) / h, pair)
    t0 = float(factor.slope)
    a, b = -t0, 1.0
    if a < 0:
        a, b = -a, -b
    h = math.hypot(a, b)
    return MeridianPlane(a / h, b / h)


def _draw_slope(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.uniform(-1e3, 1e3) * rng.choice([1e-9, 1.0, 1e9])
    if kind == 2:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_planes_match_the_fraction_reference_bit_for_bit():
    rng = random.Random(30)
    slopes = [Fraction(0), Fraction(1), Fraction(-1), 0.0, -0.0, None]
    slopes += [_draw_slope(rng) for _ in range(3000)]
    for slope in slopes:
        factor = LinearFactor(slope, rng.randint(1, 3))
        got, want = plane_from_factor(factor), reference_plane_from_factor(factor)
        assert repr(got) == repr(want), slope
        assert (got.a.hex(), got.b.hex()) == (want.a.hex(), want.b.hex()), slope


def _reference_groups(p, split):
    """One UniPoly per group of p's Scalar terms, ``split(exp) -> (key,
    power)``: the polynomials in t of p(x, t*x, z) or in z of p."""
    groups = {}
    for e, c in p.terms.items():
        key, power = split(e)
        groups.setdefault(key, {})[power] = c
    return [UniPoly([slot.get(d, Scalar(0)) for d in range(max(slot) + 1)])
            for _, slot in sorted(groups.items())]


def _line_groups(p):
    return _reference_groups(p, lambda e: ((e[0] + e[1], e[2]), e[1]))


def _z_profiles(p):
    return _reference_groups(p, lambda e: ((e[0], e[1]), e[2]))


@pytest.mark.parametrize("m", MS)
def test_extactic_and_plane_gcds_match_their_references(m):
    # random fields, half of them with a planted plane factor: a binary form
    # in P and Q, a power of z - k in R
    rng = random.Random(int(m * 10))
    degrees = []
    for _ in range(150):
        field = [random_poly(rng, max_degree=3, max_terms=6, m=m, sqrt_part=True)
                 * random_scalar(rng, m, True) for _ in range(3)]
        if rng.random() < 0.5:
            form = MultiPoly({(1, 0, 0): random_scalar(rng, m, True),
                              (0, 1, 0): random_scalar(rng, m, True)})
            height = Z - MultiPoly.constant(random_scalar(rng, m, True))
            field = [field[0] * form, field[1] * form,
                     field[2] * height ** rng.randint(1, 2)]
        field = VectorField(*field)
        ext = extactic_xy(field)
        assert ext == field.Q * X - field.P * Y
        if not ext.is_zero():
            g = line_gcd(ext)
            assert g == unipoly_gcd(_line_groups(ext))
            degrees.append(g.degree)
        if not field.R.is_zero():
            g = z_profile_gcd(field.R)
            assert g == unipoly_gcd(_z_profiles(field.R))
            degrees.append(g.degree)
    assert min(degrees) == 0 and max(degrees) >= 2
