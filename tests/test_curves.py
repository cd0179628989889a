import math
import random
from fractions import Fraction

import pytest

from torusfields import (CubicParams, KolmogorovParams, MultiPoly,
                         PseudoTypeParams, Scalar, TorusSurface, VectorField,
                         X, Y, Z, build_cubic, build_kolmogorov,
                         build_pseudo_type, build_two_parallel,
                         check_four_meridian_criterion, cofactor_on_torus,
                         divide_exact, extactic_xy, invariant_meridians,
                         invariant_parallels, lie_bracket, linear_xy_factors,
                         parse, recognize, TwoParallelParams)

from conftest import random_linear, random_poly, random_scalar, sympy_scalar

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
            a_poly = a_poly.homogeneous_component(n - 1)
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
        a = random_linear(rng).homogeneous_component(1)
        b = random_linear(rng).homogeneous_component(1)
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
    from torusfields.vfield import plane_residual, apply

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

        # float planes: residual certificate below 1e-9
        params = CubicParams(MultiPoly.zero(), parse("x^2 - 2*y^2", m),
                             Scalar(0), Scalar(0))
        field = build_cubic(params, m)
        for plane, _ in invariant_meridians(field).planes:
            assert plane_residual(field, plane.a, plane.b) < 1e-9


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
