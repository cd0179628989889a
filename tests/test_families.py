import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusfields import (CubicParams, DegreeOneParams, DegreeViolation, Family,
                         FamilyTag, KolmogorovParams, MultiPoly,
                         NoKnownIntegral, NotDivisible, PseudoTypeParams,
                         QuadraticParams, Scalar, TorusSurface,
                         TwoParallelParams, VectorField, X, Y, Z, apply, build_cubic,
                         build_kolmogorov, build_pseudo_type, build_quadratic,
                         build_two_parallel, canonical_first_integrals,
                         check_first_integral, cofactor_on_torus,
                         divide_exact, lie_bracket, parse, recognize,
                         verified_first_integrals)

from torusfields import families
from torusfields.poly import sum_of_products

from conftest import random_linear, random_poly, random_scalar

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402

M = Fraction(4)


def sect5_params():
    return CubicParams(MultiPoly.constant(1), X * Y, Scalar(0), Scalar(0))


def test_build_cubic_reproduces_worked_example():
    field = build_cubic(sect5_params(), M)
    assert field.P == parse("(1/4)*x*z + x*y^2", M)
    assert field.Q == parse("(1/4)*y*z - x^2*y", M)
    assert field.R == parse("(1/2)*(-4*(x^2+y^2) + z^2 + 15)", M)


def test_build_cubic_degree_one_case():
    params = CubicParams(MultiPoly.zero(), MultiPoly.constant(1),
                         Scalar(0), Scalar(0))
    assert build_cubic(params, M) == VectorField(Y, -X, MultiPoly.zero())


def test_build_cubic_degree_violation():
    with pytest.raises(DegreeViolation):
        build_cubic(CubicParams(Z * Z, MultiPoly.zero(), Scalar(0), Scalar(0)), M)
    with pytest.raises(DegreeViolation):
        build_cubic(CubicParams(MultiPoly.zero(), X ** 3, Scalar(0), Scalar(0)), M)


def test_every_build_passes_cofactor_check():
    rng = random.Random(3)
    surf = TorusSurface(M)
    for _ in range(25):
        params = CubicParams(
            Kprime=random_linear(rng),
            f=random_poly(rng, max_degree=2, max_terms=4),
            beta=Scalar(rng.randint(-3, 3)),
            gamma=Scalar(rng.randint(-3, 3)))
        field = build_cubic(params, M)
        res = cofactor_on_torus(field, surf)
        assert res.on_torus
        assert res.K == params.Kprime * Z


def test_pseudo_type_shape_when_kprime_beta_gamma_vanish():
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly(rng, max_degree=2, max_terms=4)
        params = CubicParams(MultiPoly.zero(), f, Scalar(0), Scalar(0))
        field = build_cubic(params, M)
        assert field.R.is_zero()
        assert (field.P * X + field.Q * Y).is_zero()


def test_build_kolmogorov():
    field = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(0)), M)
    assert field == VectorField(X * Y ** 2, -(X ** 2 * Y), MultiPoly.zero())

    field = build_kolmogorov(KolmogorovParams(Scalar(0), Scalar(2)), M)
    assert field.P == parse("(1/2)*x*z^2", M)
    assert field.Q == parse("(1/2)*y*z^2", M)
    assert field.R == parse("z*(-a^2*(x^2+y^2)+z^2+a^4-1)", M)

    rng = random.Random(8)
    surf = TorusSurface(M)
    for _ in range(10):
        c1, c2 = Scalar(rng.randint(-5, 5)), Scalar(rng.randint(-5, 5))
        field = build_kolmogorov(KolmogorovParams(c1, c2), M)
        res = cofactor_on_torus(field, surf)
        assert res.on_torus and res.K == Z * Z * c2


def test_build_two_parallel():
    field = build_two_parallel(
        TwoParallelParams(Scalar(1), Scalar(0), MultiPoly.zero()), M)
    assert field.P == parse("(1/2)*x^2*z - 2*z", M)
    assert field.Q == parse("(1/2)*x*y*z", M)
    assert field.R == parse("x*(z^2-1)", M)

    f = parse("x^2 - 3*z", M)
    degenerate = build_two_parallel(TwoParallelParams(Scalar(0), Scalar(0), f), M)
    assert degenerate == VectorField(f * Y, -(f * X), MultiPoly.zero())

    rng = random.Random(21)
    surf = TorusSurface(M)
    for _ in range(10):
        params = TwoParallelParams(Scalar(rng.randint(-3, 3)),
                                   Scalar(rng.randint(-3, 3)),
                                   random_poly(rng, max_degree=2, max_terms=3))
        field = build_two_parallel(params, M)
        res = cofactor_on_torus(field, surf)
        assert res.on_torus
        assert res.K == (X * params.p + Y * params.q) * Z * 2
        from torusfields import divide_exact_z

        if not field.R.is_zero():
            quotient = divide_exact_z(field.R, Z - MultiPoly.constant(1))
            divide_exact_z(quotient, Z + MultiPoly.constant(1))


def test_build_pseudo_type_validation():
    build_pseudo_type(PseudoTypeParams(3, X * Y))
    with pytest.raises(DegreeViolation):
        build_pseudo_type(PseudoTypeParams(3, X + MultiPoly.constant(1)))
    with pytest.raises(DegreeViolation):
        build_pseudo_type(PseudoTypeParams(2, X * Y))


def test_recognize_worked_example():
    field = build_cubic(sect5_params(), M)
    tag = recognize(field, M)
    assert tag.family == Family.CUBIC
    assert tag.params == sect5_params()


def test_recognize_pseudo_type():
    field = VectorField(parse("y^3", M), parse("-x*y^2", M), MultiPoly.zero())
    tag = recognize(field, M)
    assert tag.family == Family.PSEUDO_TYPE
    assert tag.params == PseudoTypeParams(3, Y * Y)
    assert Family.CUBIC in tag.matches


def test_recognize_not_on_torus():
    tag = recognize(VectorField(X, Y, Z), M)
    assert tag.family == Family.NOT_ON_TORUS


def test_recognize_specializes():
    rot = VectorField(Y * 3, -(X * 3), MultiPoly.zero())
    tag = recognize(rot, M)
    assert tag.family == Family.DEGREE_ONE
    assert tag.params == DegreeOneParams(Scalar(3))
    assert Family.PSEUDO_TYPE in tag.matches

    ko = build_kolmogorov(KolmogorovParams(Scalar(2), Scalar(1)), M)
    assert recognize(ko, M).family == Family.KOLMOGOROV

    quad = build_quadratic(QuadraticParams(Scalar(2), parse("x - z + 1", M)), M)
    tag = recognize(quad, M)
    assert tag.family == Family.QUADRATIC
    assert tag.params == QuadraticParams(Scalar(2), parse("x - z + 1", M))

    tp = build_two_parallel(TwoParallelParams(Scalar(1), Scalar(-2),
                                              parse("x*y", M)), M)
    tag = recognize(tp, M)
    assert tag.family == Family.TWO_PARALLEL
    assert tag.params.p == Scalar(1) and tag.params.q == Scalar(-2)


def test_recognize_build_roundtrip():
    rng = random.Random(77)
    for _ in range(30):
        params = CubicParams(
            Kprime=random_linear(rng),
            f=random_poly(rng, max_degree=2, max_terms=4),
            beta=Scalar(rng.randint(-3, 3)),
            gamma=Scalar(rng.randint(-3, 3)))
        field = build_cubic(params, M)
        tag = recognize(field, M)
        assert tag.family != Family.NOT_ON_TORUS
        assert Family.CUBIC in tag.matches
        rebuilt = None
        if tag.family == Family.CUBIC:
            rebuilt = build_cubic(tag.params, M)
        elif tag.family == Family.QUADRATIC:
            rebuilt = build_quadratic(tag.params, M)
        elif tag.family == Family.KOLMOGOROV:
            rebuilt = build_kolmogorov(tag.params, M)
        elif tag.family == Family.TWO_PARALLEL:
            rebuilt = build_two_parallel(tag.params, M)
        elif tag.family == Family.PSEUDO_TYPE:
            rebuilt = build_pseudo_type(tag.params)
        elif tag.family == Family.DEGREE_ONE:
            rebuilt = VectorField(Y * tag.params.c, -(X * tag.params.c),
                                  MultiPoly.zero())
        assert rebuilt == field
        if tag.family == Family.CUBIC:
            assert tag.params == params


def test_degree_one_fields_are_rotations():
    # every degree-one field on the torus is a scalar multiple of (y, -x, 0)
    rng = random.Random(13)
    surf = TorusSurface(M)
    for _ in range(40):
        candidate = VectorField(random_linear(rng), random_linear(rng),
                                random_linear(rng))
        if not cofactor_on_torus(candidate, surf).on_torus:
            continue
        c = candidate.P.coefficient((0, 1, 0))
        assert candidate == VectorField(Y * c, -(X * c), MultiPoly.zero())


def test_bracket_of_pseudo_type_2_fields():
    rng = random.Random(42)
    for _ in range(25):
        a = random_linear(rng)
        b = random_linear(rng)
        a = a - MultiPoly.constant(a.constant_value())  # homogeneous degree 1
        b = b - MultiPoly.constant(b.constant_value())
        if a.is_zero() or b.is_zero():
            continue
        xf = build_pseudo_type(PseudoTypeParams(2, a))
        yf = build_pseudo_type(PseudoTypeParams(2, b))
        bracket = lie_bracket(xf, yf)
        if bracket.is_zero():
            continue
        tag = recognize(bracket, M)
        assert tag.family == Family.PSEUDO_TYPE
        assert tag.params.n == 3


def test_canonical_first_integrals():
    ko = build_kolmogorov(KolmogorovParams(Scalar(1), Scalar(2)), M)
    tag = recognize(ko, M)
    integrals = canonical_first_integrals(tag, M)
    assert len(integrals) == 1
    assert all(check_first_integral(ko, h) for h in integrals)

    pt = build_pseudo_type(PseudoTypeParams(3, Y * Y))
    tag = recognize(pt, M)
    integrals = canonical_first_integrals(tag, M)
    assert len(integrals) == 2
    assert all(check_first_integral(pt, h) for h in integrals)

    cubic_tag = recognize(build_cubic(sect5_params(), M), M)
    with pytest.raises(NoKnownIntegral):
        canonical_first_integrals(cubic_tag, M)
    assert verified_first_integrals(build_cubic(sect5_params(), M),
                                    cubic_tag, M) == []


def test_quadratic_first_integral_verified():
    rng = random.Random(31)
    for _ in range(10):
        field = build_quadratic(
            QuadraticParams(Scalar(rng.randint(-3, 3)), random_linear(rng)), M)
        tag = recognize(field, M)
        results = verified_first_integrals(field, tag, M)
        assert results and all(ok for _, ok in results)


def _homogeneous(rng, degree, m):
    """A nonzero form of the given degree in x, y, z over Q(sqrt(m))."""
    exps = [(i, j, degree - i - j) for i in range(degree + 1)
            for j in range(degree + 1 - i)]
    terms = {e: random_scalar(rng, m, sqrt_part=True)
             for e in rng.sample(exps, rng.randint(1, len(exps)))}
    return MultiPoly(terms) or MultiPoly.monomial(exps[0], Scalar(1))


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2), Fraction(9, 4)])
def test_verified_first_integrals_match_the_quotient_rule(m):
    rng = random.Random(int(m * 4) + 17)

    def nonzero():
        return random_scalar(rng, m, sqrt_part=True) or Scalar(1)

    fields = []
    for _ in range(5):
        fields.append(build_quadratic(QuadraticParams(
            nonzero(), random_poly(rng, max_degree=1, max_terms=4, m=m,
                                   sqrt_part=True)), m))
        fields.append(build_kolmogorov(KolmogorovParams(nonzero(), nonzero()), m))
    fields += [build_pseudo_type(PseudoTypeParams(n, _homogeneous(rng, n - 1, m)))
               for n in range(2, 7)]
    fields.append(build_pseudo_type(PseudoTypeParams(1, MultiPoly.constant(nonzero()))))
    seen = set()
    for field in fields:
        tag = recognize(field, m)
        seen.add(tag.family)
        results = verified_first_integrals(field, tag, m)
        assert results
        for h, ok in results:
            want = (h.den * apply(field, h.num) - h.num * apply(field, h.den)).is_zero()
            assert ok == want, (field, h)
    assert seen == {Family.QUADRATIC, Family.KOLMOGOROV, Family.PSEUDO_TYPE,
                    Family.DEGREE_ONE}


# -- recognition against the build-and-compare matchers ----------------------
#
# The reference below is the recognizer as it was before the single cubic-form
# extraction: each matcher derives its own parameters, builds its family's
# field and compares it with the input.


def _ref_divide(p, divisor, var):
    try:
        return divide_exact(p, divisor, var)
    except NotDivisible:
        return None


def _ref_degree_one(field, m, cof):
    if field.degree > 1:
        return None
    c = field.P.coefficient((0, 1, 0))
    if field.P == Y * c and field.Q == -(X * c) and field.R.is_zero():
        return DegreeOneParams(c)
    return None


def _ref_quadratic(field, m, cof):
    if field.degree > 2:
        return None
    k = cof.K
    if not set(k.terms) <= {(0, 0, 1)}:
        return None
    alpha = k.coefficient((0, 0, 1))
    f = _ref_divide(field.P - X * Z * (alpha * Fraction(1, 4)), Y, "y")
    if f is None or f.degree > 1:
        return None
    params = QuadraticParams(alpha=alpha, f=f)
    return params if build_quadratic(params, m) == field else None


def _ref_kolmogorov(field, m, cof):
    if field.degree > 3:
        return None
    for component, var in ((field.P, "x"), (field.Q, "y"), (field.R, "z")):
        if not component.is_zero() and component.min_var_exponent(var) < 1:
            return None
    k = cof.K
    if not set(k.terms) <= {(0, 0, 2)}:
        return None
    c2 = k.coefficient((0, 0, 2))
    rest = field.P - X * Z * Z * (c2 * Fraction(1, 4))
    if not set(rest.terms) <= {(1, 2, 0)}:
        return None
    params = KolmogorovParams(c1=rest.coefficient((1, 2, 0)), c2=c2)
    return params if build_kolmogorov(params, m) == field else None


def _ref_two_parallel(field, m, cof):
    if field.degree > 3:
        return None
    p = field.R.coefficient((1, 0, 2))
    q = field.R.coefficient((0, 1, 2))
    if p.is_zero() and q.is_zero():
        return None
    lead = (X * p + Y * q) * Z * Fraction(1, 2)
    f = _ref_divide(field.P - lead * X + Z * (p * Scalar(Fraction(m, 2))), Y, "y")
    if f is None or f.degree > 2:
        return None
    params = TwoParallelParams(p=p, q=q, f=f)
    return params if build_two_parallel(params, m) == field else None


def _ref_pseudo_type(field, m, cof):
    if not field.R.is_zero() or field.P.is_zero() or field.Q.is_zero():
        return None
    if not (field.P.is_homogeneous() and field.Q.is_homogeneous()):
        return None
    n = field.P.degree
    if field.Q.degree != n:
        return None
    a = _ref_divide(field.P, Y, "y")
    if a is None or field.Q != -(a * X):
        return None
    return PseudoTypeParams(n=n, A=a)


def _ref_cubic(field, m, cof):
    if field.degree > 3:
        return None
    kprime = _ref_divide(cof.K, Z, "z") if not cof.K.is_zero() else MultiPoly.zero()
    if kprime is None or kprime.degree > 1:
        return None
    beta = field.P.coefficient((0, 0, 1))
    gamma = field.Q.coefficient((0, 0, 1))
    f = _ref_divide(field.P - X * Z * kprime * Fraction(1, 4) - Z * beta, Y, "y")
    if f is None or f.degree > 2:
        return None
    params = CubicParams(Kprime=kprime, f=f, beta=beta, gamma=gamma)
    return params if build_cubic(params, m) == field else None


_REF_MATCHERS = (
    (Family.DEGREE_ONE, _ref_degree_one),
    (Family.QUADRATIC, _ref_quadratic),
    (Family.KOLMOGOROV, _ref_kolmogorov),
    (Family.TWO_PARALLEL, _ref_two_parallel),
    (Family.PSEUDO_TYPE, _ref_pseudo_type),
    (Family.CUBIC, _ref_cubic),
)


def reference_recognize(field, m):
    cof = cofactor_on_torus(field, TorusSurface(m))
    if not cof.on_torus:
        return FamilyTag(Family.NOT_ON_TORUS, None)
    hits = [(family, params) for family, matcher in _REF_MATCHERS
            if (params := matcher(field, Fraction(m), cof)) is not None]
    if not hits:
        return FamilyTag(Family.UNCLASSIFIED, None)
    return FamilyTag(hits[0][0], hits[0][1], tuple(f for f, _ in hits))


def _spec_field(spec):
    return VectorField(*(parse(s, spec.m) for s in (spec.px, spec.qy, spec.rz)))


def differential_fields(m, seed):
    """Seeded draws, the named corpus, built two-parallel and degree-one
    fields, the zero field, and perturbed copies that leave their family."""
    rng = random.Random(seed)
    specs = corpus.named_corpus(m)
    for i in range(8):
        specs += [corpus.draw_quadratic(rng, m), corpus.draw_kolmogorov(rng, m),
                  corpus.draw_four_meridian_cubic(rng, m),
                  corpus.draw_pseudo_type(rng, m, 2 + i % 5)]
    fields = [_spec_field(spec) for spec in specs]
    for _ in range(8):
        fields.append(build_two_parallel(TwoParallelParams(
            random_scalar(rng, m, sqrt_part=True),
            random_scalar(rng, m, sqrt_part=True),
            random_poly(rng, max_degree=2, max_terms=4, m=m, sqrt_part=True)), m))
        c = random_scalar(rng, m, sqrt_part=True)
        fields.append(VectorField(Y * c, -(X * c), MultiPoly.zero()))
        # K' = 2*(p*x + q*y) with beta or gamma off the two-parallel values
        p, q = Scalar(rng.randint(-3, 3)), Scalar(rng.randint(1, 3))
        beta, gamma = -(p * Scalar(m / 2)), -(q * Scalar(m / 2))
        tilt = (beta + 1, gamma) if rng.random() < 0.5 else (beta, gamma - 1)
        fields.append(build_cubic(CubicParams(
            (X * p + Y * q) * 2, random_poly(rng, max_degree=2, max_terms=3),
            *tilt), m))
        # one of beta, gamma nonzero: a cubic, and none of its families
        tilted = [Scalar(0), random_scalar(rng, m) or Scalar(1)]
        rng.shuffle(tilted)
        fields.append(build_cubic(CubicParams(
            random_linear(rng) if rng.random() < 0.5 else MultiPoly.constant(1),
            random_linear(rng), *tilted), m))
        # a quadratic field with constant f is not a rotation
        fields.append(build_quadratic(QuadraticParams(
            Scalar(rng.choice([-2, -1, 1, 2])), MultiPoly.constant(rng.randint(-3, 3))), m))
        # z times a cubic with K' and f linear: the closed form with deg K' = 2
        tall = build_cubic(CubicParams(random_linear(rng), random_linear(rng),
                                       Scalar(0), Scalar(0)), m)
        fields.append(VectorField(tall.P * Z, tall.Q * Z, tall.R * Z))
    fields.append(VectorField(MultiPoly.zero(), MultiPoly.zero(), MultiPoly.zero()))
    a = Scalar.sqrt_m(m)
    negatives = []
    for field in fields[::3]:
        exp = tuple(rng.randint(0, 2) for _ in range(3))
        bump = MultiPoly.monomial(exp, random_scalar(rng, m) or Scalar(1))
        negatives += [
            VectorField(field.P + bump, field.Q, field.R),
            VectorField(field.P * a, field.Q * a, field.R * a),
            VectorField(field.P * Z, field.Q * Z, field.R * Z),
            VectorField(field.P, field.Q, field.R + Z),
        ]
    return fields + negatives


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_recognize_matches_build_and_compare_reference(m):
    seen = set()
    for field in differential_fields(m, seed=int(m * 2)):
        tag = recognize(field, m)
        assert tag == reference_recognize(field, m), field
        seen.add(tag.family)
    assert seen == set(Family)


# -- the cubic form and the rotation shape against their polynomial-arithmetic
# references: the extraction as it was written with products and exact
# divisions, before it read the numerators directly.

_MINUS_XZ_4 = X * Z * Fraction(-1, 4)


def reference_cubic_form(field, cof):
    if field.degree > 3 or cof.K.degree > 2:
        return None
    kprime = _ref_divide(cof.K, Z, "z")
    if kprime is None:
        return None
    beta = field.P.coefficient((0, 0, 1))
    gamma = field.Q.coefficient((0, 0, 1))
    f = _ref_divide(sum_of_products(((field.P, MultiPoly.constant(1)), (kprime, _MINUS_XZ_4),
                                     (MultiPoly.constant(beta), -Z))), Y, "y")
    if f is None or f.degree > 2:
        return None
    return CubicParams(Kprime=kprime, f=f, beta=beta, gamma=gamma)


def reference_rotation_shape(field):
    if not field.R.is_zero():
        return None
    a = _ref_divide(field.P, Y, "y")
    return a if a is not None and field.Q == -(a * X) else None


def cubic_form_fields(m, seed):
    """Cubic fields with sqrt(m) parts, beta and gamma tilted off every
    family and K' with x and y terms; each plus h times a field tangent to
    the torus, (F_y, -F_x, 0), (0, F_z, -F_y) or (F_z, 0, -F_x), which keeps
    the cofactor (h constant: a cubic again; h linear: degree 4 on the
    torus); plus c*F along z or x (K' without a cubic form, or deg K = 3);
    a field of degree 5 with deg R = 3 and K = c*y*rho^2*z, that only
    deg K <= 2 keeps from the cubic form (it is built as the cubic form
    with K' = c*y*rho^2, plus h*(0, z, -2*y*(rho^2 - m)) with h = c*(z^2 - 1
    - m*rho^2)/4, which cancels R's terms above degree 3); rotation shapes
    (A*y, -A*x, 0) and off-torus bumps of both."""
    rng = random.Random(seed)
    surface = TorusSurface(m)
    fx, fy, fz = surface.gradient
    zero = MultiPoly.zero()
    fields = []
    for _ in range(40):
        kprime = random_poly(rng, max_degree=1, max_terms=4, m=m, sqrt_part=True)
        f = random_poly(rng, max_degree=2, max_terms=5, m=m, sqrt_part=True)
        beta, gamma = (random_scalar(rng, m, sqrt_part=True) if rng.random() < 0.6
                       else Scalar(0) for _ in range(2))
        cubic = build_cubic(CubicParams(kprime, f, beta, gamma), m)
        h = random_poly(rng, max_degree=1, max_terms=2, m=m, sqrt_part=True)
        tangent = rng.choice([(fy, -fx, zero), (zero, fz, -fy), (fz, zero, -fx)])
        c = random_scalar(rng, m, sqrt_part=True) or Scalar(1)
        a = random_poly(rng, max_degree=3, max_terms=4, m=m, sqrt_part=True)
        bump = MultiPoly.monomial(tuple(rng.randint(0, 2) for _ in range(3)),
                                  random_scalar(rng, m) or Scalar(1))
        rho2 = X * X + Y * Y
        tall_k = Y * rho2 * c
        h = (rho2 * Scalar(-m) + Z * Z - MultiPoly.constant(1)) * (c * Scalar(Fraction(1, 4)))
        fields += [
            VectorField(X * Z * tall_k * Fraction(1, 4) + f * Y + Z * beta,
                        Y * Z * tall_k * Fraction(1, 4) - f * X + Z * gamma + Z * h,
                        Y * (Z * Z - MultiPoly.constant(1)) * (c * Scalar(m / 2))
                        - (X * beta + Y * gamma) * (rho2 - MultiPoly.constant(m)) * 2),
            cubic,
            VectorField(*(comp + h * t for comp, t in zip(cubic.components(), tangent))),
            VectorField(cubic.P, cubic.Q, cubic.R + surface.F * c),
            VectorField(cubic.P + surface.F * c, cubic.Q, cubic.R),
            VectorField(a * Y, -(a * X), zero),
            VectorField(cubic.P + bump, cubic.Q, cubic.R),
            VectorField(a * Y + bump, -(a * X), zero),
        ]
    return fields


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_cubic_form_and_rotation_shape_match_their_references(m):
    kinds = set()
    for field in cubic_form_fields(m, seed=int(m * 6)):
        tag = recognize(field, m)
        assert tag == reference_recognize(field, m), field
        rotation = reference_rotation_shape(field)
        if rotation is None:
            assert families._rotation_shape(field) is None, field
        else:
            assert families._rotation_shape(field) == rotation, field
            kinds.add("rotation")
        cof = cofactor_on_torus(field, TorusSurface(m))
        if not cof.on_torus:
            assert tag.cubic is None
            kinds.add("off the torus")
            continue
        cubic = reference_cubic_form(field, cof)
        assert families._cubic_form(field, cof.K) == cubic, field
        assert tag.cubic == cubic, field
        if cubic is None:
            kinds.add(f"on the torus, degree {field.degree}, no cubic form")
        else:
            kinds.add("cubic form" + ", sqrt(m)" * bool(cubic.f.m or cubic.beta.m))
    assert {"off the torus", "on the torus, degree 4, no cubic form",
            "on the torus, degree 5, no cubic form", "cubic form", "rotation"} <= kinds
    assert ("cubic form, sqrt(m)" in kinds) == (m != 4)


# -- an independent oracle: the solution space of chi(F) = K*F -------------------
#
# The fields (P, Q, R) of degree <= 3 on the torus are the solutions of
# chi(F) = K*F with deg K <= 2, a linear system in their coefficients.  Its
# null space, computed by sympy, checks the classification without the
# closed form that recognize and build_cubic share.

ORACLE_MS = [Fraction(4), Fraction(3), Fraction(9, 2)]


def _monomials(degree: int, divisor: int | None = None) -> list[tuple[int, int, int]]:
    return [(i, j, k) for i in range(degree + 1) for j in range(degree + 1 - i)
            for k in range(degree + 1 - i - j) if divisor is None or (i, j, k)[divisor]]


@functools.cache
def torus_fields(m: Fraction, kolmogorov: bool = False) -> tuple[VectorField, ...]:
    """A basis of the fields of degree <= 3 on the torus at m; with
    ``kolmogorov``, of those with x | P, y | Q and z | R."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    a2 = sympy.Rational(m.numerator, m.denominator)
    F = (x**2 + y**2 - a2)**2 + z**2 - 1
    parts = [_monomials(3, v if kolmogorov else None) for v in range(3)] + [_monomials(2)]
    coeffs = [sympy.symbols(f"c{n}_:{len(mons)}") for n, mons in enumerate(parts)]
    P, Q, R, K = (sum(c * x**i * y**j * z**k for c, (i, j, k) in zip(cs, mons))
                  for cs, mons in zip(coeffs, parts))
    chi = sympy.expand(P * F.diff(x) + Q * F.diff(y) + R * F.diff(z) - K * F)
    unknowns = [c for cs in coeffs for c in cs]
    matrix, _ = sympy.linear_eq_to_matrix(sympy.Poly(chi, x, y, z).coeffs(), unknowns)
    basis = []
    for vector in matrix.nullspace():
        values = iter(vector)
        basis.append(VectorField(*(MultiPoly({exp: Scalar(Fraction(int(v.p), int(v.q)))
                                              for exp, v in zip(mons, values) if v})
                                   for mons in parts[:3])))
    return tuple(basis)


def oracle_draw(rng: random.Random, basis, m: Fraction) -> VectorField:
    """A seeded combination of the basis, with sqrt(m) parts at non-square m."""
    total = VectorField(MultiPoly.zero(), MultiPoly.zero(), MultiPoly.zero())
    for field in basis:
        c = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   rng.choice((0, 0, 1, -2)), m)
        total = VectorField(*(a + b.scale(c) for a, b in zip(total.components(),
                                                              field.components())))
    return total


@pytest.mark.parametrize("m", ORACLE_MS, ids=str)
def test_oracle_space_has_the_dimension_of_the_cubic_form(m):
    # K' (4) + f (10) + beta and gamma (2); (c1, c2) for Kolmogorov fields
    assert len(torus_fields(m)) == 16
    assert len(torus_fields(m, kolmogorov=True)) == 2


@pytest.mark.parametrize("m", ORACLE_MS, ids=str)
def test_oracle_fields_are_recognized_and_rebuilt(m):
    rng = random.Random(26)
    for _ in range(20):
        field = oracle_draw(rng, torus_fields(m), m)
        tag = recognize(field, m)
        assert tag.family not in (Family.NOT_ON_TORUS, Family.UNCLASSIFIED)
        assert build_cubic(tag.cubic, m) == field


@pytest.mark.parametrize("m", ORACLE_MS, ids=str)
def test_oracle_kolmogorov_fields_are_tagged_kolmogorov(m):
    rng = random.Random(26)
    for _ in range(10):
        field = oracle_draw(rng, torus_fields(m, kolmogorov=True), m)
        if field.is_zero():
            continue
        tag = recognize(field, m)
        assert tag.family == Family.KOLMOGOROV
        assert build_kolmogorov(tag.params, m) == field


@pytest.mark.parametrize("m", ORACLE_MS, ids=str)
def test_oracle_perturbation_off_the_space_leaves_the_torus(m):
    import sympy

    rng = random.Random(26)
    basis = torus_fields(m)
    monomials = _monomials(3)
    for _ in range(10):
        delta = VectorField(*(MultiPoly({e: Scalar(rng.choice((-2, -1, 1, 2)))
                                         for e in rng.sample(monomials, 2)})
                              for _ in range(3)))
        # off the space: delta's coefficients are independent of the basis'
        columns = [[c.coefficient(e).p for c in f.components() for e in monomials]
                   for f in (*basis, delta)]
        assert sympy.Matrix(columns).rank() == len(basis) + 1
        field = oracle_draw(rng, basis, m)
        perturbed = VectorField(*(a + b for a, b in zip(field.components(),
                                                         delta.components())))
        assert recognize(perturbed, m).family == Family.NOT_ON_TORUS
