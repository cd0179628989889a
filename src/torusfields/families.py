"""Constructors and recognizers for the classified torus vector fields.

Every cubic field on the torus is built from a pair (K', f) plus two reals
(beta, gamma); the specialized families fix parts of that data:

* degree one      -- K' = 0, f = c constant, beta = gamma = 0: (c*y, -c*x, 0)
* quadratic       -- K' = alpha constant, f linear, beta = gamma = 0
* Kolmogorov      -- K' = c2*z, f = c1*x*y, beta = gamma = 0 (x | P, y | Q, z | R)
* two-parallel    -- K' = 2*(p*x + q*y) != 0, beta = -m*p/2, gamma = -m*q/2
* pseudo-type-n   -- (A*y, -A*x, 0) with A homogeneous of degree n - 1

Recognition extracts the cubic form once per field by exact coefficient
matching on the integer numerators of P and the cofactor K, with no
polynomial product or division: K' = K/z is an exponent shift once every
term of K carries z, beta and gamma are the z coefficients of P and Q, and
f*y = P - beta*z - x*K/4 is one pass over P's numerators and K's; an
on-torus field of degree <= 3 is then the closed form of those four
values, with no further check.  The specialized families are predicates on
the supports of K' and f and on beta and gamma, and Scalars are built only
for the parameters the tag returns; pseudo-type, whose degree is not
bounded, reads A from :func:`_rotation_shape` (x*P + y*Q = 0 and R = 0),
which the tag keeps for the singular stage.  No fitting, exact or fail.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import ONE, MultiPoly, X, Y, Z, _poly, _shift_into, _shifted
from .scalars import Scalar, _merge_m
from .vfield import (RationalFn, VectorField, apply, check_first_integral,
                     cofactor_on_torus, torus_surface)


class DegreeViolation(ValueError):
    """Family parameters exceed the degree bounds of their closed form."""


class NoKnownIntegral(LookupError):
    """No closed-form first integral is catalogued for this family."""


class Family(enum.Enum):
    DEGREE_ONE = "degree-one"
    QUADRATIC = "quadratic"
    KOLMOGOROV = "kolmogorov"
    TWO_PARALLEL = "two-parallel"
    PSEUDO_TYPE = "pseudo-type"
    CUBIC = "cubic"
    UNCLASSIFIED = "unclassified"
    NOT_ON_TORUS = "not-on-torus"


@dataclass(frozen=True)
class CubicParams:
    Kprime: MultiPoly            # degree <= 1; cofactor is K'*z
    f: MultiPoly                 # degree <= 2
    beta: Scalar
    gamma: Scalar


@dataclass(frozen=True)
class KolmogorovParams:
    c1: Scalar
    c2: Scalar


@dataclass(frozen=True)
class QuadraticParams:
    alpha: Scalar
    f: MultiPoly                 # degree <= 1


@dataclass(frozen=True)
class DegreeOneParams:
    c: Scalar


@dataclass(frozen=True)
class PseudoTypeParams:
    n: int                       # field degree, >= 1
    A: MultiPoly                 # homogeneous of degree n - 1


@dataclass(frozen=True)
class TwoParallelParams:
    p: Scalar
    q: Scalar
    f: MultiPoly                 # degree <= 2


@dataclass(frozen=True)
class FamilyTag:
    family: Family
    params: object | None
    matches: tuple[Family, ...] = ()
    # derived, not compared: the cubic form the families are read from, the
    # cofactor on the torus (None off the torus), and A when the on-torus
    # field is (A*y, -A*x, 0)
    cubic: CubicParams | None = dataclasses.field(default=None, compare=False)
    cofactor: MultiPoly | None = dataclasses.field(default=None, compare=False)
    rotation: MultiPoly | None = dataclasses.field(default=None, compare=False)



def _radial_bowl(m: Fraction) -> MultiPoly:
    """-m*(x^2 + y^2) + z^2 + m^2 - 1, the recurring R building block."""
    m = Fraction(m)
    return MultiPoly({(2, 0, 0): Scalar(-m), (0, 2, 0): Scalar(-m),
                      (0, 0, 2): Scalar(1), (0, 0, 0): Scalar(m * m - 1)})


def build_cubic(params: CubicParams, m: Fraction) -> VectorField:
    """The general cubic field on the torus with cofactor K'*z."""
    if params.Kprime.degree > 1:
        raise DegreeViolation(f"deg K' = {params.Kprime.degree} exceeds 1")
    if params.f.degree > 2:
        raise DegreeViolation(f"deg f = {params.f.degree} exceeds 2")
    m = Fraction(m)
    quarter_k = params.Kprime * Z * Fraction(1, 4)
    p = quarter_k * X + params.f * Y + Z * params.beta
    q = quarter_k * Y - params.f * X + Z * params.gamma
    ring = MultiPoly({(2, 0, 0): Scalar(1), (0, 2, 0): Scalar(1),
                      (0, 0, 0): Scalar(-m)})
    r = (params.Kprime * _radial_bowl(m) * Fraction(1, 2)
         - (X * params.beta + Y * params.gamma) * ring * 2)
    return VectorField(p, q, r)


def build_quadratic(params: QuadraticParams, m: Fraction) -> VectorField:
    if params.f.degree > 1:
        raise DegreeViolation(f"deg f = {params.f.degree} exceeds 1")
    cubic = CubicParams(Kprime=MultiPoly.constant(params.alpha), f=params.f,
                        beta=Scalar(0), gamma=Scalar(0))
    return build_cubic(cubic, m)


def build_kolmogorov(params: KolmogorovParams, m: Fraction) -> VectorField:
    cubic = CubicParams(Kprime=Z * params.c2,
                        f=X * Y * params.c1,
                        beta=Scalar(0), gamma=Scalar(0))
    return build_cubic(cubic, m)


def build_two_parallel(params: TwoParallelParams, m: Fraction) -> VectorField:
    if params.f.degree > 2:
        raise DegreeViolation(f"deg f = {params.f.degree} exceeds 2")
    m = Fraction(m)
    half_m = Fraction(m, 2)
    cubic = CubicParams(Kprime=(X * params.p + Y * params.q) * 2,
                        f=params.f,
                        beta=-(params.p * Scalar(half_m)),
                        gamma=-(params.q * Scalar(half_m)))
    return build_cubic(cubic, m)


def build_pseudo_type(params: PseudoTypeParams, m: Fraction | None = None) -> VectorField:
    if params.n < 1:
        raise DegreeViolation("pseudo-type order must be at least 1")
    if not params.A.is_homogeneous() or (
            not params.A.is_zero() and params.A.degree != params.n - 1):
        raise DegreeViolation(
            f"A must be homogeneous of degree {params.n - 1}")
    return VectorField(params.A * Y, -(params.A * X), MultiPoly.zero())


# -- recognition ------------------------------------------------------------

_CONST, _X, _Y, _Z, _XY = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)


def _cubic_form(field: VectorField, k: MultiPoly) -> CubicParams | None:
    """(K', f, beta, gamma) with the field equal to ``build_cubic`` of them,
    K the field's cofactor on the torus.

    They are read off the numerators.  z divides K when every term of K
    carries z, and K' = K/z shifts the exponents; beta and gamma are the z
    coefficients of P and Q; and f*y = P - beta*z - x*K/4, since
    x*z*K'/4 = x*K/4, is P without its z term minus K shifted by x.

    P matches by construction of f, and both fields have cofactor K'*z, so
    the field minus ``build_cubic`` has P-part 0 and cofactor 0.  Its (Q, R)
    then satisfy Q*F_y + R*F_z = 0, with F_y = 4*y*(x^2 + y^2 - m) and
    F_z = 2*z, so it is (0, h*z, -2*y*(x^2 + y^2 - m)*h).  With deg K <= 2,
    ``build_cubic``'s R has degree <= 3, so deg R <= 3 makes h a constant,
    the difference of the z coefficients of Q, which is 0 because that
    coefficient was taken as gamma.  So Q and R match with no check, and
    the bounds on K, R and f (which bounds P) are those of a field of
    degree <= 3.
    """
    p = field.P
    if field.R.degree > 3 or not all(e[2] and sum(e) <= 2 for e in k._keys()):
        return None
    kprime = _poly(_shifted(k._p, 2, -1), _shifted(k._q, 2, -1), k._den, k.m)
    # f*y over the least common denominator of P and K/4
    den = math.lcm(p._den, 4 * k._den)
    fy = []
    for pd, kd in ((p._p, k._p), (p._q, k._q)):
        scale = den // p._den
        out = {e: v * scale for e, v in pd.items() if e != _Z}
        _shift_into(out, kd, _X, -(den // (4 * k._den)))
        fy.append(out)
    if not all(e[1] and sum(e) <= 3 for part in fy for e in part):
        return None
    f = _poly(_shifted(fy[0], 1, -1), _shifted(fy[1], 1, -1), den, _merge_m(p.m, k.m))
    return CubicParams(Kprime=kprime, f=f, beta=p.coefficient(_Z),
                       gamma=field.Q.coefficient(_Z))


def _rotation_shape(field: VectorField) -> MultiPoly | None:
    """A with field = (A*y, -A*x, 0), if the field has that shape: R = 0
    and x*P + y*Q = 0, which makes y divide P, A = P/y and Q = -A*x."""
    p, q = field.P, field.Q
    if not field.R.is_zero():
        return None
    g = math.gcd(p._den, q._den)
    for pd, qd in ((p._p, q._p), (p._q, q._q)):
        radial: dict = {}
        _shift_into(radial, pd, _X, q._den // g)
        _shift_into(radial, qd, _Y, p._den // g)
        if radial:
            return None
    return _poly(_shifted(p._p, 1, -1), _shifted(p._q, 1, -1), p._den, p.m)


def recognize(field: VectorField, m: Fraction) -> FamilyTag:
    """Most specific family tag, with every other matching family recorded.

    The specialized families are read off the supports of K' and f; Scalars
    are built only for the parameters the tag returns."""
    cof = cofactor_on_torus(field, torus_surface(m))
    if not cof.on_torus:
        return FamilyTag(Family.NOT_ON_TORUS, None)
    cubic = _cubic_form(field, cof.K)
    hits: list[tuple[Family, object]] = []
    if cubic is not None:
        # the specialized families are predicates on (K', f, beta, gamma)
        kprime, f = cubic.Kprime, cubic.f
        k_keys, f_keys = kprime._keys(), f._keys()
        if cubic.beta.is_zero() and cubic.gamma.is_zero():
            if not k_keys and f_keys <= {_CONST}:
                hits.append((Family.DEGREE_ONE, DegreeOneParams(f.constant_value())))
            if k_keys <= {_CONST} and f.degree <= 1:
                hits.append((Family.QUADRATIC,
                             QuadraticParams(kprime.constant_value(), f)))
            if k_keys <= {_Z} and f_keys <= {_XY}:
                hits.append((Family.KOLMOGOROV,
                             KolmogorovParams(c1=f.coefficient(_XY),
                                              c2=kprime.coefficient(_Z))))
        if k_keys and k_keys <= {_X, _Y}:
            # K' = 2*(p*x + q*y), and p, q are R's x*z^2 and y*z^2 coefficients
            p, q = field.R.coefficient((1, 0, 2)), field.R.coefficient((0, 1, 2))
            half_m = Scalar(Fraction(m) / 2)
            if cubic.beta == -(p * half_m) and cubic.gamma == -(q * half_m):
                hits.append((Family.TWO_PARALLEL, TwoParallelParams(p=p, q=q, f=f)))
    rotation = _rotation_shape(field)
    if rotation and rotation.is_homogeneous():
        hits.append((Family.PSEUDO_TYPE, PseudoTypeParams(n=rotation.degree + 1, A=rotation)))
    if cubic is not None:
        hits.append((Family.CUBIC, cubic))
    if not hits:
        return FamilyTag(Family.UNCLASSIFIED, None, cofactor=cof.K, rotation=rotation)
    family, params = hits[0]
    return FamilyTag(family, params, tuple(f for f, _ in hits), cubic, cof.K, rotation)


_RADIAL = X * X + Y * Y
_RADIAL_SQUARED = _RADIAL * _RADIAL


def canonical_first_integrals(tag: FamilyTag, m: Fraction) -> list[RationalFn]:
    """Closed-form first integrals known for the tagged family.

    Kolmogorov and quadratic fields conserve F / (x^2 + y^2)^2; pseudo-type
    and degree-one fields conserve both x^2 + y^2 and z.
    """
    if tag.family in (Family.KOLMOGOROV, Family.QUADRATIC):
        return [RationalFn(torus_surface(Fraction(m)).F, _RADIAL_SQUARED)]
    if tag.family in (Family.PSEUDO_TYPE, Family.DEGREE_ONE):
        return [RationalFn(_RADIAL, ONE), RationalFn(Z, ONE)]
    raise NoKnownIntegral(f"no catalogued first integral for {tag.family.value}")


def verified_first_integrals(field: VectorField, tag: FamilyTag,
                             m: Fraction) -> list[tuple[RationalFn, bool]]:
    """Each catalogued first integral of ``tag = recognize(field, m)``, with
    whether it is exactly constant along the field.

    The Kolmogorov and quadratic integral F/(x^2 + y^2)^2 is checked through
    the tag's cofactor K, F's own: its denominator must have cofactor K too.
    """
    try:
        integrals = canonical_first_integrals(tag, m)
    except NoKnownIntegral:
        return []
    if tag.family in (Family.KOLMOGOROV, Family.QUADRATIC):
        # chi(F) = K*F, so den*chi(F) - F*chi(den) = F*(K*den - chi(den)), F != 0
        chi_den = apply(field, _RADIAL_SQUARED)
        return [(h, chi_den == tag.cofactor * h.den) for h in integrals]
    return [(h, check_first_integral(field, h)) for h in integrals]
