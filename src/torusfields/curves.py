"""Invariant meridians and parallels, with multiplicities.

A meridian plane is a*x + b*y = 0; its two meridians are invariant exactly
when the plane polynomial divides the extactic polynomial of the span of
x and y, which for a field (P, Q, R) is Q*x - P*y.  A parallel plane
z - k = 0 (|k| <= 1) is invariant exactly when z - k divides R.

The extactic polynomial is built by exponent shifts of Q's and P's integer
numerators.  Substituting y = t*x splits a polynomial into one
t-polynomial per x^alpha z^k group, and y - t0*x divides it to the power mu
exactly when (t - t0)^mu divides their exact gcd g; likewise z - k and the
gcd of the z-profiles of R.  Each gcd runs on the groups' numerators and
stops at the first constant gcd, before the later groups are built.  So the
planes and their multiplicities are the real roots of g from
:func:`torusfields.roots.real_roots`: rational slopes and heights exactly,
however large their numerators and denominators, the others isolated by an
exact Sturm sequence and polished in floats.  A rational slope n/d gives
the plane -n*x + d*y = 0 from its integer numerator and denominator.

Every such factor is an invariant meridian plane with the same multiplicity:
for L = y - t0*x, Q*x - P*y = x*chi(L) - P*L, so L divides Q*x - P*y exactly
when L divides chi(L); for the plane x = 0, x divides Q*x - P*y exactly when
x divides P = chi(x).  No plane is re-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .poly import MultiPoly, X, Y, _poly, _shift_into, line_gcd, z_profile_gcd
from .scalars import Scalar, _merge_m
from .roots import real_roots
from .vfield import VectorField
from .families import CubicParams


@dataclass(frozen=True)
class MeridianPlane:
    """Plane a*x + b*y = 0 with a^2 + b^2 = 1 and first nonzero >= 0."""

    a: float
    b: float
    exact_pair: tuple[Scalar, Scalar] | None = None

    @property
    def exact(self) -> bool:
        return self.exact_pair is not None

    def angle(self) -> float:
        """Angle of the meridian pair in [0, pi)."""
        theta = math.atan2(self.a, -self.b) % math.pi
        return 0.0 if abs(theta - math.pi) < 1e-12 else theta

    def polynomial(self) -> MultiPoly | None:
        if self.exact_pair is None:
            return None
        a, b = self.exact_pair
        return X * a + Y * b


@dataclass(frozen=True)
class ParallelPlane:
    """Plane z = k with -1 <= k <= 1."""

    k: float
    exact_k: Fraction | None = None

    @property
    def exact(self) -> bool:
        return self.exact_k is not None

    def is_boundary(self) -> bool:
        # real_roots returns the endpoints +-1 of (-1, 1) as exact Fractions
        return self.exact_k is not None and abs(self.exact_k) == 1


@dataclass
class MeridianSet:
    """Invariant meridian planes with multiplicities, or the infinite verdict.

    ``fallback_scan`` is always False: every root is isolated exactly.  It
    stays because the report schema ``torus-fields/1`` keeps the key and the
    benchmark harness reads it.
    """

    infinite: bool
    planes: list[tuple[MeridianPlane, int]] = dc_field(default_factory=list)
    fallback_scan: bool = False

    def plane_multiplicity_total(self) -> int:
        return sum(mult for _, mult in self.planes)

    def meridian_count(self) -> int | float:
        if self.infinite:
            return math.inf
        return 2 * self.plane_multiplicity_total()


@dataclass
class ParallelSet:
    """Invariant parallel planes with multiplicities, or the infinite verdict.

    ``fallback_scan`` is always False, kept for the same reason as in
    :class:`MeridianSet`.
    """

    infinite: bool
    planes: list[tuple[ParallelPlane, int]] = dc_field(default_factory=list)
    fallback_scan: bool = False

    def plane_multiplicity_total(self) -> int:
        return sum(mult for _, mult in self.planes)

    def parallel_count(self) -> int | float:
        if self.infinite:
            return math.inf
        return sum((1 if plane.is_boundary() else 2) * mult
                   for plane, mult in self.planes)


def extactic_xy(field: VectorField) -> MultiPoly:
    """Extactic polynomial of the field for the span of x and y: Q*x - P*y,
    by exponent shifts of Q's and P's numerators over their common
    denominator."""
    p, q = field.P, field.Q
    g = math.gcd(p._den, q._den)
    parts = []
    for pd, qd in ((p._p, q._p), (p._q, q._q)):
        out: dict = {}
        _shift_into(out, qd, (1, 0, 0), p._den // g)
        _shift_into(out, pd, (0, 1, 0), -(q._den // g))
        parts.append(out)
    return _poly(*parts, p._den // g * q._den, _merge_m(p.m, q.m))


# -- linear-factor machinery ---------------------------------------------------


@dataclass(frozen=True)
class LinearFactor:
    """A factor a*x + b*y of some polynomial, with its multiplicity there."""

    slope: Fraction | float | None   # t0 of y - t0*x; None means the plane x = 0
    multiplicity: int

    @property
    def exact(self) -> bool:
        return self.slope is None or isinstance(self.slope, Fraction)


def linear_xy_factors(p: MultiPoly) -> list[LinearFactor]:
    """All factors of p of the form a*x + b*y, with multiplicities.

    Rational slopes are exact Fractions of any size (from
    :func:`torusfields.roots.real_roots`); the others are floats isolated
    by an exact Sturm sequence.
    """
    if p.is_zero():
        raise ValueError("linear factors of the zero polynomial")
    factors: list[LinearFactor] = []
    x_mult = p.min_var_exponent("x")
    if x_mult >= 1:
        factors.append(LinearFactor(None, x_mult))
    g = line_gcd(p)
    if g.degree >= 1:
        factors += [LinearFactor(t0, mult) for t0, mult in real_roots(g)]
    return factors


def plane_from_factor(factor: LinearFactor) -> MeridianPlane:
    if factor.slope is None:
        return MeridianPlane(1.0, 0.0, (Scalar(1), Scalar(0)))
    if factor.exact:
        # d*(y - (n/d)*x) = -n*x + d*y, negated when n > 0; its floats are
        # those of the pair over d, which is (|n|/d, +-1)
        n, d = factor.slope.numerator, factor.slope.denominator
        a, b = (n, -d) if n > 0 else (-n, d)
        fa, fb = a / d, (1.0 if n <= 0 else -1.0)
        h = math.hypot(fa, fb)
        return MeridianPlane(fa / h, fb / h, (Scalar(a), Scalar(b)))
    t0 = float(factor.slope)
    a, b = -t0, 1.0
    if a < 0:
        a, b = -a, -b
    h = math.hypot(a, b)
    return MeridianPlane(a / h, b / h)


def invariant_meridians(field: VectorField) -> MeridianSet:
    """Every invariant meridian plane, or the infinite verdict."""
    ext = extactic_xy(field)
    if ext.is_zero():
        return MeridianSet(infinite=True)
    planes = [(plane_from_factor(factor), factor.multiplicity)
              for factor in linear_xy_factors(ext)]
    planes.sort(key=lambda pm: pm[0].angle())
    return MeridianSet(False, planes)


def invariant_parallels(field: VectorField) -> ParallelSet:
    """Every invariant parallel plane z = k with |k| <= 1."""
    if field.R.is_zero():
        return ParallelSet(infinite=True)
    g = z_profile_gcd(field.R)
    planes: list[tuple[ParallelPlane, int]] = []
    if g.degree >= 1:
        for k, mult in real_roots(g, (-1, 1)):
            planes.append((ParallelPlane(float(k), k if isinstance(k, Fraction) else None),
                           mult))
    return ParallelSet(False, planes)


def check_four_meridian_criterion(params: CubicParams) -> bool:
    """Exactly four meridians (with multiplicity) for a cubic field.

    Holds precisely when beta = gamma = 0 and f is a nonzero binary
    quadratic in x, y splitting into two real linear forms.
    """
    if not params.beta.is_zero() or not params.gamma.is_zero():
        return False
    f = params.f
    if f.degree != 2 or not set(f.terms) <= {(2, 0, 0), (1, 1, 0), (0, 2, 0)}:
        return False
    a = f.coefficient((2, 0, 0))
    b = f.coefficient((1, 1, 0))
    c = f.coefficient((0, 2, 0))
    disc = b * b - a * c * 4
    return disc.sign() >= 0
