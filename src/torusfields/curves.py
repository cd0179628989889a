"""Invariant meridians and parallels, with multiplicities.

A meridian plane is a*x + b*y = 0; its two meridians are invariant exactly
when the plane polynomial divides the extactic polynomial of the span of
x and y, which for a field (P, Q, R) is Q*x - P*y.  A parallel plane
z - k = 0 (|k| <= 1) is invariant exactly when z - k divides R.

Substituting y = t*x splits a polynomial into one t-polynomial per
x^alpha z^k group, and y - t0*x divides it to the power mu exactly when
(t - t0)^mu divides their exact gcd g; likewise z - k and the gcd of the
z-profiles of R.  So the planes and their multiplicities are the real roots
of g from :func:`torusfields.roots.real_roots`: rational slopes and heights
exactly (within that function's coefficient-size limit), the others
isolated by an exact Sturm sequence and polished in floats.  Each meridian
plane is still checked for invariance on its own before it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .poly import (MultiPoly, NotDivisible, UniPoly, X, Y, divide_exact,
                   restrict_to_line, unipoly_gcd)
from .roots import real_roots
from .scalars import Scalar
from .vfield import VectorField, plane_residual
from .families import CubicParams

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class MeridianPlane:
    """Plane a*x + b*y = 0 with a^2 + b^2 = 1 and first nonzero >= 0."""

    a: float
    b: float
    exact: bool
    exact_pair: tuple[Scalar, Scalar] | None = None

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
    exact: bool
    exact_k: Fraction | None = None

    def is_boundary(self) -> bool:
        if self.exact_k is not None:
            return abs(self.exact_k) == 1
        return abs(abs(self.k) - 1.0) < 1e-9


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
    """Extactic polynomial of the field for the span of x and y: Q*x - P*y."""
    return field.Q * X - field.P * Y


# -- linear-factor machinery ---------------------------------------------------


@dataclass(frozen=True)
class LinearFactor:
    """A factor a*x + b*y of some polynomial, with its multiplicity there."""

    slope: Fraction | float | None   # t0 of y - t0*x; None means the plane x = 0
    exact: bool
    multiplicity: int


def _slope_divisor(t0: Fraction) -> MultiPoly:
    return MultiPoly({(0, 1, 0): Scalar(1), (1, 0, 0): Scalar(-t0)})


def linear_xy_factors(p: MultiPoly) -> list[LinearFactor]:
    """All factors of p of the form a*x + b*y, with multiplicities.

    Rational slopes are exact Fractions (within the coefficient-size limit
    of :func:`torusfields.roots.real_roots`); the others are floats
    isolated by an exact Sturm sequence.
    """
    if p.is_zero():
        raise ValueError("linear factors of the zero polynomial")
    factors: list[LinearFactor] = []
    x_mult = p.min_var_exponent("x")
    if x_mult >= 1:
        factors.append(LinearFactor(None, True, x_mult))
    g = unipoly_gcd(restrict_to_line(p))
    if g.degree >= 1:
        factors += [LinearFactor(t0, isinstance(t0, Fraction), mult)
                    for t0, mult in real_roots(g)]
    return factors


def plane_from_factor(factor: LinearFactor) -> MeridianPlane:
    if factor.slope is None:
        return MeridianPlane(1.0, 0.0, True, (Scalar(1), Scalar(0)))
    if factor.exact:
        t0 = factor.slope
        a, b = -t0, Fraction(1)
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        scale = a.denominator if a else b.denominator
        pair = (Scalar(a * scale), Scalar(b * scale))
        h = math.hypot(float(a), float(b))
        return MeridianPlane(float(a) / h, float(b) / h, True, pair)
    t0 = float(factor.slope)
    a, b = -t0, 1.0
    if a < 0:
        a, b = -a, -b
    h = math.hypot(a, b)
    return MeridianPlane(a / h, b / h, False)


def invariant_meridians(field: VectorField) -> MeridianSet:
    """Every invariant meridian plane, or the infinite verdict."""
    ext = extactic_xy(field)
    if ext.is_zero():
        return MeridianSet(infinite=True)
    planes = [(plane_from_factor(factor), factor.multiplicity)
              for factor in linear_xy_factors(ext)
              if _meridian_invariant(field, factor)]
    planes.sort(key=lambda pm: pm[0].angle())
    return MeridianSet(False, planes)


def _meridian_invariant(field: VectorField, factor: LinearFactor) -> bool:
    if factor.slope is None:
        return field.P.is_zero() or field.P.min_var_exponent("x") >= 1
    if factor.exact:
        ell = field.Q - field.P * Scalar(factor.slope)
        if ell.is_zero():
            return True
        try:
            divide_exact(ell, _slope_divisor(factor.slope), "y")
            return True
        except NotDivisible:
            return False
    t0 = float(factor.slope)
    return plane_residual(field, -t0, 1.0) < RESIDUAL_TOL


def _z_profiles(r: MultiPoly) -> list[UniPoly]:
    """One polynomial in z per x^i y^j monomial group of R."""
    groups: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k), coeff in r.terms.items():
        groups.setdefault((i, j), {})[k] = coeff
    out = []
    for key in sorted(groups):
        slot = groups[key]
        coeffs = [slot.get(d, Scalar(0)) for d in range(max(slot) + 1)]
        out.append(UniPoly(coeffs))
    return out


def invariant_parallels(field: VectorField) -> ParallelSet:
    """Every invariant parallel plane z = k with |k| <= 1."""
    if field.R.is_zero():
        return ParallelSet(infinite=True)
    g = unipoly_gcd(_z_profiles(field.R))
    planes: list[tuple[ParallelPlane, int]] = []
    if g.degree >= 1:
        for k, mult in real_roots(g, (-1, 1)):
            exact = isinstance(k, Fraction)
            planes.append((ParallelPlane(float(k), exact, k if exact else None),
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
