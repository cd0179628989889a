"""Vector-field core: directional derivative, torus cofactor, Lie bracket.

A polynomial vector field (P, Q, R) acts on a polynomial f as
``P*f_x + Q*f_y + R*f_z``.  The torus is the level set of
``F = (x^2 + y^2 - m)^2 + z^2 - 1`` and a field keeps it invariant exactly
when F divides the derivative of F along the field; the quotient is the
cofactor.  F is monic in z, so the divisibility test is a plain exact
division, no ansatz solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import (MultiPoly, NotDivisible, divide_exact, divide_exact_z,
                   restrict_to_line)
from .scalars import Scalar


class UnsupportedShape(ValueError):
    """Invariance test requested for a surface shape the toolkit rejects."""


@dataclass(frozen=True)
class VectorField:
    P: MultiPoly
    Q: MultiPoly
    R: MultiPoly

    @property
    def degree(self) -> int | float:
        return max(self.P.degree, self.Q.degree, self.R.degree)

    def is_zero(self) -> bool:
        return self.P.is_zero() and self.Q.is_zero() and self.R.is_zero()

    def __neg__(self) -> "VectorField":
        return VectorField(-self.P, -self.Q, -self.R)

    def components(self) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
        return self.P, self.Q, self.R


def torus_polynomial(m: Fraction) -> MultiPoly:
    """F = (x^2 + y^2 - m)^2 + z^2 - 1."""
    x2y2 = MultiPoly({(2, 0, 0): Scalar(1), (0, 2, 0): Scalar(1),
                      (0, 0, 0): Scalar(-m)})
    return x2y2 * x2y2 + MultiPoly({(0, 0, 2): Scalar(1), (0, 0, 0): Scalar(-1)})


class TorusSurface:
    """The torus with squared middle radius m > 1 and its polynomial F."""

    __slots__ = ("m", "F")

    def __init__(self, m: Fraction | int):
        m = Fraction(m)
        if m <= 1:
            raise ValueError(f"torus parameter must exceed 1, got {m}")
        self.m = m
        self.F = torus_polynomial(m)

    def radius(self) -> Scalar:
        return Scalar.sqrt_m(self.m)

    def contains_float(self, point: tuple[float, float, float],
                       tol: float = 1e-9) -> bool:
        return abs(self.F.eval_float(point)) <= tol


@dataclass(frozen=True)
class CofactorResult:
    on_torus: bool
    K: MultiPoly | None = None


@dataclass(frozen=True)
class RationalFn:
    """num/den with a nonzero denominator."""

    num: MultiPoly
    den: MultiPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")


def apply(field: VectorField, f: MultiPoly) -> MultiPoly:
    """Derivative of f along the field: P*f_x + Q*f_y + R*f_z."""
    return (field.P * f.differentiate("x")
            + field.Q * f.differentiate("y")
            + field.R * f.differentiate("z"))


def cofactor_on_torus(field: VectorField, surface: TorusSurface) -> CofactorResult:
    """Extract K with chi(F) = K*F, or report the field leaves the torus."""
    derivative = apply(field, surface.F)
    if derivative.is_zero():
        return CofactorResult(True, MultiPoly.zero())
    try:
        return CofactorResult(True, divide_exact_z(derivative, surface.F))
    except NotDivisible:
        return CofactorResult(False)


def lie_bracket(xf: VectorField, yf: VectorField) -> VectorField:
    """[X, Y] with components X(Y_i) - Y(X_i)."""
    return VectorField(
        apply(xf, yf.P) - apply(yf, xf.P),
        apply(xf, yf.Q) - apply(yf, xf.Q),
        apply(xf, yf.R) - apply(yf, xf.R),
    )


def check_first_integral(field: VectorField, h: RationalFn) -> bool:
    """True when h is constant along the flow: den*chi(num) = num*chi(den)."""
    lhs = h.den * apply(field, h.num) - h.num * apply(field, h.den)
    return lhs.is_zero()


def _linear_xy_pair(f: MultiPoly) -> tuple[Scalar, Scalar] | None:
    """(a, b) when f = a*x + b*y, else None."""
    if f.is_zero() or not set(f.terms) <= {(1, 0, 0), (0, 1, 0)}:
        return None
    return f.coefficient((1, 0, 0)), f.coefficient((0, 1, 0))


def invariant_surface_cofactor(field: VectorField, f: MultiPoly) -> CofactorResult:
    """Cofactor of an invariant surface {f = 0}.

    Supported shapes: f with a scalar leading z-coefficient (the torus
    polynomial, z, z - k) and meridian planes a*x + b*y.
    """
    if f.is_zero():
        raise UnsupportedShape("the zero polynomial bounds no surface")
    pair = _linear_xy_pair(f)
    if pair is not None:
        a, b = pair
        var = "x" if not a.is_zero() else "y"
    else:
        z_coeffs = f.coefficients_in("z")
        if max(z_coeffs) == 0 or not z_coeffs[max(z_coeffs)].is_scalar():
            raise UnsupportedShape(
                "only z-monic surfaces and meridian planes are supported")
        var = "z"
    derivative = apply(field, f)
    if derivative.is_zero():
        return CofactorResult(True, MultiPoly.zero())
    try:
        return CofactorResult(True, divide_exact(derivative, f, var))
    except NotDivisible:
        return CofactorResult(False)


def plane_residual(field: VectorField, a: float, b: float) -> float:
    """Invariance residual of the plane a*x + b*y = 0, scan-normalized.

    Substitutes y = t*x into chi(a*x + b*y) and evaluates every coefficient
    polynomial at the plane's slope; the maximum normalized magnitude is the
    residual (exactly zero for an invariant plane).
    """
    ell = a * field.P + b * field.Q
    if ell.is_zero():
        return 0.0
    if b == 0.0:
        # plane x = 0: residual is the x-free part of chi(x) = P
        bad = [c.to_float() for (i, _, _), c in field.P.terms.items() if i == 0]
        top = max((abs(c.to_float()) for c in field.P.terms.values()), default=1.0)
        return max((abs(v) for v in bad), default=0.0) / max(top, 1e-300)
    t0 = -a / b
    worst = 0.0
    for upoly in restrict_to_line(ell):
        coeffs = upoly.to_floats()
        scale = max(abs(c) * max(1.0, abs(t0)) ** i for i, c in enumerate(coeffs))
        value = 0.0
        for c in reversed(coeffs):
            value = value * t0 + c
        worst = max(worst, abs(value) / max(scale, 1e-300))
    return worst
