"""Vector-field core: directional derivative, torus cofactor, Lie bracket.

A polynomial vector field (P, Q, R) acts on a polynomial f as
``P*f_x + Q*f_y + R*f_z``.  The torus is the level set of
``F = (x^2 + y^2 - m)^2 + z^2 - 1`` and a field keeps it invariant exactly
when F divides the derivative of F along the field; the quotient is the
cofactor.  F is monic in z, so the divisibility test is a plain exact
division, no ansatz solving.  F's gradient is taken once per surface, so a
cofactor costs three products and one division.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, NotDivisible, divide_exact_z, sum_of_products
from .scalars import Scalar


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


def _gradient(f: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    return f.differentiate("x"), f.differentiate("y"), f.differentiate("z")


class TorusSurface:
    """The torus with squared middle radius m > 1, its polynomial F and
    F's gradient ``(F_x, F_y, F_z)``."""

    __slots__ = ("m", "F", "gradient")

    def __init__(self, m: Fraction | int):
        m = Fraction(m)
        if m <= 1:
            raise ValueError(f"torus parameter must exceed 1, got {m}")
        self.m = m
        self.F = torus_polynomial(m)
        self.gradient = _gradient(self.F)

    def radius(self) -> Scalar:
        return Scalar.sqrt_m(self.m)


# one surface per m, kept for the last 16: every stage that needs F asks again
torus_surface = functools.lru_cache(maxsize=16)(TorusSurface)


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
    return sum_of_products(zip(field.components(), _gradient(f)))


def cofactor_on_torus(field: VectorField, surface: TorusSurface) -> CofactorResult:
    """Extract K with chi(F) = K*F, or report the field leaves the torus."""
    derivative = sum_of_products(zip(field.components(), surface.gradient))
    if derivative.is_zero():
        return CofactorResult(True, MultiPoly.zero())
    try:
        return CofactorResult(True, divide_exact_z(derivative, surface.F))
    except NotDivisible:
        return CofactorResult(False)


def lie_bracket(xf: VectorField, yf: VectorField) -> VectorField:
    """[X, Y] with components X(Y_i) - Y(X_i)."""
    minus_y = (-yf).components()
    return VectorField(*(
        sum_of_products([*zip(xf.components(), _gradient(yc)),
                         *zip(minus_y, _gradient(xc))])
        for xc, yc in zip(xf.components(), yf.components())))


def check_first_integral(field: VectorField, h: RationalFn) -> bool:
    """True when h is constant along the flow: den*chi(num) = num*chi(den).

    A constant denominator has chi(den) = 0, so then chi(num) = 0 decides.
    """
    if h.den.is_scalar():
        return apply(field, h.num).is_zero()
    lhs = h.den * apply(field, h.num) - h.num * apply(field, h.den)
    return lhs.is_zero()

