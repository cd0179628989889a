"""Vector-field core: directional derivative, torus cofactor, Lie bracket.

A polynomial vector field (P, Q, R) acts on a polynomial f as
``chi(f) = P*f_x + Q*f_y + R*f_z``, summed on integer numerators with each
term of f differentiated inside the product loop.  The torus is the level
set of ``F = (x^2 + y^2 - m)^2 + z^2 - 1`` and a field keeps it invariant
exactly when F divides chi(F); the quotient is the cofactor.  chi(F) is
read off the torus's shape and divided by F = z^2 + G(x, y) one z-slice at
a time, one product with G's six terms per slice, no ansatz solving.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, _chi_sum, _poly, _shift_into
from .scalars import Scalar, _merge_m


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
    return _chi_sum(((field.components(), f, 1),))


def _z_slices(d: dict) -> dict[int, dict]:
    """A numerator dict as z-power k -> {(i, j): value}."""
    out: dict = {}
    for (i, j, k), c in d.items():
        out.setdefault(k, {})[i, j] = c
    return out


def _divide_by_torus(parts: list[dict], den: int, pm: Fraction | None,
                     m: Fraction) -> MultiPoly | None:
    """p/F, or None when F does not divide p; p has the rational and sqrt(pm)
    numerators ``parts`` (consumed), as :func:`_z_slices` gives them, over den.

    F = z^2 + G, G = (x^2 + y^2 - m)^2 - 1.  From the top down, the z^k slice
    is the quotient's z^(k-2) slice and, times G, comes off the z^(k-2)
    slice; F divides p when the z^1 and z^0 slices end at zero.  Scaling by
    md^(2*(top // 2)) first makes every step's division by md^2 exact."""
    mn, md, md2 = m.numerator, m.denominator, m.denominator ** 2
    g = (((4, 0), md2), ((2, 2), 2 * md2), ((0, 4), md2), ((2, 0), -2 * mn * md),
         ((0, 2), -2 * mn * md), ((0, 0), mn * mn - md2))
    top = max((k for slices in parts for k in slices), default=0)
    scale = md2 ** (top // 2)
    quotient = []
    for slices in parts:
        if scale != 1:
            slices = {k: {e: c * scale for e, c in sl.items()} for k, sl in slices.items()}
        out = {}
        for k in range(top, 1, -1):
            below = slices.setdefault(k - 2, {})
            get = below.get
            for (i, j), c in slices.get(k, {}).items():
                if c:
                    out[i, j, k - 2] = c
                    c //= md2
                    for (a, b), gc in g:
                        e = (i + a, j + b)
                        below[e] = get(e, 0) - gc * c
        if any(slices.get(0, {}).values()) or any(slices.get(1, {}).values()):
            return None
        quotient.append(out)
    return _poly(*quotient, den * scale, pm)


def cofactor_on_torus(field: VectorField, surface: TorusSurface) -> CofactorResult:
    """Extract K with chi(F) = K*F, or report the field leaves the torus.
    chi(F) = 4*(x^2 + y^2 - m)*(x*P + y*Q) + 2*z*R is built on numerators
    as z-slices and divided by F, see :func:`_divide_by_torus`."""
    P, Q, R = field.components()
    mn, md = surface.m.numerator, surface.m.denominator
    pq = math.lcm(P._den, Q._den)
    den = math.lcm(pq * md, R._den)
    radial, along_z = 4 * (den // (pq * md)), 2 * (den // R._den)
    parts = []
    for pd, qd, rd in ((P._p, Q._p, R._p), (P._q, Q._q, R._q)):
        xpyq: dict = {}     # x*P + y*Q cancels in full for a rotation shape
        _shift_into(xpyq, pd, (1, 0, 0), radial * (pq // P._den))
        _shift_into(xpyq, qd, (0, 1, 0), radial * (pq // Q._den))
        slices: dict = {}
        for (i, j, k), c in xpyq.items():
            sl = slices.setdefault(k, {})
            for e, v in (((i + 2, j), md * c), ((i, j + 2), md * c), ((i, j), -mn * c)):
                sl[e] = sl.get(e, 0) + v
        for (i, j, k), c in rd.items():
            sl = slices.setdefault(k + 1, {})
            sl[i, j] = sl.get((i, j), 0) + along_z * c
        parts.append(slices)
    K = _divide_by_torus(parts, den, _merge_m(_merge_m(P.m, Q.m), R.m), surface.m)
    return CofactorResult(False) if K is None else CofactorResult(True, K)


def lie_bracket(xf: VectorField, yf: VectorField) -> VectorField:
    """[X, Y] with components X(Y_i) - Y(X_i)."""
    xs, ys = xf.components(), yf.components()
    return VectorField(*(_chi_sum(((xs, yc, 1), (ys, xc, -1)))
                         for xc, yc in zip(xs, ys)))


def check_first_integral(field: VectorField, h: RationalFn) -> bool:
    """True when h is constant along the flow: den*chi(num) = num*chi(den).
    A constant denominator has chi(den) = 0, so then chi(num) = 0 decides."""
    if h.den.is_scalar():
        return apply(field, h.num).is_zero()
    return h.den * apply(field, h.num) == h.num * apply(field, h.den)
