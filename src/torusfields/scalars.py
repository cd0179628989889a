"""Exact arithmetic in the real quadratic extension Q(sqrt(m)).

A scalar is ``p + q*sqrt(m)`` with ``p``, ``q`` rational and ``m`` a rational
parameter shared by every value in a computation (``m = a**2``, the squared
middle radius of the torus).  Rationals are ``fractions.Fraction``, so they
are always in lowest terms with a positive denominator.

When ``m`` is the square of a rational, ``sqrt(m)`` is folded to its rational
value on construction.  A scalar with a nonzero sqrt part therefore always
has a non-square ``m``, Q(sqrt(m)) is a field (every nonzero scalar has an
inverse), and ``(p, q, m)`` is canonical: at a fixed ``m``, square or not,
two scalars are equal exactly when they are the same real number.  Scalars
with sqrt parts over different ``m`` compare unequal, even where they denote
the same real (``sqrt(8)`` and ``2*sqrt(2)``).

The extension parameter is carried by the value itself rather than by module
state: a scalar with a nonzero irrational part remembers its ``m``, and
binary operations refuse to mix two different parameters.

Scalars are the boundary type: parser literals, polynomial coefficients read
through ``coefficient()`` or ``terms``, and family parameters.  Polynomial
arithmetic and serialization do not run on them; :mod:`torusfields.poly`
keeps integer numerators over a shared denominator and converts at the
boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

_F0 = Fraction(0)


class MixedExtensionError(ValueError):
    """Raised when scalars built over different parameters m are combined."""


def _merge_m(ma: Fraction | None, mb: Fraction | None) -> Fraction | None:
    if ma is None:
        return mb
    if mb is None or ma == mb:
        return ma
    raise MixedExtensionError(f"cannot mix sqrt({ma}) with sqrt({mb})")


def _rational_sqrt(m: Fraction) -> Fraction | None:
    """sqrt(m) when m is the square of a rational, else None."""
    if m < 0:
        return None
    num, den = math.isqrt(m.numerator), math.isqrt(m.denominator)
    if num * num == m.numerator and den * den == m.denominator:
        return Fraction(num, den)
    return None


class Scalar:
    """An element p + q*sqrt(m) of Q(sqrt(m)), exact."""

    __slots__ = ("p", "q", "m")

    def __init__(self, p: RationalLike = 0, q: RationalLike = 0,
                 m: RationalLike | None = None):
        if type(p) is not Fraction:
            p = Fraction(p)
        if type(q) is not Fraction:
            q = Fraction(q)
        if q == 0:
            m = None
        elif m is None:
            raise ValueError("a nonzero sqrt part requires the parameter m")
        else:
            m = Fraction(m)
            root = _rational_sqrt(m)
            if root is not None:
                p, q, m = p + q * root, _F0, None
        self.p = p
        self.q = q
        # m is only meaningful (and only kept) while the sqrt part is nonzero
        self.m = m

    @classmethod
    def _make(cls, p: Fraction, q: Fraction,
              m: Fraction | None) -> "Scalar":
        # internal: operands already normalized Fractions, m never a square
        out = object.__new__(cls)
        out.p = p
        out.q = q
        out.m = m if q else None
        return out

    @classmethod
    def sqrt_m(cls, m: RationalLike) -> "Scalar":
        """The generator sqrt(m) itself (the torus radius a)."""
        return cls(0, 1, m)

    @classmethod
    def coerce(cls, value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(value)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.p == other.p and self.q == other.q and self.m == other.m
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.m))

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        other = Scalar.coerce(other)
        return Scalar._make(self.p + other.p, self.q + other.q,
                            _merge_m(self.m, other.m))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._make(-self.p, -self.q, self.m)

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        other = Scalar.coerce(other)
        if self.q == 0 and other.q == 0:
            return Scalar._make(self.p * other.p, _F0, None)
        m = _merge_m(self.m, other.m)
        return Scalar._make(self.p * other.p + self.q * other.q * m,
                            self.p * other.q + self.q * other.p, m)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        """self**n for an integer n >= 0; ``x ** 0`` is 1, zero included.

        A rational or a pure ``q*sqrt(m)`` is raised in closed form,
        ``q^n * m^(n//2)`` times sqrt(m) for odd n; a mixed scalar by
        square-and-multiply.
        """
        if n < 0:
            raise ValueError("negative power of a scalar")
        if not self.q:
            return Scalar._make(self.p ** n, _F0, None)
        if not self.p:
            half, odd = divmod(n, 2)
            r = self.q ** n * self.m ** half
            return Scalar._make(_F0, r, self.m) if odd else Scalar._make(r, _F0, None)
        out, base = ONE, self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; ZeroDivisionError for zero only."""
        if self.q == 0:
            if self.p == 0:
                raise ZeroDivisionError("scalar zero has no inverse")
            return Scalar._make(1 / self.p, _F0, None)
        # m is not a square, so the norm p^2 - q^2 m is nonzero
        norm = self.p * self.p - self.q * self.q * self.m
        return Scalar._make(self.p / norm, -self.q / norm, self.m)

    def sign(self) -> int:
        """Exact sign of the real number p + q*sqrt(m), in {-1, 0, 1}."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        sp = 1 if self.p > 0 else -1
        sq = 1 if self.q > 0 else -1
        if sp == sq:
            return sp
        # opposite signs: compare p^2 with q^2 m, never equal for non-square m
        return sp if self.p * self.p > self.q * self.q * self.m else sq

    def to_float(self) -> float:
        if self.q == 0:
            return float(self.p)
        return float(self.p) + float(self.q) * math.sqrt(float(self.m))

    def __repr__(self) -> str:
        if self.q == 0:
            return f"Scalar({self.p})"
        return f"Scalar({self.p}, {self.q}, m={self.m})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        if self.p == 0:
            return f"{self.q}*sqrt({self.m})"
        return f"{self.p} + {self.q}*sqrt({self.m})"


ZERO = Scalar(0)
ONE = Scalar(1)
