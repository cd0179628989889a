"""Sparse trivariate polynomials over Q(sqrt(m)), plus univariate helpers.

A :class:`MultiPoly` maps exponent triples ``(i, j, k)`` (powers of x, y, z)
to nonzero :class:`~torusfields.scalars.Scalar` coefficients.  The map never
stores a zero coefficient, so the representation is canonical and structural
equality is polynomial identity.  Values are immutable after construction;
every operation returns a fresh polynomial.

:class:`UniPoly` is a dense univariate polynomial (ascending coefficients)
used for restrictions of a MultiPoly to a single variable: the slope
parameter t of a meridian plane, or z for parallel planes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .scalars import Scalar

Exponent = tuple[int, int, int]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
NEG_INF = float("-inf")


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class MalformedDivisor(ValueError):
    """Divisor's leading coefficient in the division variable is not scalar."""


def _as_scalar(value: Scalar | int | Fraction) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


class MultiPoly:
    """Sparse polynomial in x, y, z with Scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _as_scalar(coeff)
                if not coeff.is_zero():
                    clean[exp] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar | int | Fraction) -> "MultiPoly":
        return cls({(0, 0, 0): _as_scalar(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        idx = _VAR_INDEX[name]
        exp = [0, 0, 0]
        exp[idx] = 1
        return cls({tuple(exp): Scalar(1)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff: Scalar | int | Fraction = 1) -> "MultiPoly":
        return cls({exp: _as_scalar(coeff)})

    @classmethod
    def coerce(cls, value: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return cls.constant(value)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(i + j + k for (i, j, k) in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0, 0)}

    def constant_value(self) -> Scalar:
        """The coefficient of the constant monomial (zero if absent)."""
        return self.terms.get((0, 0, 0), Scalar(0))

    def coefficient(self, exp: Exponent) -> Scalar:
        return self.terms.get(exp, Scalar(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        if isinstance(other, (Scalar, int, Fraction)):
            return self == MultiPoly.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple[Exponent, Scalar]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        from .parsing import serialize

        return f"MultiPoly({serialize(self)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        other = MultiPoly.coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp)
            coeff = coeff if acc is None else acc + coeff
            if coeff.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = coeff
        result = MultiPoly.__new__(MultiPoly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        result = MultiPoly.__new__(MultiPoly)
        result.terms = {exp: -c for exp, c in self.terms.items()}
        return result

    def __sub__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        out: dict[Exponent, Scalar] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                exp = (i1 + i2, j1 + j2, k1 + k2)
                prod = c1 * c2
                acc = out.get(exp)
                prod = prod if acc is None else acc + prod
                if prod.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = prod
        result = MultiPoly.__new__(MultiPoly)
        result.terms = out
        return result

    def __rmul__(self, other: "Scalar | int | Fraction") -> "MultiPoly":
        return self.scale(other)

    def scale(self, factor: Scalar | int | Fraction) -> "MultiPoly":
        factor = _as_scalar(factor)
        if factor.is_zero():
            return MultiPoly.zero()
        result = MultiPoly.__new__(MultiPoly)
        result.terms = {exp: c * factor for exp, c in self.terms.items()}
        return result

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(1)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus and structure maps ----------------------------------------

    def differentiate(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to x, y or z."""
        idx = _VAR_INDEX[var]
        out: dict[Exponent, Scalar] = {}
        for exp, coeff in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            new = list(exp)
            new[idx] = e - 1
            out[tuple(new)] = coeff * e
        return MultiPoly(out)

    def homogeneous_component(self, d: int) -> "MultiPoly":
        """Sum of the terms of total degree exactly d."""
        return MultiPoly({exp: c for exp, c in self.terms.items()
                          if sum(exp) == d})

    def homogeneous_parts(self) -> dict[int, "MultiPoly"]:
        parts: dict[int, dict[Exponent, Scalar]] = {}
        for exp, coeff in self.terms.items():
            parts.setdefault(sum(exp), {})[exp] = coeff
        return {d: MultiPoly(t) for d, t in sorted(parts.items())}

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp in self.terms}
        return len(degs) <= 1

    def substitute(self, var: str, replacement: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        """Formal composition: replace ``var`` by ``replacement``."""
        repl = MultiPoly.coerce(replacement)
        idx = _VAR_INDEX[var]
        # cache powers of the replacement; exponents are tiny in practice
        powers: dict[int, MultiPoly] = {0: MultiPoly.constant(1)}

        def power(n: int) -> MultiPoly:
            if n not in powers:
                powers[n] = power(n - 1) * repl
            return powers[n]

        out = MultiPoly.zero()
        for exp, coeff in self.terms.items():
            rest = list(exp)
            e = rest[idx]
            rest[idx] = 0
            out = out + power(e) * MultiPoly.monomial(tuple(rest), coeff)
        return out

    def eval_exact(self, point: tuple) -> Scalar:
        """Exact value at a point of Scalars (or ints/Fractions)."""
        px, py, pz = (_as_scalar(v) for v in point)
        total = Scalar(0)
        for (i, j, k), coeff in self.terms.items():
            v = coeff
            for base, e in ((px, i), (py, j), (pz, k)):
                for _ in range(e):
                    v = v * base
            total = total + v
        return total

    def eval_float(self, point: tuple[float, float, float],
                   m_float: float | None = None) -> float:
        """Floating value; sqrt(m) coefficients are embedded numerically."""
        x, y, z = point
        total = 0.0
        for (i, j, k), coeff in self.terms.items():
            if coeff.q == 0:
                c = float(coeff.p)
            else:
                mf = float(coeff.m) if m_float is None else m_float
                c = float(coeff.p) + float(coeff.q) * math.sqrt(mf)
            total += c * x**i * y**j * z**k
        return total

    # -- univariate views ----------------------------------------------------

    def var_degree(self, var: str) -> int | float:
        idx = _VAR_INDEX[var]
        if not self.terms:
            return NEG_INF
        return max(exp[idx] for exp in self.terms)

    def coefficients_in(self, var: str) -> dict[int, "MultiPoly"]:
        """View as a polynomial in ``var``: degree -> coefficient polynomial."""
        idx = _VAR_INDEX[var]
        out: dict[int, dict[Exponent, Scalar]] = {}
        for exp, coeff in self.terms.items():
            rest = list(exp)
            e = rest[idx]
            rest[idx] = 0
            out.setdefault(e, {})[tuple(rest)] = coeff
        return {e: MultiPoly(t) for e, t in sorted(out.items())}

    def min_var_exponent(self, var: str) -> int:
        idx = _VAR_INDEX[var]
        if not self.terms:
            raise ValueError("zero polynomial")
        return min(exp[idx] for exp in self.terms)


X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
Z = MultiPoly.variable("z")
ONE = MultiPoly.constant(1)


def divide_exact(dividend: MultiPoly, divisor: MultiPoly, var: str = "z") -> MultiPoly:
    """Exact division along one variable.

    The divisor, viewed in Q(sqrt(m))[rest][var], must have a nonzero Scalar
    as its leading coefficient (true for F, z, z - k, y - t*x, a*x + b*y).
    Raises :class:`NotDivisible` when a remainder survives.
    """
    if divisor.is_zero():
        raise MalformedDivisor("division by the zero polynomial")
    div_coeffs = divisor.coefficients_in(var)
    d_deg = max(div_coeffs)
    lead = div_coeffs[d_deg]
    if not lead.is_scalar():
        raise MalformedDivisor(
            f"divisor is not monic-izable in {var}: leading coefficient {lead!r}")
    lead_inv = lead.constant_value().inverse()

    idx = _VAR_INDEX[var]
    rem = dividend
    quot = MultiPoly.zero()
    while not rem.is_zero():
        r_deg = rem.var_degree(var)
        if r_deg < d_deg:
            raise NotDivisible(f"remainder of {var}-degree {r_deg} left")
        r_lead = MultiPoly({exp: c for exp, c in rem.terms.items()
                            if exp[idx] == r_deg})
        # strip var^r_deg from the leading slice, re-attach var^(r_deg-d_deg)
        stripped = {}
        for exp, c in r_lead.terms.items():
            e = list(exp)
            e[idx] = r_deg - d_deg
            stripped[tuple(e)] = c
        q_term = MultiPoly(stripped).scale(lead_inv)
        quot = quot + q_term
        rem = rem - q_term * divisor
    return quot


def divide_exact_z(dividend: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    return divide_exact(dividend, divisor, "z")


def divides(divisor: MultiPoly, p: MultiPoly, var: str = "z") -> bool:
    try:
        divide_exact(p, divisor, var)
        return True
    except NotDivisible:
        return False


class UniPoly:
    """Dense univariate polynomial, ascending Scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar | int | Fraction] = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else Scalar(0)
            b = other.coeffs[i] if i < len(other.coeffs) else Scalar(0)
            out.append(a + b)
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Scalar(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, factor: Scalar | int | Fraction) -> "UniPoly":
        factor = _as_scalar(factor)
        return UniPoly([c * factor for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def eval(self, t: Scalar | int | Fraction) -> Scalar:
        t = _as_scalar(t)
        acc = Scalar(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_floats(self) -> list[float]:
        return [c.to_float() for c in self.coeffs]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        lead_inv = other.coeffs[-1].inverse()
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        quot = [Scalar(0)] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * lead_inv
            k = len(rem) - 1 - d
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return UniPoly(quot), UniPoly(rem)


def unipoly_gcd(polys: list[UniPoly]) -> UniPoly:
    """Monic gcd over the scalar field Q(sqrt(m)); never raises.

    Square m is folded to rationals by Scalar, so every nonzero leading
    coefficient is invertible.
    """
    g = UniPoly()
    for p in polys:
        if p.is_zero():
            continue
        a, b = g, p
        while not b.is_zero():
            _, r = a.divmod(b)
            a, b = b, r
        g = a.monic()
        if g.degree == 0:
            return g
    return g


def restrict_to_line(p: MultiPoly) -> list[UniPoly]:
    """Coefficient polynomials of p(x, t*x, z) grouped by x^alpha * z^k.

    Substituting ``y := t*x`` sends the monomial ``x^i y^j z^k`` to
    ``t^j * x^(i+j) z^k``; the result is one polynomial in t per surviving
    group ``(i + j, k)``.  The divisor ``y - t0*x`` divides p exactly when
    every returned polynomial vanishes at t0.  Divisibility by x itself must
    be tested separately (every group keeps a positive x power).
    """
    groups: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k), coeff in p.terms.items():
        slot = groups.setdefault((i + j, k), {})
        acc = slot.get(j)
        coeff = coeff if acc is None else acc + coeff
        slot[j] = coeff
    out = []
    for key in sorted(groups):
        slot = groups[key]
        size = max(slot) + 1
        coeffs = [slot.get(d, Scalar(0)) for d in range(size)]
        u = UniPoly(coeffs)
        if not u.is_zero():
            out.append(u)
    return out
