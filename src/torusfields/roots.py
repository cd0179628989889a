"""Exact real root isolation over Q(sqrt(m)).

:func:`real_roots` splits a polynomial into square-free parts with Yun's
algorithm, divides out the rational roots of each part (returned as exact
Fractions; the search has a coefficient-size limit) and isolates the
remaining roots with an exact Sturm sequence.
Every sign in the Sturm walk is :meth:`Scalar.sign` at a rational point, so
no tolerance decides a root count; this is the exact bisection scheme of
Collins & Akritas (1976), with Sturm counts in place of Descartes' rule.
Multiplicities are the exponents of the square-free decomposition, which for
an extactic gcd are the curve multiplicities of Christopher, Llibre and
Pereira, Pacific J. Math. 229 (2007).  Floats enter only to polish a root
inside the interval its Sturm count certified.

Square m is folded to rationals by :class:`Scalar`, so Q(sqrt(m)) is a field
and every gcd and division here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import UniPoly, unipoly_gcd

REFINE_TOL = 1e-12
RATIONAL_ROOT_LIMIT = 10**6   # larger end coefficients skip the rational-root search


def _eval(coeffs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _bisect(coeffs: list[float], lo: float, hi: float) -> float:
    """Float bisection of a sign change of the polynomial in [lo, hi]."""
    neg_lo = _eval(coeffs, lo) < 0
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = _eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _polish(coeffs: list[float], lo: float, hi: float) -> float:
    """Bisection then Newton steps, never leaving [lo, hi]."""
    r = _bisect(coeffs, lo, hi)
    deriv = [c * i for i, c in enumerate(coeffs)][1:]
    for _ in range(5):
        d = _eval(deriv, r)
        if d == 0.0:
            break
        nxt = r - _eval(coeffs, r) / d
        if not lo <= nxt <= hi:
            break
        r = nxt
    return r


def square_free_parts(u: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's decomposition: u = c * prod(a_i^i) with monic, square-free,
    pairwise coprime a_i of degree >= 1, returned as (a_i, i)."""
    if u.degree < 1:
        return []
    du = u.derivative()
    g = unipoly_gcd([u, du])
    if g.degree == 0:
        return [(u.monic(), 1)]
    c = u.divmod(g)[0]
    d = du.divmod(g)[0] - c.derivative()
    parts = []
    i = 1
    while c.degree >= 1:
        a = unipoly_gcd([c, d])
        c = c.divmod(a)[0]
        d = d.divmod(a)[0] - c.derivative()
        if a.degree >= 1:
            parts.append((a, i))
        i += 1
    return parts


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


def _rational_root_candidates(g: UniPoly) -> tuple[list[int], set[Fraction]]:
    """Integer shadow of g and the rational-root-theorem candidates.

    A rational t is a root of g = A + B*sqrt(m) only if A(t) = B(t) = 0, so
    the shadow is A, or B when A vanishes.
    """
    shadow = [c.p for c in g.coeffs]
    if all(v == 0 for v in shadow):
        shadow = [c.q for c in g.coeffs]
    denom = math.lcm(*(v.denominator for v in shadow))
    ints = [int(v * denom) for v in shadow]
    candidates: set[Fraction] = set()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        candidates.add(Fraction(0))
    if low >= len(ints) - 1:
        return ints, candidates
    a0, an = ints[low], ints[-1]
    if abs(a0) > RATIONAL_ROOT_LIMIT or abs(an) > RATIONAL_ROOT_LIMIT:
        return ints, candidates
    for num in _divisors(a0):
        for den in _divisors(an):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    return ints, candidates


def _rational_roots(g: UniPoly) -> list[Fraction]:
    ints, candidates = _rational_root_candidates(g)
    out = []
    for r in sorted(candidates):
        # cheap integer test of the shadow, then the exact value of g
        num, den = r.numerator, r.denominator
        if sum(c * num**k * den**(len(ints) - 1 - k)
               for k, c in enumerate(ints)) == 0 and g.eval(r).is_zero():
            out.append(r)
    return out


class _RationalHit(Exception):
    """A Sturm evaluation point (args[0]) is a root of the polynomial."""


def _sturm_roots(s: UniPoly, interval: tuple[Fraction, Fraction] | None) -> list[float]:
    """Roots of the square-free s in the closed interval (None: the line).

    Raises _RationalHit when an evaluation point is a root of s.
    """
    chain = [s, s.derivative()]
    while chain[-1].degree >= 1:
        chain.append(-chain[-2].divmod(chain[-1])[1])

    def variations(signs: list[int]) -> int:
        signs = [v for v in signs if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def count(t: Fraction) -> int:
        head = s.eval(t).sign()
        if head == 0:
            raise _RationalHit(t)
        return variations([head] + [p.eval(t).sign() for p in chain[1:]])

    if interval is None:
        v_neg = variations([p.coeffs[-1].sign() * (-1) ** p.degree for p in chain])
        v_pos = variations([p.coeffs[-1].sign() for p in chain])
        if v_neg == v_pos:
            return []
        # double until (-b, b) holds every root
        b = Fraction(1)
        while count(-b) != v_neg or count(b) != v_pos:
            b *= 2
        lo, hi, v_lo, v_hi = -b, b, v_neg, v_pos
    else:
        lo, hi = interval
        v_lo, v_hi = count(lo), count(hi)

    coeffs = s.to_floats()
    roots = []
    stack = [(lo, hi, v_lo, v_hi)]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            # one simple root: s changes sign across (a, b)
            roots.append(_polish(coeffs, float(a), float(b)))
        elif va - vb > 1:
            mid = (a + b) / 2
            vm = count(mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
    return sorted(roots)


def real_roots(u: UniPoly, interval: tuple | None = None
               ) -> list[tuple[Fraction | float, int]]:
    """Distinct real roots of u in the closed interval, ascending, with
    multiplicities; ``interval=None`` means the whole line.

    A rational root is an exact Fraction when it is the root of a degree-1
    square-free part, when a Sturm evaluation point lands on it, or when the
    rational-root search finds it; that search skips parts whose integer
    shadow has an end coefficient above RATIONAL_ROOT_LIMIT, so a rational
    root of such a part of degree >= 2 can come back as a float.  Any other
    root is a float polished inside an isolating interval certified by an
    exact Sturm count.
    """
    if u.is_zero():
        raise ValueError("real_roots of the zero polynomial")
    if u.degree < 1:
        return []
    bounds = None if interval is None else tuple(Fraction(t) for t in interval)
    out: list[tuple[Fraction | float, int]] = []
    for part, mult in square_free_parts(u):
        found: list[Fraction | float] = []
        for r in _rational_roots(part):
            if bounds is None or bounds[0] <= r <= bounds[1]:
                found.append(r)
            part = part.divmod(UniPoly([-r, 1]))[0]
        while part.degree >= 1:
            if part.degree == 1:
                root = -part.coeffs[0] / part.coeffs[1]
                if root.is_rational():
                    if bounds is None or bounds[0] <= root.p <= bounds[1]:
                        found.append(root.p)
                    break
            try:
                found += _sturm_roots(part, bounds)
                break
            except _RationalHit as hit:
                t = hit.args[0]
                found.append(t)
                part = part.divmod(UniPoly([-t, 1]))[0]
        out += [(r, mult) for r in found]
    return sorted(out, key=lambda rm: rm[0])


def dense_scan_roots(u: UniPoly, interval: tuple[float, float],
                     samples: int = 4096) -> list[tuple[float, int]]:
    """Float cross-check of :func:`real_roots`: sign changes of each exact
    square-free part on a uniform grid of the interval, bisected."""
    lo, hi = interval
    step = (hi - lo) / samples
    out = []
    for part, mult in square_free_parts(u):
        coeffs = part.to_floats()
        prev = None
        for i in range(samples + 1):
            t = lo + i * step
            v = _eval(coeffs, t)
            if v == 0.0:
                out.append((t, mult))
            elif prev and (prev < 0) != (v < 0):
                out.append((_bisect(coeffs, t - step, t), mult))
            prev = v
    return sorted(out)
