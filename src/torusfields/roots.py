"""Exact real root isolation over Q(sqrt(m)).

:func:`real_roots` splits a polynomial into square-free parts with Yun's
algorithm, divides out the rational roots of each part (returned as exact
Fractions; past the search's coefficient-size limit the Sturm isolation
finds them) and isolates the remaining roots with an exact Sturm sequence.
Two short cuts come first.  The power of 1 + t^2 that divides the
polynomial is divided out before Yun's algorithm, found by the value at
t = i (alternating sums of the integer numerators) and removed by synthetic
division; on the torus it is the x^2 + y^2 of the extactic polynomial
restricted to a line, and it has no real root.  What is left is solved in
closed form, with no decomposition, when it has rational coefficients and
degree <= 2 and its roots are rational or non-real: a zero discriminant
gives one root of multiplicity 2.  Otherwise each part of degree 1 or 2
with rational coefficients is solved in closed form the same way, before
the rational-root search and again after it; only irrational quadratics,
parts with sqrt(m) coefficients and parts of degree >= 3 reach the search
and the Sturm sequence.
The Sturm sequence is the primitive remainder sequence of
:mod:`torusfields.poly` on the integer numerators, each remainder negated
up to a positive factor.  Its signs at ``t = a/b`` come from integer Horner
on the homogenised numerators, which gives ``A + B*sqrt(s)``, a positive
multiple of the value; when A and B differ in sign, ``A^2`` is compared with
``B^2*s``.  So no tolerance decides a root count; this is the exact
bisection scheme of Collins & Akritas (1976), with Sturm counts in place of
Descartes' rule.
Multiplicities are the exponents of the square-free decomposition, which for
an extactic gcd are the curve multiplicities of Christopher, Llibre and
Pereira, Pacific J. Math. 229 (2007).  Floats enter only to polish a root
inside the interval its Sturm count certified, on the coefficients of the
part with its factor of 1 + t^2 restored, so no float depends on the
short cuts.

Square m is folded to rationals by :class:`Scalar`, so Q(sqrt(m)) is a field
and every gcd and division here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import UniPoly, _uni, prs_remainder, radicand, unipoly_gcd

REFINE_TOL = 1e-12
RATIONAL_ROOT_LIMIT = 10**6   # larger end coefficients skip the rational-root search
_ONE_PLUS_T2 = UniPoly([1, 0, 1])


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
    if u.degree < 2:
        return [(u.monic(), 1)] if u.degree == 1 else []
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


def _sign(a: int, b: int, s: int) -> int:
    """Exact sign of a + b*sqrt(s) for a non-square s."""
    sa = (a > 0) - (a < 0)
    if not b:
        return sa
    sb = 1 if b > 0 else -1
    if sa == 0 or sa == sb:
        return sb
    # opposite signs: a^2 = b^2 s is impossible for non-square s
    return sa if a * a > b * b * s else sb


def _horner(cs: list[int], num: int, den: int) -> int:
    """den^n * sum(cs[k] * (num/den)^k) with n = len(cs) - 1, in integers."""
    if not cs:
        return 0
    it = reversed(cs)
    acc = next(it)
    scale = 1
    for c in it:
        scale *= den
        acc = acc * num + c * scale
    return acc


def _values_at(pq: tuple[list[int], list[int]], t: Fraction) -> tuple[int, int]:
    """(A, B) with A + B*sqrt(s) a positive multiple of the value at t."""
    p, q = pq
    return _horner(p, t.numerator, t.denominator), _horner(q, t.numerator, t.denominator)


def _shadow(g: UniPoly) -> list[int]:
    """The integer shadow of g: a rational t is a root of g = A + B*sqrt(m)
    only if A(t) = B(t) = 0, so the shadow is A, or B when A vanishes,
    scaled to the least integers with the same ratios."""
    shadow = g.p if any(g.p) else [c * g.m.denominator for c in g.q]
    content = math.gcd(g.den, *shadow)
    return [c // content for c in shadow]


def _unsearched_lead(ints: list[int]) -> int | None:
    """|leading coefficient| of the integer shadow ``ints`` when an end
    coefficient exceeds RATIONAL_ROOT_LIMIT, so the rational-root search
    skips it; None when the search runs.  The denominator of every rational
    root then divides the returned value."""
    low = next((i for i, c in enumerate(ints) if c), len(ints))
    if low >= len(ints) - 1 or (abs(ints[low]) <= RATIONAL_ROOT_LIMIT
                                and abs(ints[-1]) <= RATIONAL_ROOT_LIMIT):
        return None
    return abs(next(c for c in reversed(ints) if c))


def _rational_root_candidates(g: UniPoly) -> list[tuple[int, int]]:
    """Candidates (num, den) of the rational-root theorem for the integer
    shadow of g, each in lowest terms with den > 0 and each once."""
    ints = _shadow(g)
    candidates: list[tuple[int, int]] = []
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        candidates.append((0, 1))
    if low >= len(ints) - 1 or _unsearched_lead(ints) is not None:
        return candidates
    a0, an = ints[low], ints[-1]
    dens = set(_divisors(an))
    for num in set(_divisors(a0)):
        for den in dens:
            if math.gcd(num, den) == 1:
                candidates += ((num, den), (-num, den))
    return candidates


def _rational_roots(g: UniPoly) -> list[Fraction]:
    return sorted(Fraction(num, den) for num, den in _rational_root_candidates(g)
                  if not _horner(g.p, num, den) and not _horner(g.q, num, den))


class _RationalHit(Exception):
    """A Sturm evaluation point (args[0]) is a root of the polynomial."""


def _sturm_roots(s: UniPoly, interval: tuple[Fraction, Fraction] | None,
                 lead: int | None = None, polish: UniPoly | None = None
                 ) -> list[float]:
    """Roots of the square-free s in the closed interval (None: the line).

    Raises _RationalHit when an evaluation point is a root of s.  With
    ``lead``, a bound that every rational root's denominator divides, each
    isolating interval is also bisected below 1/(2*lead^2): two fractions
    with denominators <= lead lie at least 1/lead^2 apart, so a rational root
    in it is the fraction nearest its midpoint, and that fraction is tried.
    Floats are polished on ``polish`` (default s), a multiple of s with no
    further real root.
    """
    r = radicand(s.m)
    deriv = s.derivative()
    chain = [(s.p, s.q), (deriv.p, deriv.q)]
    while len(chain[-1][0]) >= 2:
        rp, rq, sign = prs_remainder(chain[-2], chain[-1], r)
        # the next member is minus the remainder, up to a positive factor
        if sign > 0:
            rp, rq = [-c for c in rp], [-c for c in rq]
        chain.append((rp, rq))

    def variations(signs: list[int]) -> int:
        signs = [v for v in signs if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def head(t: Fraction) -> int:
        sign = _sign(*_values_at(chain[0], t), r)
        if sign == 0:
            raise _RationalHit(t)
        return sign

    def count(t: Fraction) -> int:
        return variations([head(t)] + [_sign(*_values_at(pq, t), r) for pq in chain[1:]])

    def try_rational(a: Fraction, b: Fraction) -> None:
        """Raise _RationalHit at the root in (a, b) if it is rational."""
        sign_a, width = head(a), Fraction(1, 2 * lead * lead)
        while b - a >= width:
            mid = (a + b) / 2
            if head(mid) == sign_a:
                a = mid
            else:
                b = mid
        t = ((a + b) / 2).limit_denominator(lead)
        if a < t < b:
            head(t)

    # sign of each member's leading coefficient, and at -inf
    v_lead = [_sign(p[-1], q[-1] if q else 0, r) for p, q in chain]
    v_odd = [v * (-1) ** (len(p) - 1) for v, (p, _) in zip(v_lead, chain)]

    if interval is None:
        v_neg, v_pos = variations(v_odd), variations(v_lead)
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

    coeffs = (s if polish is None else polish).to_floats()
    roots = []
    stack = [(lo, hi, v_lo, v_hi)]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            # one simple root: s changes sign across (a, b)
            if lead is not None:
                try_rational(a, b)
            roots.append(_polish(coeffs, float(a), float(b)))
        elif va - vb > 1:
            mid = (a + b) / 2
            vm = count(mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
    return sorted(roots)


def _has_factor_one_plus_t2(c: list[int]) -> bool:
    """Whether 1 + t^2 divides the integer polynomial c (ascending; [] is
    zero): whether c(i) = 0, whose real and imaginary parts are alternating
    sums of the coefficients of even and of odd degree."""
    return sum(c[0::4]) == sum(c[2::4]) and sum(c[1::4]) == sum(c[3::4])


def _over_one_plus_t2(c: list[int]) -> list[int]:
    """c / (1 + t^2) by synthetic division, for c that 1 + t^2 divides."""
    quotient = c[2:]
    for i in range(len(quotient) - 3, -1, -1):
        quotient[i] -= quotient[i + 2]
    return quotient


def _divide_out_one_plus_t2(u: UniPoly) -> tuple[UniPoly, int]:
    """(u / (1 + t^2)^k, k) with k the largest power of 1 + t^2 dividing u."""
    p, q, k = u.p, u.q, 0
    while len(p) >= 3 and _has_factor_one_plus_t2(p) and _has_factor_one_plus_t2(q):
        p, q, k = _over_one_plus_t2(p), q and _over_one_plus_t2(q), k + 1
    return (_uni(p, q, u.den, u.m) if k else u), k


def _closed_form_roots(u: UniPoly) -> list[tuple[Fraction, int]] | None:
    """Real roots of ``u`` in closed form, ascending, with multiplicities:
    [] for a constant, one Fraction for a linear u with rational
    coefficients, and for a rational quadratic none when its discriminant is
    negative, a double root when it is 0 and two Fractions when it is a
    square.  None otherwise (irrational roots, sqrt(m) coefficients or
    degree >= 3)."""
    if u.degree < 1:
        return []
    if u.degree > 2 or u.q:
        return None
    if u.degree == 1:
        return [(Fraction(-u.p[0], u.p[1]), 1)]
    # c + b*t + a*t^2 has the roots (-b +- sqrt(disc))/(2*a)
    c, b, a = u.p
    disc = b * b - 4 * a * c
    if disc <= 0:
        return [(Fraction(-b, 2 * a), 2)] if disc == 0 else []
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    if a < 0:
        a, b = -a, -b
    return [(Fraction(-b - root, 2 * a), 1), (Fraction(-b + root, 2 * a), 1)]


def real_roots(u: UniPoly, interval: tuple | None = None
               ) -> list[tuple[Fraction | float, int]]:
    """Distinct real roots of u in the closed interval, ascending, with
    multiplicities; ``interval=None`` means the whole line.

    The power of 1 + t^2 that divides u is divided out first: it has no
    real root.  If the rest has rational coefficients and degree <= 2 and
    no irrational root, :func:`_closed_form_roots` gives its roots and
    multiplicities with no square-free decomposition.  Otherwise a
    square-free part of degree <= 2 with rational coefficients is solved in
    the same closed form, before the rational-root search and again after
    each rational root is divided out.
    A rational root is an exact Fraction when the closed form gives it, when
    a Sturm evaluation point lands on it, or when the rational-root search
    finds it; that search skips parts whose integer shadow has an end
    coefficient above RATIONAL_ROOT_LIMIT, and the Sturm isolation of such a
    part tries the one fraction each isolating interval can hold
    (:func:`_sturm_roots`).  Any other root is a float polished inside an
    isolating interval certified by an exact Sturm count, on the part's
    coefficients with its factor of 1 + t^2 restored, so the floats are
    those of the undivided decomposition.
    """
    if u.is_zero():
        raise ValueError("real_roots of the zero polynomial")
    bounds = None if interval is None else tuple(Fraction(t) for t in interval)
    u, k = _divide_out_one_plus_t2(u)
    closed = _closed_form_roots(u)
    if closed is not None:
        return [(r, mult) for r, mult in closed
                if bounds is None or bounds[0] <= r <= bounds[1]]
    out: list[tuple[Fraction | float, int]] = []
    for part, mult in square_free_parts(u):
        floats: list[float] = []
        found: list[Fraction] = []
        if (closed := _closed_form_roots(part)) is None:
            lead = _unsearched_lead(_shadow(part))
            found = _rational_roots(part)
            for r in found:
                part = part.divmod(UniPoly([-r, 1]))[0]
            while (closed := _closed_form_roots(part)) is None:
                try:
                    floats = _sturm_roots(part, bounds, lead,
                                          part * _ONE_PLUS_T2 if mult == k else None)
                    break
                except _RationalHit as hit:
                    found.append(hit.args[0])
                    part = part.divmod(UniPoly([-hit.args[0], 1]))[0]
        found += [r for r, _ in closed or ()]
        out += [(r, mult) for r in found if bounds is None or bounds[0] <= r <= bounds[1]]
        out += [(r, mult) for r in floats]
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
