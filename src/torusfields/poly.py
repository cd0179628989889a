"""Sparse trivariate polynomials over Q(sqrt(m)), plus univariate helpers.

Polynomials are fraction-free.  Write ``m = mn/md`` in lowest terms and
``s = mn*md``.  :class:`~torusfields.scalars.Scalar` folds sqrt(m) to a
rational when m is a rational square, so a polynomial that keeps a sqrt part
has a non-square m, hence a non-square s, and ``sqrt(m) = sqrt(s)/md``.  A
polynomial stores, per term, a pair of Python ints ``(p, q)`` over one
positive integer denominator ``den`` shared by all its terms; the
coefficient is ``(p + q*sqrt(s))/den``.  Products of numerators stay in
``Z[sqrt(s)]``: ``(p1 + q1*sqrt(s))(p2 + q2*sqrt(s)) = (p1*p2 + q1*q2*s)
+ (p1*q2 + q1*p2)*sqrt(s)``, so no operation builds a Fraction per term.

Every result is reduced once: the gcd of ``den`` and all numerators is
divided out and zero terms are dropped.  That form is canonical, so
structural equality is polynomial identity; the hash is computed once and
cached.  The parameter m is carried only while some ``q`` is nonzero; it is
part of equality and hash, and combining polynomials that carry different
m raises :class:`~torusfields.scalars.MixedExtensionError`, as for Scalars.

:class:`MultiPoly` maps exponent triples ``(i, j, k)`` (powers of x, y, z) to
coefficients; :attr:`MultiPoly.terms` is a read-only ``exp -> Scalar`` view
built on first use, and :meth:`MultiPoly.int_terms` reads each coefficient's
reduced rational and sqrt(m) parts as int pairs, with no Scalar.
:class:`UniPoly` is a dense univariate polynomial (ascending coefficients)
for restrictions of a MultiPoly to one variable:
the slope parameter t of a meridian plane, or z for parallel planes.  Its
gcd is a primitive polynomial remainder sequence (Collins 1967; Brown &
Traub 1971) on the integer numerators: each pseudo-remainder has its
integer content divided out, and the gcd is made monic only at the end.
Values are immutable after construction; every operation returns a fresh
polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .scalars import Scalar, _merge_m

Exponent = tuple[int, int, int]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
_CONST = (0, 0, 0)
NEG_INF = float("-inf")


def radicand(m: Fraction | None) -> int:
    """s = mn*md, so that sqrt(m) = sqrt(s)/md (0 when there is no sqrt part)."""
    return m.numerator * m.denominator if m is not None else 0


_F0 = Fraction(0)


def _to_scalar(p: int, q: int, den: int, m: Fraction | None) -> Scalar:
    """The Scalar (p + q*sqrt(s))/den."""
    rational = Fraction(p) if den == 1 else Fraction(p, den)
    if not q:
        return Scalar._make(rational, _F0, None)
    return Scalar._make(rational, Fraction(q * m.denominator, den), m)


def _to_float(p: int, q: int, den: int, md: int, root: float) -> float:
    """float(p/den) + float(q*md/den)*root, as Scalar.to_float rounds it."""
    if not q:
        return p / den
    return p / den + (q * md) / den * root


def _ints_of(pairs: Iterable[tuple[object, Scalar | int | Fraction]]
             ) -> tuple[dict, dict, int, Fraction | None]:
    """Numerators over the least common denominator of (key, value) pairs."""
    m = None
    ps: list[tuple[object, Fraction]] = []
    qs: list[tuple[object, Fraction]] = []
    for key, c in pairs:
        if not isinstance(c, Scalar):
            if c:
                ps.append((key, c if type(c) in (int, Fraction) else Fraction(c)))
            continue
        if c.p:
            ps.append((key, c.p))
        if c.q:
            m = _merge_m(m, c.m)
            qs.append((key, c.q))
    if qs:
        md = m.denominator
        qs = [(key, Fraction(v.numerator, v.denominator * md)) for key, v in qs]
    den = math.lcm(*(v.denominator for _, v in ps), *(v.denominator for _, v in qs))
    return ({key: v.numerator * (den // v.denominator) for key, v in ps},
            {key: v.numerator * (den // v.denominator) for key, v in qs}, den, m)


def _conv_into(out: dict, x: dict, y: dict, factor: int = 1) -> None:
    """out += factor * x * y, numerator dicts keyed by exponent triples."""
    get = out.get
    for (i1, j1, k1), c1 in x.items():
        if factor != 1:
            c1 *= factor
        for (i2, j2, k2), c2 in y.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            out[e] = get(e, 0) + c1 * c2


def _chi_into(p: dict, q: dict, field, f: "MultiPoly", sign: int, den: int,
              s: int) -> None:
    """(p, q) += sign * den * sum_j X_j * (the j-th partial derivative of f)
    on (p, q) numerator dicts, for the components X_j of ``field``; den is a
    multiple of each ``X_j._den * f._den``.  Each term of f is differentiated
    inside the product loop, so no derivative is built."""
    for idx, x in enumerate(field):
        factor = sign * (den // (x._den * f._den))
        convs = ((p, x._p, f._p, factor),)
        if x._q or f._q:
            convs += ((p, x._q, f._q, factor * s), (q, x._p, f._q, factor),
                      (q, x._q, f._p, factor))
        for out, xd, fd, k in convs:
            get = out.get
            for e1, c1 in fd.items():
                d = e1[idx]
                if d:
                    c1 *= d * k
                    i1, j1, k1 = e1[0] - (idx == 0), e1[1] - (idx == 1), e1[2] - (idx == 2)
                    for (i2, j2, k2), c2 in xd.items():
                        e = (i1 + i2, j1 + j2, k1 + k2)
                        out[e] = get(e, 0) + c1 * c2


def _nonzero(d: dict) -> dict:
    return {e: c for e, c in d.items() if c} if 0 in d.values() else d


def _scaled(d: dict, factor: int) -> dict:
    return {e: c * factor for e, c in d.items()} if factor != 1 else dict(d)


def _shift_into(out: dict, d: dict, shift: Exponent, factor: int) -> None:
    """out += factor * d with every exponent moved by ``shift``, on numerator
    dicts (``factor`` nonzero, as every entry of d is); entries that cancel
    are dropped."""
    a, b, c = shift
    get = out.get
    for (i, j, k), v in d.items():
        e = (i + a, j + b, k + c)
        w = get(e, 0) + v * factor
        if w:
            out[e] = w
        else:
            del out[e]


def _poly(p: dict, q: dict, den: int, m: Fraction | None) -> "MultiPoly":
    """MultiPoly from numerators without zero entries, content divided out."""
    if not q:
        m = None
        if not p:
            den = 1
    if den != 1:
        g = math.gcd(den, *p.values(), *q.values())
        if g != 1:
            den //= g
            p = {e: c // g for e, c in p.items()}
            q = {e: c // g for e, c in q.items()}
    out = object.__new__(MultiPoly)
    out._p = p
    out._q = q
    out._den = den
    out.m = m
    out._hash = None
    out._terms = None
    return out


def _mul_into(p: dict, q: dict, a: tuple[dict, dict], b: tuple[dict, dict],
              factor: int, s: int) -> None:
    """(p, q) += factor * a * b on (p, q) numerator dicts."""
    (ap, aq), (bp, bq) = a, b
    _conv_into(p, ap, bp, factor)
    if aq or bq:
        _conv_into(p, aq, bq, factor * s)
        _conv_into(q, ap, bq, factor)
        _conv_into(q, aq, bp, factor)


class MultiPoly:
    """Sparse polynomial in x, y, z over Q(sqrt(m)), integer numerators."""

    __slots__ = ("_p", "_q", "_den", "m", "_hash", "_terms")

    def __init__(self, terms: Mapping[Exponent, Scalar | int | Fraction] | None = None):
        p, q, den, m = _ints_of(terms.items() if terms else ())
        self._p, self._q, self._den, self.m = p, q, den, m if q else None
        self._hash = None
        self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _poly({}, {}, 1, None)

    @classmethod
    def constant(cls, value: Scalar | int | Fraction) -> "MultiPoly":
        return cls.monomial(_CONST, value)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        exp = [0, 0, 0]
        exp[_VAR_INDEX[name]] = 1
        return _poly({tuple(exp): 1}, {}, 1, None)

    @classmethod
    def monomial(cls, exp: Exponent, coeff: Scalar | int | Fraction = 1) -> "MultiPoly":
        if type(coeff) is int:
            return _poly({exp: coeff} if coeff else {}, {}, 1, None)
        if type(coeff) is Fraction:
            return _poly({exp: coeff.numerator} if coeff else {}, {},
                         coeff.denominator, None)
        return cls({exp: coeff})

    @classmethod
    def coerce(cls, value: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return cls.constant(value)

    # -- basic structure ---------------------------------------------------

    def _keys(self):
        return self._p.keys() | self._q.keys() if self._q else self._p.keys()

    @property
    def terms(self) -> dict[Exponent, Scalar]:
        """exp -> nonzero Scalar coefficient; built on first use, read-only."""
        if self._terms is None:
            p, q, den, m = self._p, self._q, self._den, self.m
            self._terms = {e: _to_scalar(p.get(e, 0), q.get(e, 0), den, m)
                           for e in self._keys()}
        return self._terms

    def int_terms(self) -> Iterator[tuple[Exponent, tuple[int, int], tuple[int, int]]]:
        """``(exp, (pn, pd), (qn, qd))`` per term, unordered: the coefficient
        is ``pn/pd + (qn/qd)*sqrt(m)``, each pair in lowest terms with a
        positive denominator, ``(0, 1)`` for an absent part."""
        p, q, den = self._p, self._q, self._den
        md = self.m.denominator if q else 1
        gcd = math.gcd
        for e in self._keys():
            pn, qn = p.get(e, 0), q.get(e, 0) * md
            g = gcd(pn, den)
            h = gcd(qn, den)
            yield e, (pn // g, den // g), (qn // h, den // h)

    @property
    def degree(self) -> int | float:
        """Total degree; -inf for the zero polynomial."""
        return max(map(sum, self._keys()), default=NEG_INF)

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def is_scalar(self) -> bool:
        return all(e == _CONST for e in self._keys())

    def constant_value(self) -> Scalar:
        """The coefficient of the constant monomial (zero if absent)."""
        return self.coefficient(_CONST)

    def coefficient(self, exp: Exponent) -> Scalar:
        return _to_scalar(self._p.get(exp, 0), self._q.get(exp, 0), self._den, self.m)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Scalar, int, Fraction)):
            other = MultiPoly.constant(other)
        if isinstance(other, MultiPoly):
            return (self._den == other._den and self._p == other._p
                    and self._q == other._q and self.m == other.m)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._p.items()), frozenset(self._q.items()),
                               self._den, self.m))
        return self._hash

    def __iter__(self) -> Iterator[tuple[Exponent, Scalar]]:
        return iter(self.terms.items())

    def __repr__(self) -> str:
        from .parsing import serialize

        return f"MultiPoly({serialize(self)!r})"

    # -- ring operations ---------------------------------------------------

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign*other over the least common denominator."""
        m = _merge_m(self.m, other.m)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        ka, kb = db // g, da // g
        kb *= sign
        out = []
        for x, y in ((self._p, other._p), (self._q, other._q)):
            acc = _scaled(x, ka)
            for e, c in y.items():
                v = acc.get(e, 0) + c * kb
                if v:
                    acc[e] = v
                else:
                    del acc[e]
            out.append(acc)
        return _poly(out[0], out[1], da * ka, m)

    def __add__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        return self._combine(MultiPoly.coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _poly({e: -c for e, c in self._p.items()},
                     {e: -c for e, c in self._q.items()}, self._den, self.m)

    def __sub__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        return self._combine(MultiPoly.coerce(other), -1)

    def __rsub__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        return MultiPoly.coerce(other)._combine(self, -1)

    def __mul__(self, other: "MultiPoly | Scalar | int | Fraction") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        return sum_of_products(((self, other),))

    def __rmul__(self, other: "Scalar | int | Fraction") -> "MultiPoly":
        return self.scale(other)

    def scale(self, factor: Scalar | int | Fraction) -> "MultiPoly":
        if isinstance(factor, Scalar):
            if factor.q:
                return self * MultiPoly.constant(factor)
            factor = factor.p
        elif not isinstance(factor, (int, Fraction)):
            factor = Fraction(factor)      # a float, converted exactly
        if not factor:
            return MultiPoly.zero()
        num, den = factor.numerator, factor.denominator
        return _poly(_scaled(self._p, num), _scaled(self._q, num),
                     self._den * den, self.m)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
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
        return _poly(_derivative(self._p, idx), _derivative(self._q, idx),
                     self._den, self.m)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self._keys()}) <= 1

    def eval_exact(self, point: tuple) -> Scalar:
        """Exact value at a point of Scalars (or ints/Fractions)."""
        px, py, pz = (Scalar.coerce(v) for v in point)
        total = Scalar(0)
        for (i, j, k), coeff in self.terms.items():
            v = coeff
            for base, e in ((px, i), (py, j), (pz, k)):
                for _ in range(e):
                    v = v * base
            total = total + v
        return total

    def float_terms(self, m_float: float | None = None
                    ) -> tuple[tuple[Exponent, float], ...]:
        """(exp, float coefficient) in sorted exponent order.

        Each coefficient rounds as :meth:`Scalar.to_float` does, with
        ``m_float`` (default: float(m)) in place of m under the square root.
        """
        p, q, den = self._p, self._q, self._den
        md, root = 1, 0.0
        if q:
            md = self.m.denominator
            root = math.sqrt(float(self.m) if m_float is None else m_float)
        return tuple((e, _to_float(p.get(e, 0), q.get(e, 0), den, md, root))
                     for e in sorted(self._keys()))

    # -- univariate views ----------------------------------------------------

    def var_degree(self, var: str) -> int | float:
        idx = _VAR_INDEX[var]
        return max((e[idx] for e in self._keys()), default=NEG_INF)

    def min_var_exponent(self, var: str) -> int:
        idx = _VAR_INDEX[var]
        if self.is_zero():
            raise ValueError("zero polynomial")
        return min(e[idx] for e in self._keys())


def _derivative(d: dict, idx: int) -> dict:
    if idx == 0:
        return {(i - 1, j, k): c * i for (i, j, k), c in d.items() if i}
    if idx == 1:
        return {(i, j - 1, k): c * j for (i, j, k), c in d.items() if j}
    return {(i, j, k - 1): c * k for (i, j, k), c in d.items() if k}


def _shifted(d: dict, idx: int, by: int) -> dict:
    """d with the exponent of variable ``idx`` moved by ``by``."""
    if not d:
        return {}
    if idx == 0:
        return {(i + by, j, k): c for (i, j, k), c in d.items()}
    if idx == 1:
        return {(i, j + by, k): c for (i, j, k), c in d.items()}
    return {(i, j, k + by): c for (i, j, k), c in d.items()}


X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
Z = MultiPoly.variable("z")
ONE = MultiPoly.constant(1)


def sum_of_products(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """sum(a*b for a, b in pairs), accumulated on numerators, reduced once."""
    pairs = [(a, b) for a, b in pairs if not (a.is_zero() or b.is_zero())]
    m = None
    den = 1
    for a, b in pairs:
        m = _merge_m(m, _merge_m(a.m, b.m))
        den = math.lcm(den, a._den * b._den)
    s = radicand(m)
    p: dict = {}
    q: dict = {}
    for a, b in pairs:
        _mul_into(p, q, (a._p, a._q), (b._p, b._q), den // (a._den * b._den), s)
    return _poly(_nonzero(p), _nonzero(q), den, m)


def _chi_sum(terms: Iterable[tuple[tuple[MultiPoly, ...], MultiPoly, int]]) -> MultiPoly:
    """sum(sign * (X[0]*f_x + X[1]*f_y + X[2]*f_z) for X, f, sign in terms),
    accumulated on numerators by :func:`_chi_into`, reduced once."""
    terms = [(field, f, sign) for field, f, sign in terms if not f.is_zero()]
    m, den = None, 1
    for field, f, _ in terms:
        for x in field:
            if not x.is_zero():
                m = _merge_m(m, _merge_m(x.m, f.m))
                den = math.lcm(den, x._den * f._den)
    s = radicand(m)
    p, q = {}, {}
    for field, f, sign in terms:
        _chi_into(p, q, field, f, sign, den, s)
    return _poly(_nonzero(p), _nonzero(q), den, m)


# -- univariate polynomials ------------------------------------------------------


def _trim(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Drop leading zero coefficients; an all-zero sqrt part becomes []."""
    if q:
        while p and not p[-1] and not q[-1]:
            p.pop()
            q.pop()
        if not any(q):
            q = []
    while p and not p[-1] and not q:
        p.pop()
    return p, q


def _normal(p: list[int], q: list[int], den: int, m: Fraction | None
            ) -> tuple[list[int], list[int], int, Fraction | None]:
    """Numerator lists (mutated) trimmed, over a positive denominator, with
    the content divided out; m is dropped without a sqrt part."""
    p, q = _trim(p, q)
    if not q:
        m = None
        if not p:
            den = 1
    if den < 0:
        den, p, q = -den, [-c for c in p], [-c for c in q]
    if den != 1:
        g = math.gcd(den, *p, *q)
        if g != 1:
            den //= g
            p = [c // g for c in p]
            q = [c // g for c in q]
    return p, q, den, m


def _uni(p: list[int], q: list[int], den: int, m: Fraction | None) -> "UniPoly":
    """UniPoly from numerator lists (mutated), in normal form."""
    out = object.__new__(UniPoly)
    out.p, out.q, out.den, out.m = _normal(p, q, den, m)
    out._hash = None
    return out


def _times(p: list[int], q: list[int], cp: int, cq: int, s: int
           ) -> tuple[list[int], list[int]]:
    """Numerators times the constant cp + cq*sqrt(s)."""
    if not cq:
        return [c * cp for c in p], [c * cp for c in q]
    q = q or [0] * len(p)
    return ([a * cp + b * cq * s for a, b in zip(p, q)],
            [a * cq + b * cp for a, b in zip(p, q)])


def _rational_lead(p: list[int], q: list[int], s: int
                   ) -> tuple[list[int], list[int], tuple[int, int] | None]:
    """Numerators times the conjugate of their leading coefficient, so the
    leading sqrt part is zero; returns the conjugate used (None if none)."""
    if not q or not q[-1]:
        return p, q, None
    conj = (p[-1], -q[-1])
    p, q = _times(p, q, *conj, s)
    return p, q, conj


def _pseudo_divmod(ap: list[int], aq: list[int], bp: list[int], bq: list[int],
                   s: int) -> tuple[list[int], list[int], list[int], list[int], int]:
    """Fraction-free division: mult*A = Q*B + R with deg R < deg B.

    B's leading sqrt part must be zero.  A step multiplies the remainder (and
    the quotient) by B's leading numerator only when that does not divide
    the remainder's leading coefficient; ``mult`` is the product of those
    factors.  Returns (Qp, Qq, Rp, Rq, mult).
    """
    has_q = bool(aq or bq)
    k = len(bp) - 1
    lead = bp[-1]
    rp = list(ap)
    rq = (list(aq) or [0] * len(ap)) if has_q else []
    bq = (bq or [0] * len(bp)) if has_q else []
    n_quot = max(len(ap) - k, 0)
    qp, qq = [0] * n_quot, [0] * n_quot if has_q else []
    mult = 1
    for top in range(len(ap) - 1, k - 1, -1):
        tp, tq = rp[top], rq[top] if has_q else 0
        if not tp and not tq:
            continue
        if tp % lead or tq % lead:
            rp = [c * lead for c in rp]
            rq = [c * lead for c in rq]
            qp = [c * lead for c in qp]
            qq = [c * lead for c in qq]
            mult *= lead
        else:
            tp //= lead
            tq //= lead
        shift = top - k
        qp[shift] = tp
        if has_q:
            qq[shift] = tq
            for i, (cp, cq) in enumerate(zip(bp, bq)):
                rp[shift + i] -= tp * cp + tq * cq * s
                rq[shift + i] -= tp * cq + tq * cp
        else:
            for i, cp in enumerate(bp):
                rp[shift + i] -= tp * cp
    return qp, qq, rp[:k], rq[:k], mult


def _primitive(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Numerators divided by their (positive) integer content."""
    g = math.gcd(*p, *q)
    if g > 1:
        return [c // g for c in p], [c // g for c in q]
    return p, q


def prs_remainder(a: tuple[list[int], list[int]], b: tuple[list[int], list[int]],
                  s: int) -> tuple[list[int], list[int], int]:
    """Primitive remainder of A by B on numerator lists, and its sign.

    Returns (Rp, Rq, sign) with R = c*rem(A, B) for some c > 0 times
    ``sign``; R is trimmed and has integer content 1.
    """
    bp, bq, _ = _rational_lead(*b, s)
    _, _, rp, rq, mult = _pseudo_divmod(*a, bp, bq, s)
    rp, rq = _primitive(*_trim(rp, rq))
    return rp, rq, 1 if mult > 0 else -1


class UniPoly:
    """Dense univariate polynomial over Q(sqrt(m)), ascending coefficients.

    Read-only attributes: ``p`` and ``q`` are the integer numerator lists
    (``q`` is ``[]`` when there is no sqrt part), ``den`` the positive
    denominator and ``m`` the parameter (None without a sqrt part); the
    coefficient of t^i is ``(p[i] + q[i]*sqrt(s))/den``, ``s = radicand(m)``.
    """

    __slots__ = ("p", "q", "den", "m", "_hash")

    def __init__(self, coeffs: Iterable[Scalar | int | Fraction] = ()):
        p, q, den, m = _ints_of(enumerate(coeffs))
        size = max((*p, *q), default=-1) + 1
        self.p, self.q, self.den, self.m = _normal(
            [p.get(i, 0) for i in range(size)],
            [q.get(i, 0) for i in range(size)] if q else [], den, m)
        self._hash = None

    @property
    def coeffs(self) -> list[Scalar]:
        q = self.q or [0] * len(self.p)
        return [_to_scalar(a, b, self.den, self.m) for a, b in zip(self.p, q)]

    @property
    def degree(self) -> int | float:
        return len(self.p) - 1 if self.p else NEG_INF

    def is_zero(self) -> bool:
        return not self.p

    def __bool__(self) -> bool:
        return bool(self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return (self.den == other.den and self.p == other.p
                    and self.q == other.q and self.m == other.m)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(self.p), tuple(self.q), self.den, self.m))
        return self._hash

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def _padded(self, n: int, factor: int) -> tuple[list[int], list[int]]:
        """Numerators times factor, padded to length n (sqrt part always)."""
        pad = [0] * (n - len(self.p))
        q = self.q or [0] * len(self.p)
        return [c * factor for c in self.p] + pad, [c * factor for c in q] + pad

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        m = _merge_m(self.m, other.m)
        g = math.gcd(self.den, other.den)
        n = max(len(self.p), len(other.p))
        ap, aq = self._padded(n, other.den // g)
        bp, bq = other._padded(n, sign * (self.den // g))
        return _uni([a + b for a, b in zip(ap, bp)], [a + b for a, b in zip(aq, bq)],
                    self.den // g * other.den, m)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __neg__(self) -> "UniPoly":
        return _uni([-c for c in self.p], [-c for c in self.q], self.den, self.m)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        m = _merge_m(self.m, other.m)
        s = radicand(m)
        n = len(self.p) + len(other.p) - 1
        p, q = [0] * n, [0] * n
        aq = self.q or [0] * len(self.p)
        bq = other.q or [0] * len(other.p)
        for i, (a1, a2) in enumerate(zip(self.p, aq)):
            for j, (b1, b2) in enumerate(zip(other.p, bq)):
                p[i + j] += a1 * b1 + a2 * b2 * s
                q[i + j] += a1 * b2 + a2 * b1
        return _uni(p, q, self.den * other.den, m)

    def scale(self, factor: Scalar | int | Fraction) -> "UniPoly":
        return self * UniPoly([factor])

    def derivative(self) -> "UniPoly":
        return _uni([c * i for i, c in enumerate(self.p)][1:],
                    [c * i for i, c in enumerate(self.q)][1:], self.den, self.m)

    def to_floats(self) -> list[float]:
        """Float coefficients, rounded as :meth:`Scalar.to_float` rounds them."""
        if not self.q:
            return [c / self.den for c in self.p]
        md, root = self.m.denominator, math.sqrt(float(self.m))
        return [_to_float(a, b, self.den, md, root) for a, b in zip(self.p, self.q)]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        p, q, _ = _rational_lead(self.p, self.q, radicand(self.m))
        return _uni(list(p), list(q), p[-1], self.m)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        m = _merge_m(self.m, other.m)
        s = radicand(m)
        bp, bq, conj = _rational_lead(other.p, other.q, s)
        qp, qq, rp, rq, mult = _pseudo_divmod(self.p, self.q, bp, bq, s)
        if conj is not None:
            qp, qq = _times(qp, qq, *conj, s)
        # mult*A*den_a = Q*(B*den_b) + R, so A = Q*den_b/(mult*den_a)*B + ...
        den = mult * self.den
        return (_uni([c * other.den for c in qp], [c * other.den for c in qq], den, m),
                _uni(rp, rq, den, m))


def _numerator_gcd(pairs: Iterable[tuple[list[int], list[int]]],
                   m: Fraction | None) -> UniPoly:
    """Monic gcd of the polynomials with numerator lists ``pairs`` (any
    denominators) over Q(sqrt(m)), none of them zero; it stops at the first
    constant gcd, taking no further pair."""
    s = radicand(m)
    g: tuple[list[int], list[int]] | None = None
    for pair in pairs:
        if g is None:
            g = _primitive(*pair)
        else:
            a, b = g, _primitive(*pair)
            while b[0]:
                a, b = b, prs_remainder(a, b, s)[:2]
            g = a
        if len(g[0]) == 1:
            break
    if g is None:
        return UniPoly()
    return _uni(list(g[0]), list(g[1]), 1, m).monic()


def unipoly_gcd(polys: Iterable[UniPoly]) -> UniPoly:
    """Monic gcd over the scalar field Q(sqrt(m)); never raises.

    Square m is folded to rationals by Scalar, so every nonzero leading
    coefficient is invertible.  The gcd runs as a primitive remainder
    sequence on the numerators and is made monic once, at the end.
    """
    polys = [u for u in polys if u]
    m = None
    for u in polys:
        m = _merge_m(m, u.m)
    return _numerator_gcd([(u.p, u.q) for u in polys], m)


def _groups(p: MultiPoly, line: bool) -> Iterator[tuple[list[int], list[int]]]:
    """Numerator lists over p's denominator, one per group by group key: of
    the polynomials in t of p(x, t*x, z) per x^alpha*z^k when ``line``, else
    of the polynomials in z per x^i*y^j.  The terms are grouped at once and
    each list built when it is taken."""
    groups: dict = {}
    for part, d in ((0, p._p), (1, p._q)):
        for (i, j, k), c in d.items():
            key, power = ((i + j, k), j) if line else ((i, j), k)
            groups.setdefault(key, ({}, {}))[part][power] = c
    for key in sorted(groups):
        gp, gq = groups[key]
        size = max((*gp, *gq)) + 1
        yield ([gp.get(d, 0) for d in range(size)],
               [gq.get(d, 0) for d in range(size)] if gq else [])


def line_gcd(p: MultiPoly) -> UniPoly:
    """Monic gcd of the coefficient polynomials of the nonzero p(x, t*x, z),
    one per x^alpha * z^k group.

    Substituting ``y := t*x`` sends the monomial ``x^i y^j z^k`` to
    ``t^j * x^(i+j) z^k``, one polynomial in t per surviving group
    ``(i + j, k)``.  The divisor ``y - t0*x`` divides p exactly when every
    one of them vanishes at t0, that is when t0 is a root of this gcd.
    Divisibility by x itself must be tested separately (every group keeps a
    positive x power).  The gcd runs on the groups' numerators, and the
    groups after the first constant gcd are never built.
    """
    return _numerator_gcd(_groups(p, True), p.m)


def z_profile_gcd(p: MultiPoly) -> UniPoly:
    """Monic gcd of the nonzero p's polynomials in z, one per x^i*y^j group:
    z - k divides p exactly when it divides this gcd.  The groups after the
    first constant gcd are never built."""
    return _numerator_gcd(_groups(p, False), p.m)
