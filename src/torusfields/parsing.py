"""Parse polynomial expressions into MultiPoly and print them back.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'a' | 'x' | 'y' | 'z' | '(' expr ')' | '-' factor
    rational := int ('/' uint)?

The symbol ``a`` denotes sqrt(m); it is the only named constant.  ``^``
binds tighter than ``*``, unary minus tighter than ``+``.

:func:`parse` is one recursive-descent pass over MultiPoly's integer
numerators, ``s = mn*md`` for ``m = mn/md``.  A monomial is ``(exp, p, q,
d)``: ``(p + q*sqrt(s))/d`` times ``x^i*y^j*z^k``, with ``a = (0, 1, md)``
at a non-square m and its rational root at a square m.  A polynomial is a
``(p, q, den)`` triple of numerator dicts, multiplied by ``poly._mul_into``
and summed over the lcm of the denominators; the result is reduced once.

Serialization is deterministic: terms in graded lexicographic order
(total degree first, then x > y > z), and ``parse(serialize(p), m) == p``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NoReturn

from .poly import MultiPoly, _mul_into, _nonzero, _poly
from .scalars import _rational_sqrt

MAX_EXPONENT = 64
_TOKEN = re.compile(r"\s*(\d+|\S)")
_ONE = (0, 0, 0), 1, 0, 1
_VARIABLES = {"x": ((1, 0, 0), 1, 0, 1), "y": ((0, 1, 0), 1, 0, 1),
              "z": ((0, 0, 1), 1, 0, 1)}
_BASE = {"rational", "'a'", "'x'", "'y'", "'z'", "'('", "'-'"}


class ParseError(ValueError):
    """Syntax error with a byte offset and the set of expected tokens."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"at offset {offset}: expected {exp}, found {found}")


# Each step takes ``ctx = (tokens, s, atoms, text)``, ``atoms`` mapping x, y,
# z and a to monomials, and a token index; it returns ``(value, next index)``.

def _fail(ctx: tuple, pos: int, expected: set[str], end: bool = False) -> NoReturn:
    """ParseError at token ``pos``, or at its end for a zero denominator."""
    token = ctx[0][pos]
    starts = [t.start(1) for t in _TOKEN.finditer(ctx[3])] + [len(ctx[3])]
    found = "0" if end else repr(token[0]) if token else "end of input"
    raise ParseError(starts[pos] + (len(token) if end else 0), expected, found)


def _uint(ctx: tuple, pos: int, limit: int | None = None) -> int:
    if not (token := ctx[0][pos]).isdigit():
        _fail(ctx, pos, {"unsigned integer"})
    n = int(token)
    if limit is not None and n > limit:
        raise OverflowError(f"exponent {n} exceeds {limit}")
    return n


def _product(x: tuple, y: tuple, s: int) -> tuple:
    p, q = {}, {}
    _mul_into(p, q, (x[0], x[1]), (y[0], y[1]), 1, s)
    return _nonzero(p), _nonzero(q), x[2] * y[2]


def _power(v: tuple, n: int, s: int) -> tuple:
    """v^n: a monomial in closed form, its coefficient being p or q*sqrt(s)
    (so are the atoms and their products); a polynomial by square-and-multiply."""
    if len(v) == 4:
        (i, j, k), p, q, d = v
        r = q ** n * s ** (n >> 1) if q else p ** n
        return (i * n, j * n, k * n), *((0, r) if q and n & 1 else (r, 0)), d ** n
    out = v if n else _ONE
    for bit in bin(n)[3:]:
        out = _product(out, out, s)
        if bit == "1":
            out = _product(out, v, s)
    return out


def _sum(terms: list[tuple]) -> tuple:
    """The polynomial sum of values, over the lcm of their denominators."""
    den = math.lcm(*(v[-1] for v in terms))
    p, q = {}, {}
    for v in terms:
        f = den // v[-1]
        if len(v) == 4:
            exp, vp, vq, _ = v
            p[exp] = p.get(exp, 0) + vp * f
            if vq:
                q[exp] = q.get(exp, 0) + vq * f
            continue
        for out, part in ((p, v[0]), (q, v[1])):
            for e, c in part.items():
                out[e] = out.get(e, 0) + c * f
    return p, q, den


def _expr(ctx: tuple, pos: int) -> tuple[tuple, int]:
    v, pos = _term(ctx, pos)
    terms = [v]
    while (tok := ctx[0][pos]) in ("+", "-"):
        v, pos = _term(ctx, pos + 1, sign=1 if tok == "+" else -1)
        terms.append(v)
    return (v if len(terms) == 1 else _sum(terms)), pos


def _term(ctx: tuple, pos: int, single: bool = False,
          sign: int = 1) -> tuple[tuple, int]:
    """``sign`` times a term, or one factor when ``single``; monomial factors
    fold into the locals ``(i, j, k), (p + q*sqrt(s))/d``."""
    tokens, s, atoms = ctx[0], ctx[1], ctx[2]
    i = j = k = q = 0
    p, d = sign, 1
    poly = None
    while True:
        tok = tokens[pos]
        pos += 1
        if tok in atoms:
            v = atoms[tok]
        elif tok.isdigit():
            den = 1
            if tokens[pos] == "/":
                den = _uint(ctx, pos + 1)
                if not den:
                    _fail(ctx, pos + 1, {"nonzero denominator"}, end=True)
                pos += 2
            v = (0, 0, 0), int(tok), 0, den
        elif tok == "(":
            v, pos = _expr(ctx, pos)
            if tokens[pos] != ")":
                _fail(ctx, pos, {"')'"})
            pos += 1
        elif tok == "-":
            v, pos = _term(ctx, pos, True, -1)
        else:
            _fail(ctx, pos - 1, _BASE)
        if tokens[pos] == "^":
            v = _power(v, _uint(ctx, pos + 1, MAX_EXPONENT), s)
            pos += 2
        if len(v) == 3:
            poly = v if poly is None else _product(poly, v, s)
        else:
            (vi, vj, vk), vp, vq, vd = v
            i, j, k, d = i + vi, j + vj, k + vk, d * vd
            if vq:
                p, q = p * vp + q * vq * s, p * vq + q * vp
            else:
                p, q = p * vp, q * vp
        if single or tokens[pos] != "*":
            break
        pos += 1
    if poly is None:
        return ((i, j, k), p, q, d), pos
    if i or j or k or q or p != d:
        poly = _product(poly, _sum([((i, j, k), p, q, d)]), s)
    return poly, pos


def parse(text: str, m: Fraction | int) -> MultiPoly:
    """Parse an expression; ``a`` maps to sqrt(m)."""
    if type(m) is not Fraction:
        m = Fraction(m)
    root = _rational_sqrt(m)
    if root is None:
        s, a = m.numerator * m.denominator, ((0, 0, 0), 0, 1, m.denominator)
    else:
        s, a = 0, ((0, 0, 0), root.numerator, 0, root.denominator)
    tokens = _TOKEN.findall(text)
    tokens.append("")
    ctx = (tokens, s, {**_VARIABLES, "a": a}, text)
    v, pos = _expr(ctx, 0)
    if pos != len(tokens) - 1:
        _fail(ctx, pos, {"'+'", "'-'", "'*'", "'^'", "end of input"})
    p, q, den = _sum([v]) if len(v) == 4 else v
    return _poly(_nonzero(p), _nonzero(q), den, m)


def _monomial_str(exp: tuple[int, int, int]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip("xyz", exp) if e)


def _grlex(term: tuple) -> tuple:
    exp = term[0]
    return exp[0] + exp[1] + exp[2], exp


def _coeff_str(pn: int, pd: int, qn: int, qd: int) -> tuple[bool, str]:
    """(negate, body) of pn/pd + (qn/qd)*a, where body multiplies a monomial
    and re-parses; a mixed coefficient keeps both signs in one parenthesis."""
    if not qn:
        return pn < 0, str(abs(pn)) if pd == 1 else f"({abs(pn)}/{pd})"
    mag = abs(qn)
    q_part = ("a" if mag == 1 else f"{mag}*a") if qd == 1 else f"({mag}/{qd})*a"
    if not pn:
        return qn < 0, q_part
    rational = str(pn) if pd == 1 else f"{pn}/{pd}"
    return False, f"({rational} {'-' if qn < 0 else '+'} {q_part})"


def serialize(p: MultiPoly) -> str:
    """Canonical text form; graded lexicographic term order, x > y > z.
    Coefficients are written from their reduced integer parts."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for exp, (pn, pd), (qn, qd) in sorted(p.int_terms(), key=_grlex, reverse=True):
        neg, body = _coeff_str(pn, pd, qn, qd)
        mono = _monomial_str(exp)
        text = (mono if body == "1" else f"{body}*{mono}") if mono else body
        if not chunks:
            chunks.append(f"-{text}" if neg else text)
        else:
            chunks.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(chunks)
