"""Parse polynomial expressions into MultiPoly and print them back.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'a' | 'x' | 'y' | 'z' | '(' expr ')' | '-' factor
    rational := int ('/' uint)?

The symbol ``a`` denotes sqrt(m); it is the only named constant.  ``^``
binds tighter than ``*``, unary minus tighter than ``+``.

While a term is a product of variables, powers, rationals and ``a``, its
value is one monomial ``(exp, coefficient)`` (an int, Fraction or Scalar);
an ``expr`` sums its terms into one ``exp -> coefficient`` dict and builds
one MultiPoly, or stays a monomial when one exponent is left.  Only a factor
that really is a polynomial, such as ``(x + y)^3``, uses MultiPoly arithmetic.

Serialization is deterministic: terms in graded lexicographic order
(total degree first, then x > y > z), and ``parse(serialize(p), m) == p``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import MultiPoly
from .scalars import Scalar

MAX_EXPONENT = 64
_TOKEN = re.compile(r"\s*(\d+|\S)")
_VARIABLES = {"x": ((1, 0, 0), 1), "y": ((0, 1, 0), 1), "z": ((0, 0, 1), 1)}


class ParseError(ValueError):
    """Syntax error with a byte offset and the set of expected tokens."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"at offset {offset}: expected {exp}, found {found}")


def _as_poly(value: tuple | MultiPoly) -> MultiPoly:
    return MultiPoly.monomial(*value) if type(value) is tuple else value


def _negated(value: tuple | MultiPoly) -> tuple | MultiPoly:
    return (value[0], -value[1]) if type(value) is tuple else -value


class _Parser:
    def __init__(self, text: str, m: Fraction):
        self.text = text
        self.m = m
        # digit runs and single non-space characters, then "" for the end
        self.tokens = _TOKEN.findall(text) + [""]
        self.pos = 0

    def _offset(self, pos: int) -> int:
        """Offset of token ``pos`` in the text; only errors need it."""
        starts = [t.start(1) for t in _TOKEN.finditer(self.text)]
        return starts[pos] if pos < len(starts) else len(self.text)

    def _peek(self) -> str:
        return self.tokens[self.pos]

    def _fail(self, expected: set[str]) -> None:
        token = self.tokens[self.pos]
        raise ParseError(self._offset(self.pos), expected,
                         repr(token[0]) if token else "end of input")

    def _accept(self, ch: str) -> bool:
        if self.tokens[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str) -> None:
        if not self._accept(ch):
            self._fail({repr(ch)})

    def _uint(self) -> int:
        token = self.tokens[self.pos]
        if not token.isdigit():
            self._fail({"unsigned integer"})
        self.pos += 1
        return int(token)

    def parse(self) -> MultiPoly:
        result = self.expr()
        if self.pos != len(self.tokens) - 1:
            self._fail({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return _as_poly(result)

    def expr(self) -> tuple | MultiPoly:
        value = self.term()
        if self._peek() not in ("+", "-"):
            return value
        terms: dict = {}
        polys: list[MultiPoly] = []
        while True:
            if type(value) is tuple:
                exp, c = value
                terms[exp] = terms[exp] + c if exp in terms else c
            else:
                polys.append(value)
            if self._accept("+"):
                value = self.term()
            elif self._accept("-"):
                value = _negated(self.term())
            else:
                break
        if not polys and len(terms) == 1:
            return next(iter(terms.items()))
        return sum(polys, MultiPoly(terms))

    def term(self) -> tuple | MultiPoly:
        acc = self.factor()
        while self._accept("*"):
            value = self.factor()
            if type(acc) is tuple and type(value) is tuple:
                (i, j, k), (i2, j2, k2) = acc[0], value[0]
                acc = (i + i2, j + j2, k + k2), acc[1] * value[1]
            else:
                acc = _as_poly(acc) * _as_poly(value)
        return acc

    def factor(self) -> tuple | MultiPoly:
        base = self.base()
        if self._accept("^"):
            n = self._uint()
            if n > MAX_EXPONENT:
                raise OverflowError(f"exponent {n} exceeds {MAX_EXPONENT}")
            if type(base) is tuple:
                (i, j, k), c = base
                return (i * n, j * n, k * n), c ** n
            return base ** n
        return base

    def base(self) -> tuple | MultiPoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self._expect(")")
            return inner
        if ch == "-":
            self.pos += 1
            return _negated(self.factor())
        if ch in _VARIABLES:
            self.pos += 1
            return _VARIABLES[ch]
        if ch == "a":
            self.pos += 1
            a = Scalar.sqrt_m(self.m)
            return (0, 0, 0), a if a.q else a.p
        if ch.isdigit():
            num = self._uint()
            if self._accept("/"):
                den = self._uint()
                if den == 0:
                    offset = self._offset(self.pos - 1) + len(self.tokens[self.pos - 1])
                    raise ParseError(offset, {"nonzero denominator"}, "0")
                return (0, 0, 0), Fraction(num, den)
            return (0, 0, 0), num
        self._fail({"rational", "'a'", "'x'", "'y'", "'z'", "'('", "'-'"})
        raise AssertionError("unreachable")


def parse(text: str, m: Fraction | int) -> MultiPoly:
    """Parse an expression; ``a`` maps to sqrt(m)."""
    return _Parser(text, Fraction(m)).parse()


def _monomial_str(exp: tuple[int, int, int]) -> str:
    pieces = []
    for name, e in zip("xyz", exp):
        if e == 1:
            pieces.append(name)
        elif e > 1:
            pieces.append(f"{name}^{e}")
    return "*".join(pieces)


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
        if mono:
            text = mono if body == "1" else f"{body}*{mono}"
        else:
            text = body
        if not chunks:
            chunks.append(f"-{text}" if neg else text)
        else:
            chunks.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(chunks)
