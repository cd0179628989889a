"""Parse polynomial expressions into MultiPoly and print them back.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'a' | 'x' | 'y' | 'z' | '(' expr ')' | '-' factor
    rational := int ('/' uint)?

The symbol ``a`` denotes sqrt(m); it is the only named constant.  ``^``
binds tighter than ``*``, unary minus tighter than ``+``.

Serialization is deterministic: terms in graded lexicographic order
(total degree first, then x > y > z), and ``parse(serialize(p), m) == p``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import X, Y, Z, MultiPoly
from .scalars import Scalar

MAX_EXPONENT = 64
_TOKEN = re.compile(r"\s*(\d+|\S)")
_VARIABLES = {"x": X, "y": Y, "z": Z}


class ParseError(ValueError):
    """Syntax error with a byte offset and the set of expected tokens."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"at offset {offset}: expected {exp}, found {found}")


class _Parser:
    def __init__(self, text: str, m: Fraction):
        self.m = m
        # (token, offset): digit runs and single non-space characters
        self.tokens = [(t.group(1), t.start(1)) for t in _TOKEN.finditer(text)]
        self.tokens.append(("", len(text)))
        self.pos = 0

    def _peek(self) -> str:
        return self.tokens[self.pos][0]

    def _fail(self, expected: set[str]) -> None:
        token, offset = self.tokens[self.pos]
        raise ParseError(offset, expected,
                         repr(token[0]) if token else "end of input")

    def _accept(self, ch: str) -> bool:
        if self.tokens[self.pos][0] == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str) -> None:
        if not self._accept(ch):
            self._fail({repr(ch)})

    def _uint(self) -> int:
        token = self.tokens[self.pos][0]
        if not token.isdigit():
            self._fail({"unsigned integer"})
        self.pos += 1
        return int(token)

    def parse(self) -> MultiPoly:
        result = self.expr()
        if self.pos != len(self.tokens) - 1:
            self._fail({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return result

    def expr(self) -> MultiPoly:
        acc = self.term()
        while True:
            if self._accept("+"):
                acc = acc + self.term()
            elif self._accept("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self._accept("*"):
            acc = acc * self.factor()
        return acc

    def factor(self) -> MultiPoly:
        base = self.base()
        if self._accept("^"):
            exponent = self._uint()
            if exponent > MAX_EXPONENT:
                raise OverflowError(f"exponent {exponent} exceeds {MAX_EXPONENT}")
            return base ** exponent
        return base

    def base(self) -> MultiPoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self._expect(")")
            return inner
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch in _VARIABLES:
            self.pos += 1
            return _VARIABLES[ch]
        if ch == "a":
            self.pos += 1
            return MultiPoly.constant(Scalar.sqrt_m(self.m))
        if ch.isdigit():
            num = self._uint()
            if self._accept("/"):
                den = self._uint()
                if den == 0:
                    token, offset = self.tokens[self.pos - 1]
                    raise ParseError(offset + len(token), {"nonzero denominator"}, "0")
                return MultiPoly.constant(Fraction(num, den))
            return MultiPoly.constant(num)
        self._fail({"rational", "'a'", "'x'", "'y'", "'z'", "'('", "'-'"})
        raise AssertionError("unreachable")


def parse(text: str, m: Fraction | int) -> MultiPoly:
    """Parse an expression; ``a`` maps to sqrt(m)."""
    return _Parser(text, Fraction(m)).parse()


def _rational_str(r: Fraction) -> str:
    return str(r) if r.denominator == 1 else f"({r})"


def _coeff_parts(c: Scalar) -> tuple[bool, str]:
    """(negate, body) where body multiplies a monomial and re-parses."""
    if c.q == 0:
        neg = c.p < 0
        mag = -c.p if neg else c.p
        return neg, _rational_str(mag)
    if c.p == 0:
        neg = c.q < 0
        mag = -c.q if neg else c.q
        body = "a" if mag == 1 else f"{_rational_str(mag)}*a"
        return neg, body
    # mixed rational + sqrt part: keep both signs inside one parenthesis
    q_abs = -c.q if c.q < 0 else c.q
    q_part = "a" if q_abs == 1 else f"{_rational_str(q_abs)}*a"
    sign = "-" if c.q < 0 else "+"
    return False, f"({c.p} {sign} {q_part})"


def _monomial_str(exp: tuple[int, int, int]) -> str:
    pieces = []
    for name, e in zip("xyz", exp):
        if e == 1:
            pieces.append(name)
        elif e > 1:
            pieces.append(f"{name}^{e}")
    return "*".join(pieces)


def serialize(p: MultiPoly) -> str:
    """Canonical text form; graded lexicographic term order, x > y > z."""
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda e: (sum(e), e[0], e[1]), reverse=True)
    chunks: list[str] = []
    for exp in keys:
        neg, body = _coeff_parts(p.terms[exp])
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
