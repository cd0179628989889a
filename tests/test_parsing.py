import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusfields import MultiPoly, ParseError, Scalar, X, Y, Z, parse, serialize
from torusfields.parsing import MAX_EXPONENT

from conftest import random_poly, reference_serialize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402

M = Fraction(4)
M_IRR = Fraction(5)


def test_parse_fraction_coefficients():
    p = parse("(1/4)*x*z + x*y^2", M)
    assert p.coefficient((1, 0, 1)) == Fraction(1, 4)
    assert p.coefficient((1, 2, 0)) == 1


def test_a_squares_to_m():
    assert parse("a^2", M) == MultiPoly.constant(4)
    assert parse("a", M_IRR) == MultiPoly.constant(Scalar(0, 1, M_IRR))
    assert parse("a*a - a^2", M_IRR) == MultiPoly.zero()


def test_square_m_folds_a():
    assert parse("2*a - a^2", M).is_zero()
    assert parse("a", M) == MultiPoly.constant(2)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x + * y", M)
    assert err.value.offset == 4
    assert err.value.expected


def test_error_offsets_in_range():
    for text in ["", "x +", "(x", "x^", "1/", "x y", "b", "x ** 2", "2 ^ -1"]:
        with pytest.raises(ParseError) as err:
            parse(text, M)
        assert 0 <= err.value.offset <= len(text)


def test_exponent_overflow():
    with pytest.raises(OverflowError):
        parse("x^65", M)
    assert parse("x^5", M) == MultiPoly.variable("x") ** 5


def test_precedence():
    assert parse("-x^2", M) == -(MultiPoly.variable("x") ** 2)
    assert parse("2*x^2", M) == 2 * MultiPoly.variable("x") ** 2
    assert parse("x - y + z", M) == parse("(x - y) + z", M)
    assert parse("1/2*x", M) == parse("(1/2)*x", M)


def test_whitespace_insignificant():
    assert parse("  x  +  y ", M) == parse("x+y", M)


def test_serialize_examples():
    assert serialize(MultiPoly.zero()) == "0"
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    assert serialize(x ** 2 - y ** 2) == "x^2 - y^2"
    assert serialize(parse("(1/4)*x*z + x*y^2", M)) == "x*y^2 + (1/4)*x*z"


def test_serialize_scalar_coefficients():
    p = parse("(2 + 3*a)*x - a*y + (-1/2)*z", M_IRR)
    assert parse(serialize(p), M_IRR) == p
    q = parse("-x + (1/3)*a*y^2", M_IRR)
    assert parse(serialize(q), M_IRR) == q


def test_round_trip_bulk():
    rng = random.Random(20240809)
    for _ in range(1000):
        p = random_poly(rng, max_degree=6, max_terms=12, m=M_IRR, sqrt_part=True)
        assert parse(serialize(p), M_IRR) == p


def _wide_rational(rng: random.Random) -> Fraction:
    """Numerators up to 10^40, denominators from 1 to 10^12."""
    if rng.random() < 0.2:
        return Fraction(rng.choice((1, -1)))
    bound = 10 ** rng.randint(0, 40)
    den = rng.choice((1, 1, 2, 3, 6, 7, 12, rng.randint(1, 10 ** 12)))
    return Fraction(rng.randint(-bound, bound), den)


def _wide_coefficient(rng: random.Random, m: Fraction) -> Scalar:
    kind = rng.randrange(4)
    if kind == 0:
        return Scalar(0)
    if kind == 1:
        return Scalar(_wide_rational(rng))
    if kind == 2:
        return Scalar(0, _wide_rational(rng), m)
    return Scalar(_wide_rational(rng), _wide_rational(rng), m)


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2),
                               Fraction(5, 4), Fraction(2)])
def test_serialize_matches_the_scalar_reference(m):
    # zero, rational, pure-sqrt and mixed coefficients; at m = 4 the sqrt
    # parts fold to rationals, at 9/2 and 5/4 sqrt(m) has a denominator
    rng = random.Random(int(m * 4))
    for _ in range(4000):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            terms[exp] = _wide_coefficient(rng, m)
        p = MultiPoly(terms)
        assert serialize(p) == reference_serialize(p), terms


def test_round_trip_graded_order_stable():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng, max_degree=5, max_terms=8)
        assert serialize(parse(serialize(p), M)) == serialize(p)


# -- parsing against the polynomial-per-factor reference ---------------------
#
# The reference is the recursive descent as it was before the monomial fast
# value: every factor is a MultiPoly, terms are multiplied and summed as
# polynomials one at a time.

_REF_TOKEN = re.compile(r"\s*(\d+|\S)")
_REF_VARIABLES = {"x": X, "y": Y, "z": Z}


class ReferenceParser:
    def __init__(self, text, m):
        self.m = m
        self.tokens = [(t.group(1), t.start(1)) for t in _REF_TOKEN.finditer(text)]
        self.tokens.append(("", len(text)))
        self.pos = 0

    def _fail(self, expected):
        token, offset = self.tokens[self.pos]
        raise ParseError(offset, expected, repr(token[0]) if token else "end of input")

    def _accept(self, ch):
        if self.tokens[self.pos][0] == ch:
            self.pos += 1
            return True
        return False

    def _uint(self):
        token = self.tokens[self.pos][0]
        if not token.isdigit():
            self._fail({"unsigned integer"})
        self.pos += 1
        return int(token)

    def parse(self):
        result = self.expr()
        if self.pos != len(self.tokens) - 1:
            self._fail({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return result

    def expr(self):
        acc = self.term()
        while True:
            if self._accept("+"):
                acc = acc + self.term()
            elif self._accept("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while self._accept("*"):
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.base()
        if self._accept("^"):
            exponent = self._uint()
            if exponent > MAX_EXPONENT:
                raise OverflowError(f"exponent {exponent} exceeds {MAX_EXPONENT}")
            return base ** exponent
        return base

    def base(self):
        ch = self.tokens[self.pos][0]
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if not self._accept(")"):
                self._fail({"')'"})
            return inner
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch in _REF_VARIABLES:
            self.pos += 1
            return _REF_VARIABLES[ch]
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


def _outcome(parse_fn, text, m):
    """The parsed polynomial, or the error's type and fields."""
    try:
        return parse_fn(text, m)
    except ParseError as err:
        return ("ParseError", err.offset, err.expected, err.found)
    except OverflowError as err:
        return ("OverflowError", str(err))


def _random_expr(rng, depth=0):
    if depth > 3 or rng.random() < 0.3:
        n, d = rng.randint(0, 12), rng.randint(1, 6)
        return rng.choice(["x", "y", "z", "a", str(n), f"{n}/{d}", f"({n}/{d})"])
    kind = rng.choice(["sum", "product", "power", "minus", "parens"])
    parts = [_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    if kind == "sum":
        return parts[0] + "".join(f" {rng.choice('+-')} {p}" for p in parts[1:])
    if kind == "product":
        return "*".join(parts)
    if kind == "power":
        e = rng.choice([0, 1, 2, 3, 3, MAX_EXPONENT + 1])
        return f"({parts[0]})^{e}" if rng.random() < 0.5 else f"{parts[0]}^{e}"
    if kind == "minus":
        return "-" * rng.randint(1, 3) + parts[0]
    return f"({parts[0]})"


def _mangled(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(chars))
        edit = rng.choice(["delete", "insert", "replace"])
        if edit == "delete" and i < len(chars):
            del chars[i]
        elif edit == "insert":
            chars.insert(i, rng.choice("()+-*^/ xyzab0"))
        elif i < len(chars):
            chars[i] = rng.choice("()+-*^/ xyzab0")
    return "".join(chars)


FIXED_CASES = [
    "(2*a)^3*x", "-(1/2)^3", "(x - a*y)^2", "x^0", "(x + y)^0", "--x",
    "-(-(-y))", "- -z^2", "(2 + 3*a)*x - (1 - a)*y^2", "x - x", "(x - x)*y",
    "(x - x)^0", "0/7*x", "a^2 - 2*a", "x^65", "(x + 1)^65", "1/0", "x/y",
    "", "x +", "(x", "x^", "1/", "x y", "b", "x ** 2", "2 ^ -1", ")",
    "(1/2)*(-a^2*(x^2+y^2) + z^2 + a^4 - 1)",
    # a second '^' binds only after a unary minus; leading zeros; 2^64 scaled
    # back to 1; an exponent past the limit on a parenthesis; a^64 = m^32
    "-x^2^3", "x^2^3", "-2^3^4", "2*-a^3", "(1/2)^64*2^64", "x^064", "1/00",
    "(x)^65", "a^64",
]


def parser_corpus(m, seed):
    rng = random.Random(seed)
    texts = list(FIXED_CASES)
    for _ in range(150):
        p = random_poly(rng, max_degree=5, max_terms=8, m=m, sqrt_part=True)
        texts.append(serialize(p))
        texts.append(_mangled(rng, texts[-1]))
    for _ in range(300):
        texts.append(_random_expr(rng))
        if rng.random() < 0.3:
            texts.append(_mangled(rng, texts[-1]))
    return texts


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 4),
                               Fraction(5), Fraction(9, 2)])
def test_parse_matches_polynomial_per_factor_reference(m):
    # 9/4 is a square whose root 3/2 is not an integer
    kinds = set()
    for text in parser_corpus(m, seed=int(m * 2)):
        got = _outcome(parse, text, m)
        assert got == _outcome(lambda t, mm: ReferenceParser(t, mm).parse(), text, m), text
        kinds.add(got[0] if isinstance(got, tuple) else "MultiPoly")
    assert kinds == {"MultiPoly", "ParseError", "OverflowError"}


def test_fixed_corner_cases():
    m = Fraction(3)
    assert parse("-x^2^3", m) == X ** 6 * -1
    assert parse("-2^3^4", m) == MultiPoly.constant(4096)
    assert parse("(1/2)^64*2^64", m) == MultiPoly.constant(1)
    assert parse("x^064", m) == X ** 64
    assert parse("a^64", m) == MultiPoly.constant(3 ** 32)
    with pytest.raises(ParseError) as err:
        parse("x^2^3", m)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse("1/00", m)
    assert (err.value.offset, err.value.found) == (4, "0")
    with pytest.raises(OverflowError):
        parse("(x)^65", m)


def _raise(*args, **kwargs):
    raise AssertionError("the parser built a MultiPoly or Scalar per token")


@pytest.mark.parametrize("m", [Fraction(4), Fraction(3), Fraction(9, 2)])
def test_parse_builds_no_polynomial_or_scalar_arithmetic(m, monkeypatch):
    # one pass over integer numerators: no MultiPoly is built or combined and
    # no Scalar is made, so a power of a stays an int power
    texts = [corpus.BOWL, corpus.WORKED_CUBIC[2], corpus.WORKED_CUBIC_2A[2]]
    for spec in corpus.named_corpus(m):
        texts += [spec.px, spec.qy, spec.rz, spec.cofactor]
    want = [ReferenceParser(text, m).parse() for text in texts]
    for cls, names in ((MultiPoly, ("__init__", "__mul__", "__add__", "__neg__",
                                    "__pow__", "scale")),
                       (Scalar, ("__init__", "_make"))):
        for name in names:
            monkeypatch.setattr(cls, name, _raise)
    got = [parse(text, m) for text in texts]
    monkeypatch.undo()
    assert got == want
