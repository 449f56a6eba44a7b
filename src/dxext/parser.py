"""Parser for the expression grammar of Weyl algebra elements.

Grammar (whitespace insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (['*'] factor)*          juxtaposition multiplies
    factor  := atom ('^' INT)*                 nonnegative integer powers
    atom    := NAME | NUMBER | '(' expr ')'
    NUMBER  := INT ['/' INT]                   rational literal p/q

Every product the parser takes is metered against one budget per
parse, BUDGET expanded terms.  Before a term pair is normal ordered it
is charged the terms it expands to, the product over i of
min(e_i, a_i) + 1 for the exponent e_i of d_i on the left and a_i of
x_i on the right, each weighted by what its arithmetic costs:
(n + 6)/8 in n variables, at least 1, as its exponent tuples have n
entries; twice that per Fraction coefficient; 1 + s/2^10 + s^2/2^24
times that per coefficient of s bits, which pays for additions, long
multiplications and gcds; and that again for the pair's Leibniz
coefficients comb(e_i, k) perm(a_i, k), whose bits are at most the sum
over i of min(e_i, a_i) (bits(e_i) + bits(a_i)).  So dx^100000
x^100000, whose coefficients run to a million bits, is refused before
it is expanded.  Every product, atom and closed-form power is charged
at least one term, so a text in many variables is refused before it
builds many exponent tuples; a power of a base with several terms is
that many products; sums take time linear in their terms and are not
charged.  When the budget runs out the parse fails with ParseError.
Spending all of it takes 0.1-0.6 s on each of 24 shapes of input
(medians, by the load, on a 2-core VM running Python 3.11), so no
text, however long, parses for much longer.

A power of one term in x alone or d alone takes its closed form at any
exponent; it is refused only when its coefficient would have more
digits than the interpreter prints.

Names: x1..xn and d1..dn always; for n <= 4 the aliases x,y,z,w and
dx,dy,dz,dw as well.  Products are noncommutative, left to right.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from . import weyl
from .weyl import WeylElement

__all__ = ["BUDGET", "ParseError", "parse", "infer_variable_count"]

BUDGET = 110_000


class ParseError(ValueError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<op>[-+*^()/]))")

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            out.append(("int", m.group("int"), m.start("int")))
        else:
            out.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _integer(digits, pos):
    try:
        return int(digits)
    except ValueError:  # above the interpreter's int-to-string limit
        raise ParseError(f"integer of {len(digits)} digits, more than int() reads", pos) from None


def _resolve(name, pos):
    """(sort, index, is_alias) of a name: x1.., d1.. or an alias."""
    m = re.fullmatch(r"([xd])([1-9][0-9]*)", name)
    if m:
        return m[1], _integer(m[2], pos + 1) - 1, False
    sort, alias = ("d", name[1:]) if name.startswith("d") else ("x", name)
    if alias not in _ALIASES:
        raise ParseError(f"unknown name {name!r}", pos)
    return sort, _ALIASES[alias], True


def infer_variable_count(text):
    """Smallest n for which every name in the text resolves."""
    names = (_resolve(value, pos)[1] for kind, value, pos in _tokenize(text) if kind == "name")
    return max(names, default=0) + 1


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.width = max(n + 6, 8)  # eighths of a budget term per term
        self.budget = 8 * BUDGET

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def charge(self, eighths, pos):
        self.budget -= eighths
        if self.budget < 0:
            raise ParseError(f"expression expands past the budget of {BUDGET} terms", pos)

    def multiply(self, a, b, pos):
        """a * b, each term pair charged before weyl._mono_mul expands it."""
        if not (a.terms and b.terms):
            self.charge(self.width, pos)
        right = [(mb, cb, _weight(cb)) for mb, cb in b.terms.items()]
        acc = {}
        for ma, ca in a.terms.items():
            ad, weight = ma[1], self.width * _weight(ca)
            for mb, cb, weight_b in right:
                terms, bits = weight * weight_b, 0
                for d, x in zip(ad, mb[0]):
                    k = min(d, x)
                    terms *= k + 1
                    bits += k * (d.bit_length() + x.bit_length())
                self.charge(terms * _bits_weight(bits), pos)
                c = ca * cb
                for mono, k in weyl._mono_mul(ma, mb).items():
                    nc = acc.get(mono, 0) + c * k
                    if nc:
                        acc[mono] = nc
                    else:
                        del acc[mono]
        return WeylElement._of(self.n, weyl._tidy(acc))

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def expr(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        acc = {}  # one dict for the whole sum, so a long sum takes linear time
        while True:
            for mono, c in self.term().terms.items():
                nc = acc.get(mono, 0) + sign * c
                if nc:
                    acc[mono] = nc
                else:
                    del acc[mono]
            if self.peek()[0] not in ("+", "-"):
                return WeylElement._of(self.n, weyl._tidy(acc))
            sign = 1 if self.advance()[0] == "+" else -1

    def term(self):
        pos = self.peek()[2]
        e = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
            elif kind not in ("name", "int", "("):
                return e
            e = self.multiply(e, self.factor(), pos)

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            _, digits, pos = self.expect("int")
            k = _integer(digits, pos)
            if e.is_pure_term:
                self.charge(self.width, pos)
                e = _closed_power(e, k, pos)
                continue
            power = WeylElement.one(self.n)
            for _ in range(k):
                power = self.multiply(power, e, pos)
            e = power
        return e

    def atom(self):
        kind, value, pos = self.advance()
        if kind in ("name", "int"):
            self.charge(self.width, pos)
        if kind == "name":
            sort, idx, alias = _resolve(value, pos)
            if idx >= self.n or alias and self.n > 4:
                raise ParseError(f"unknown name {value!r} for n={self.n}", pos)
            return WeylElement.x(idx, self.n) if sort == "x" else WeylElement.d(idx, self.n)
        if kind == "int":
            num = _integer(value, pos)
            if self.peek()[0] == "/":
                self.advance()
                _, digits, at = self.expect("int")
                den = _integer(digits, at)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return WeylElement.scalar(self.n, Fraction(num, den))
            return WeylElement.scalar(self.n, num)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {value!r}", pos)


def _closed_power(base, k, pos):
    """base ** k for a base of one term in x alone or d alone, refused
    before it is taken when its coefficient could not be printed.

    c ** k has a numerator of at least 2^(k * floor(log2 |num c|)), and a
    denominator likewise, so above the bits that the interpreter's
    int-to-string limit prints (sys.get_int_max_str_digits, or its
    default when the limit is off) the power is refused; the exponent
    itself is free.
    """
    c = Fraction(next(iter(base.terms.values())))
    bits = k * (max(abs(c.numerator), c.denominator).bit_length() - 1)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    digits = (get_limit() if get_limit else 0) or getattr(sys.int_info, "default_max_str_digits", 4300)
    if bits > digits * math.log2(10):
        raise ParseError(f"power with a coefficient of at least 2^{bits}, more than {digits} digits", pos)
    return base ** k


def _bits_weight(s):
    """The cost of arithmetic on s bits relative to a small int's: its
    additions grow as s and its long multiplications and gcds as s^2."""
    return 1 + (s >> 10) + (s * s >> 24)


def _weight(c):
    """The cost of a coefficient's arithmetic: a Fraction costs about
    twice as much as an int of as many bits."""
    if type(c) is int:
        return _bits_weight(c.bit_length())
    return 2 * _bits_weight(c.numerator.bit_length() + c.denominator.bit_length())


def parse(text, n=None):
    """Parse text into a WeylElement of the n-th Weyl algebra.

    When n is omitted it is inferred as the smallest variable count for
    which every name in the text resolves.
    """
    if n is None:
        n = infer_variable_count(text)
    if n < 1:
        raise ValueError("need at least one variable")
    return _Parser(text, n).parse()
