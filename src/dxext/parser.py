"""Parser for the expression grammar of Weyl algebra elements.

Grammar (whitespace insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (['*'] factor)*          juxtaposition multiplies
    factor  := atom ('^' INT)*                 nonnegative integer powers
    atom    := NAME | NUMBER | '(' expr ')'
    NUMBER  := INT ['/' INT]                   rational literal p/q

Bernstein degree is additive in the Weyl algebra, so the parser knows
the degree of a product or power before it multiplies.  Every product
and power of degree above MAX_DEGREE is rejected, since its normal
ordering grows with the degree, except where the result is one term in
closed form: a power of one term in x alone or d alone, and a product
of single terms in which no x meets a d of an earlier factor.
A power of any other base counts its exponent times the base's degree,
at least 1, as __pow__ takes that many products even of a constant.
A power of a base with several terms is multiplied out only once it
is added to or multiplied by something within the bound, so a nested
power or a product of powers above it fails before any product.

Degree alone does not bound the work in several variables, so every
product is also checked, before it is taken, against MAX_TERMS: its
operands' term pairs, capped by C(D + v, v), the number of monomials
of degree <= D in the v generators that occur in its operands, which
bounds the terms of a product of degree D (normal ordering only lowers
exponents).  A power base^k is checked as its last product, base^(k-1)
times base, with base^(k-1) counted by that bound, once it is read.

Names: x1..xn and d1..dn always; for n <= 4 the aliases x,y,z,w and
dx,dy,dz,dw as well.  Products are noncommutative, left to right.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .weyl import WeylElement

__all__ = ["MAX_DEGREE", "MAX_TERMS", "ParseError", "parse", "infer_variable_count"]

MAX_DEGREE = 64
MAX_TERMS = 4096


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


def _name_table(n):
    table = {}
    for i in range(n):
        table[f"x{i + 1}"] = ("x", i)
        table[f"d{i + 1}"] = ("d", i)
    if n <= 4:
        for alias, i in _ALIASES.items():
            if i < n:
                table[alias] = ("x", i)
                table["d" + alias] = ("d", i)
    return table


def infer_variable_count(text):
    """Smallest n for which every name in the text resolves."""
    need = 1
    for kind, value, pos in _tokenize(text):
        if kind != "name":
            continue
        m = re.fullmatch(r"[xd](\d+)", value)
        if m:
            need = max(need, int(m.group(1)))
            continue
        base = value[1:] if value.startswith("d") and len(value) == 2 else value
        if base in _ALIASES and (len(value) <= 2):
            need = max(need, _ALIASES[base] + 1)
            continue
        raise ParseError(f"unknown name {value!r}", pos)
    return need


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.names = _name_table(n)

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

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return _value(e)

    def expr(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        e = self.term()
        if sign == 1 and self.peek()[0] not in ("+", "-"):
            return e  # a lone term passes through, perhaps not multiplied out
        e = _value(e) * sign
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = _value(self.term())
            e = e + t if op == "+" else e - t
        return e

    def term(self):
        pos = self.peek()[2]
        factors = [self.factor()]
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
            elif kind not in ("name", "int", "("):
                break
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        # a product of nonzero factors has the sum of their degrees, so a
        # term above the bound is refused before anything is multiplied
        degree = sum(e.degree() or 0 for e in factors)
        if degree > MAX_DEGREE and not _one_term(factors):
            raise ParseError(f"product of degree {degree} above {MAX_DEGREE}", pos)
        e = _value(factors[0])
        for b in factors[1:]:
            b = _value(b)
            degree = (e.degree() or 0) + (b.degree() or 0)
            _bound_terms(len(e.terms) * len(b.terms), degree, (e, b), pos)
            e = e * b
        return e

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            _, value, pos = self.expect("int")
            base, k = (e.base, e.k * int(value)) if isinstance(e, _Power) else (e, int(value))
            if base.is_pure_term:
                e = base ** k
                continue
            degree = k * max(base.degree() or 0, 1)
            if degree > MAX_DEGREE:
                raise ParseError(
                    f"power of degree {degree} above {MAX_DEGREE} needs a base of one "
                    "term in x alone or d alone", pos
                )
            if k > 1:
                d = base.degree() or 0
                pairs = _monomials((k - 1) * d, (base,)) * len(base.terms)
                _bound_terms(pairs, k * d, (base,), pos)
            e = _Power(base, k) if k > 1 and len(base.terms) > 1 else base ** k
        return e

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "name":
            entry = self.names.get(value)
            if entry is None:
                raise ParseError(f"unknown name {value!r} for n={self.n}", pos)
            sort, idx = entry
            if sort == "x":
                return WeylElement.x(idx, self.n)
            return WeylElement.d(idx, self.n)
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return WeylElement.scalar(self.n, Fraction(num, den))
            return WeylElement.scalar(self.n, num)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {value!r}", pos)


class _Power:
    """base ** k for a base of several terms, not multiplied out yet.

    Its degree, k * deg(base), is known without the product, so a
    product or power of it above MAX_DEGREE is refused before any work.
    """

    __slots__ = ("base", "k")

    def __init__(self, base, k):
        self.base, self.k = base, k

    def degree(self):
        return self.k * self.base.degree()


def _monomials(degree, elems):
    """C(degree + v, v): the monomials of degree <= degree in the v
    generators x_i, d_i that occur in elems."""
    gens = {j for e in elems for xexp, dexp in e.terms for j, a in enumerate(xexp + dexp) if a}
    return math.comb(degree + len(gens), len(gens))


def _bound_terms(pairs, degree, elems, pos):
    """Refuse a product of elems with this many term pairs and this
    degree when both the pairs and its monomial bound exceed MAX_TERMS."""
    if pairs > MAX_TERMS:
        work = min(pairs, _monomials(degree, elems))
        if work > MAX_TERMS:
            raise ParseError(f"product of up to {work} terms above {MAX_TERMS}", pos)


def _value(e):
    """e as a WeylElement, multiplying out a deferred power."""
    return e.base ** e.k if isinstance(e, _Power) else e


def _one_term(factors):
    """True when the factors are single terms whose product is one term:
    no x of a factor meets a d of a factor before it."""
    d_seen = set()
    for e in factors:
        if isinstance(e, _Power) or len(e.terms) != 1:
            return False
        (xexp, dexp), = e.terms
        if any(xexp[i] for i in d_seen):
            return False
        d_seen.update(i for i, b in enumerate(dexp) if b)
    return True


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
