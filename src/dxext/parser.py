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
of single terms in which no x meets a d of an earlier factor.  Such a
power is refused only when its coefficient would have more digits than
the interpreter prints.
A power of any other base counts its exponent times the base's degree,
at least 1, as __pow__ takes that many products even of a constant.
A power of a base with several terms is multiplied out only once it
is added to or multiplied by something within the bound, so a nested
power or a product of powers above it fails before any product.

Degree alone does not bound the work in several variables, so every
product is also checked, before it is taken, against two bounds.  Its
operands' term pairs, capped by C(D + v, v), the number of monomials
of degree <= D in the v generators that occur in its operands, which
bounds the terms of a product of degree D (normal ordering only lowers
exponents), must not exceed MAX_TERMS.  And its work, the term pairs
times the most terms one pair can expand to (the product over i of
min(e_i, a_i) + 1, for the largest exponents e_i of d_i on the left and
a_i of x_i on the right), must not exceed MAX_WORK.  Deferred powers
and the partial products of a term are counted by bounds, so a whole
term is checked before anything in it is multiplied.  A power base^k
is checked as its last product, base^(k-1) times base, once it is read.

Names: x1..xn and d1..dn always; for n <= 4 the aliases x,y,z,w and
dx,dy,dz,dw as well.  Products are noncommutative, left to right.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .weyl import WeylElement

__all__ = ["MAX_DEGREE", "MAX_TERMS", "MAX_WORK", "ParseError", "parse", "infer_variable_count"]

MAX_DEGREE = 64
MAX_TERMS = 4096
MAX_WORK = 1 << 20


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
        shape = _shape(factors[0])
        for b in factors[1:]:
            shape = _product_shape(shape, _shape(b), pos)
        e = _value(factors[0])
        for b in factors[1:]:
            e = e * _value(b)
        return e

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            _, value, pos = self.expect("int")
            base, k = (e.base, e.k * int(value)) if isinstance(e, _Power) else (e, int(value))
            if base.is_pure_term:
                e = _closed_power(base, k, pos)
                continue
            degree = k * max(base.degree() or 0, 1)
            if degree > MAX_DEGREE:
                raise ParseError(
                    f"power of degree {degree} above {MAX_DEGREE} needs a base of one "
                    "term in x alone or d alone", pos
                )
            if k > 1:
                _product_shape(_shape(_Power(base, k - 1)), _shape(base), pos)
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


def _shape(e):
    """(terms, degree, largest x exponents, largest d exponents, the
    generators that occur) of a factor; for a deferred power the terms
    are bounded by the monomials of its degree in those generators, and
    the exponents by k times the base's."""
    base, k = (e.base, e.k) if isinstance(e, _Power) else (e, 1)
    n = base.n
    xs = [k * max(col, default=0) for col in zip(*(x for x, _ in base.terms))] or [0] * n
    ds = [k * max(col, default=0) for col in zip(*(d for _, d in base.terms))] or [0] * n
    gens = {j for j, a in enumerate(xs + ds) if a}
    degree = k * (base.degree() or 0)
    terms = len(base.terms) if k == 1 else math.comb(degree + len(gens), len(gens))
    return terms, degree, xs, ds, gens


def _product_shape(left, right, pos):
    """The shape of the product of two shapes, with its terms bounded;
    refuses the product when it is above MAX_TERMS or MAX_WORK."""
    lt, ldeg, lx, ld, lgens = left
    rt, rdeg, rx, rd, rgens = right
    pairs, degree, gens = lt * rt, ldeg + rdeg, lgens | rgens
    monomials = math.comb(degree + len(gens), len(gens))
    if pairs > MAX_TERMS and min(pairs, monomials) > MAX_TERMS:
        raise ParseError(f"product of up to {min(pairs, monomials)} terms above {MAX_TERMS}", pos)
    work = pairs * math.prod(min(d, a) + 1 for d, a in zip(ld, rx))
    if work > MAX_WORK:
        raise ParseError(f"product of up to {work} term products above {MAX_WORK}", pos)
    xs, ds = [a + b for a, b in zip(lx, rx)], [a + b for a, b in zip(ld, rd)]
    return min(work, monomials), degree, xs, ds, gens


def _value(e):
    """e as a WeylElement, multiplying out a deferred power."""
    return e.base ** e.k if isinstance(e, _Power) else e


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
