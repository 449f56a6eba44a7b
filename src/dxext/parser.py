"""Parser for the expression grammar of Weyl algebra elements.

Grammar (whitespace insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (['*'] factor)*          juxtaposition multiplies
    factor  := atom ('^' INT)*                 nonnegative integer powers
    atom    := NAME | NUMBER | '(' expr ')'
    NUMBER  := INT ['/' INT]                   rational literal p/q

An exponent above MAX_EXPONENT is accepted only on a base of one term
in x alone or d alone, whose power has a closed form; any other base
would take that many products, with results that grow with each one.

Names: x1..xn and d1..dn always; for n <= 4 the aliases x,y,z,w and
dx,dy,dz,dw as well.  Products are noncommutative, left to right.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .weyl import WeylElement

__all__ = ["MAX_EXPONENT", "ParseError", "parse", "infer_variable_count"]

MAX_EXPONENT = 64


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
        return e

    def expr(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        e = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self):
        e = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
                e = e * self.factor()
            elif kind in ("name", "int", "("):
                e = e * self.factor()
            else:
                return e

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            _, value, pos = self.expect("int")
            k = int(value)
            if k > MAX_EXPONENT and not e.is_pure_term:
                raise ParseError(
                    f"exponent {k} above {MAX_EXPONENT} needs a base of one term "
                    "in x alone or d alone", pos
                )
            e = e ** k
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
