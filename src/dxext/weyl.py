"""Exact arithmetic in the Weyl algebra over the rationals.

The n-th Weyl algebra D_n is generated by x_1..x_n and d_1..d_n subject
to d_i x_i = x_i d_i + 1, all other pairs of generators commuting.
Elements are stored in normal order (every x to the left of every d)
as a dict mapping (x_exponents, d_exponents) to a nonzero coefficient,
so equality, hashing and arithmetic are exact.  A coefficient has one
normal form: an int when it is integral, a Fraction only when it is
not.  Integer arithmetic then never enters Fraction.

Products are normal-ordered through the closed per-variable formula

    d^b x^a = sum_k  C(b,k) * a!/(a-k)! * x^(a-k) d^(b-k)

which avoids the quadratic blowup of rewriting one commutator at a time.
A polynomial factor needs less: on the left it only shifts x exponents,
and on the right mul_terms reads its partial derivatives, which the
D/fD row kernel (models.DXQuotientModule) shares.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, ge, le, neg, sub

from .linalg import primitive

__all__ = [
    "Filtration",
    "WeylElement",
    "SymbolPoly",
    "variable_names",
    "dual_names",
    "mul_terms",
    "graded_key",
    "pseudo_divide_left",
    "divide_left",
]


class Filtration(Enum):
    """Filtration used for degrees and principal symbols."""

    BERNSTEIN = "bernstein"  # total degree in all x_i and d_i
    ORDER = "order"          # total degree in the d_i only


def variable_names(n):
    """Display names for the polynomial variables (aliases for n <= 4)."""
    if n <= 4:
        return ["x", "y", "z", "w"][:n]
    return [f"x{i + 1}" for i in range(n)]


def dual_names(n):
    """Display names for the differentials."""
    if n <= 4:
        return ["dx", "dy", "dz", "dw"][:n]
    return [f"d{i + 1}" for i in range(n)]


def symbol_names(n):
    """Display names for the commuting symbols of the differentials."""
    if n <= 4:
        return ["sx", "sy", "sz", "sw"][:n]
    return [f"s{i + 1}" for i in range(n)]


def monomial_degree(mono, kind=Filtration.BERNSTEIN):
    xexp, dexp = mono
    if kind is Filtration.ORDER:
        return sum(dexp)
    return sum(xexp) + sum(dexp)


def _coefficient(c):
    """c in the normal form of a stored coefficient: an int when it is
    integral, else a Fraction.  Any value Fraction accepts is read
    exactly, so a float is stored as the rational it denotes."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _tidy(terms):
    """terms, every integral Fraction coefficient replaced by its int
    in place: the normal form of the sum or product of normal forms."""
    for mono, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


def _mono_mul(a, b):
    """Normal-ordered product of two monomials as a dict of terms.

    a = x^ax d^ad and b = x^bx d^bd; commuting d^ad past x^bx produces one
    term per vector k with 0 <= k_i <= min(ad_i, bx_i).  When no d_i of
    a meets an x_i of b, that is the single shifted monomial.
    """
    (ax, ad), (bx, bd) = a, b
    xs, ds = tuple(map(add, ax, bx)), tuple(map(add, ad, bd))
    if not any(map(min, ad, bx)):
        return {(xs, ds): 1}
    factors = [
        [(k, math.comb(di, k) * math.perm(xi, k)) for k in range(min(di, xi) + 1)]
        for di, xi in zip(ad, bx)
    ]
    out = {}
    for combo in itertools.product(*factors):
        ks, cs = zip(*combo)
        out[(tuple(map(sub, xs, ks)), tuple(map(sub, ds, ks)))] = math.prod(cs)
    return out


def _partials(terms, top):
    """The partial derivatives d^k p with 0 <= k <= top (slot by slot)
    of a polynomial p given by its term dict, as {k: {xexp: c}}; only
    the nonzero ones are kept, and k = 0 gives p itself."""
    out = {}
    for (xexp, _), c in terms.items():
        for k in itertools.product(*(range(min(e, t) + 1) for e, t in zip(xexp, top))):
            out.setdefault(k, {})[tuple(map(sub, xexp, k))] = c * math.prod(map(math.perm, xexp, k))
    return out


def mul_terms(a, b):
    """Normal-ordered product of two term dicts, as a term dict.

    A polynomial on the left only shifts the x exponents of b.  A
    polynomial g on the right takes the closed form

        x^a d^b g = sum_k  C(b,k) * x^a (d^k g) d^(b-k),

    with the partial derivatives d^k g taken only up to the d exponents
    that occur in a.  Any other product is expanded term pair by term
    pair through _mono_mul.
    """
    if not any(any(dexp) for _, dexp in a):
        return _polynomial_times(a, b)
    if not any(any(dexp) for _, dexp in b):
        return _times_polynomial(a, b)
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            c = ca * cb
            for mono, k in _mono_mul(ma, mb).items():
                nc = acc.get(mono, 0) + c * k
                if nc:
                    acc[mono] = nc
                else:
                    acc.pop(mono, None)
    return acc


def _polynomial_times(p, b):
    """p*b for a polynomial p: each term of b with its x exponents shifted."""
    acc = {}
    for (px, _), cp in p.items():
        for (bx, bd), cb in b.items():
            mono = tuple(map(add, px, bx)), bd
            nc = acc.get(mono, 0) + cp * cb
            if nc:
                acc[mono] = nc
            else:
                del acc[mono]
    return acc


def _times_polynomial(a, g):
    """a*g for a polynomial g, by the closed form of mul_terms."""
    parts = _partials(g, [max(col) for col in zip(*(dexp for _, dexp in a))])
    acc = {}
    for (ax, ad), ca in a.items():
        for k, part in parts.items():
            if not all(map(le, k, ad)):
                continue
            c, ds = ca * math.prod(map(math.comb, ad, k)), tuple(map(sub, ad, k))
            for px, pc in part.items():
                mono = tuple(map(add, ax, px)), ds
                nc = acc.get(mono, 0) + c * pc
                if nc:
                    acc[mono] = nc
                else:
                    del acc[mono]
    return acc


def graded_key(mono):
    """Sort key of the graded order: Bernstein degree, then the
    exponent tuple xexp + dexp lexicographically."""
    xexp, dexp = mono
    return (sum(xexp) + sum(dexp), xexp + dexp)


def _heap_entry(mono):
    """Min-heap entry that pops monomials in decreasing graded order."""
    xexp, dexp = mono
    return -sum(xexp) - sum(dexp), tuple(map(neg, xexp + dexp)), mono


def pseudo_divide_left(f, terms):
    """Fraction-free left division by f on integer term dicts.

    Returns (s, q, r) with s*terms = f*q + r, s a positive integer and
    no monomial of r divisible by lm(f).  This is pseudo-division
    (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R) term by term: when lc(f)
    does not divide the coefficient c of the leading term of the rest,
    everything is scaled by lc/gcd(c, lc) first, so with a unit leading
    coefficient s stays 1.  Only the terms lm(f) divides go on a heap,
    which pops them in decreasing graded order, so each one's graded key
    is computed once.  The others stay where they are and make up r: a
    subtraction only creates terms below the one it cancels, so it never
    reaches a larger term that lm(f) does not divide.  For a polynomial
    f each product f_m*x^a d^b is the single monomial x^(m + a) d^b.
    """
    lead, lc = max(f.items(), key=lambda t: graded_key(t[0]))
    lead_x, lead_d = lead
    lead_exps = lead_x + lead_d
    polynomial = not any(map(any, (dexp for _, dexp in f)))
    # lm(f)*x^a d^b is the cancelled leading term alone unless lm(f) has
    # a d part to commute past x^a
    subtract = list(f.items()) if any(lead_d) else [t for t in f.items() if t[0] != lead]
    rest = dict(terms)
    heap = [_heap_entry(mono) for mono in rest if all(map(ge, mono[0] + mono[1], lead_exps))]
    heapify(heap)
    s, q = 1, {}
    while heap:
        mono = heappop(heap)[2]
        c = rest.pop(mono, 0)
        if not c:
            continue  # cancelled after it was queued
        xexp, dexp = mono
        qx, qd = tuple(map(sub, xexp, lead_x)), tuple(map(sub, dexp, lead_d))
        if c % lc:
            m = abs(lc) // math.gcd(c, lc)
            s, c = s * m, c * m
            rest = {k: v * m for k, v in rest.items()}
            q = {k: v * m for k, v in q.items()}
        qc = c // lc
        q[(qx, qd)] = qc
        if polynomial:
            for (fx, _), fc in subtract:
                pm = tuple(map(add, fx, qx)), qd
                nc = rest.get(pm, 0) - qc * fc
                if nc:
                    if pm not in rest and all(map(ge, pm[0], lead_x)):
                        heappush(heap, _heap_entry(pm))
                    rest[pm] = nc
                else:
                    del rest[pm]
            continue
        for fm, fc in subtract:
            scale = qc * fc
            for pm, k in _mono_mul(fm, (qx, qd)).items():
                if pm == mono:
                    continue  # the leading term, cancelled by construction
                nc = rest.get(pm, 0) - scale * k
                if nc:
                    if pm not in rest and all(map(ge, pm[0] + pm[1], lead_exps)):
                        heappush(heap, _heap_entry(pm))
                    rest[pm] = nc
                else:
                    del rest[pm]
    return s, q, rest


def divide_left(f, terms):
    """Left division by f: (q, r) with terms = f*q + r, as term dicts.

    Each step cancels the leading term (in graded order) of the rest
    when lm(f) divides it, in both its x and its d part, and moves it to
    r otherwise.  The leading monomial of f*q is lm(f)*lm(q), because
    the Bernstein symbol is multiplicative, so {f} is a Groebner basis
    of the right ideal fD: r has no monomial divisible by lm(f), and it
    is zero exactly when terms lies in fD.  Such q and r are unique, so
    the division runs fraction-free on primitive integer forms of f and
    terms, and q and r are rescaled once at the end, into the normal
    form of WeylElement coefficients; a factor of 1 leaves them as the
    integer dicts they are.
    """
    a, fi = primitive(f)
    b, ti = primitive(terms)
    s, q, r = pseudo_divide_left(fi, ti)
    qs, rs = _coefficient(b / (a * s)), _coefficient(b / s)
    if qs != 1:
        q = _tidy({m: c * qs for m, c in q.items()})
    if rs != 1:
        r = _tidy({m: c * rs for m, c in r.items()})
    return q, r


def _unit(i, n):
    """The exponent tuple of the i-th of n variables."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range 0..{n - 1}")
    return tuple(int(j == i) for j in range(n))


class WeylElement:
    """An element of the n-th Weyl algebra with rational coefficients.

    terms maps (x_exponents, d_exponents) to a nonzero coefficient in
    normal form: an int when integral, else a Fraction.  The zero
    element has an empty term dict.  The constructor validates and
    normalizes its terms; arithmetic builds its results in normal form
    and skips that check.  Instances are treated as immutable; all
    operations return new elements.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for mono, coeff in (terms or {}).items():
            xexp, dexp = mono
            if len(xexp) != n or len(dexp) != n:
                raise ValueError(f"exponent tuples must have length {n}")
            if any(e < 0 for e in xexp) or any(e < 0 for e in dexp):
                raise ValueError("negative exponent")
            c = _coefficient(coeff)
            if c:
                clean[(tuple(xexp), tuple(dexp))] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _of(cls, n, terms):
        """The element with terms, which must already be in normal form."""
        elem = cls.__new__(cls)
        elem.n = n
        elem.terms = terms
        return elem

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def one(cls, n):
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n, c):
        zero = (0,) * n
        return cls.monomial(n, zero, zero, c)

    @classmethod
    def monomial(cls, n, xexp, dexp, coeff=1):
        xexp, dexp = tuple(xexp), tuple(dexp)
        if n < 1 or len(xexp) != n or len(dexp) != n or min(xexp + dexp) < 0:
            return cls(n, {(xexp, dexp): coeff})  # invalid: the constructor raises
        c = _coefficient(coeff)
        return cls._of(n, {(xexp, dexp): c} if c else {})

    @classmethod
    def x(cls, i, n):
        return cls.monomial(n, _unit(i, n), (0,) * n)

    @classmethod
    def d(cls, i, n):
        return cls.monomial(n, (0,) * n, _unit(i, n))

    # -- ring structure -------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.scalar(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            nc = terms.get(mono, 0) + c
            if nc:
                terms[mono] = nc
            else:
                del terms[mono]
        return WeylElement._of(self.n, _tidy(terms))

    __radd__ = __add__

    def __neg__(self):
        return WeylElement._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.scalar(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            terms = {m: c * v for m, v in self.terms.items()} if c else {}
            return WeylElement._of(self.n, _tidy(terms))
        self._check(other)
        return WeylElement._of(self.n, _tidy(mul_terms(self.terms, other.terms)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        """self^k.

        A single term with no d, c*x^a, has the power c^k*x^(k*a), and
        one with no x likewise, so any exponent costs no product.  Any
        other element is multiplied by self k times: its powers grow
        under normal ordering (or are dense polynomials), and there a
        product by the short factor costs less than squaring the long
        power, as square-and-multiply would.
        """
        if k < 0:
            raise ValueError("negative power")
        if self.is_pure_term:
            ((xexp, dexp), c), = self.terms.items()
            power = [k * e for e in xexp], [k * e for e in dexp]
            return WeylElement.monomial(self.n, *power, c ** k)
        out = WeylElement.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.scalar(self.n, other)
        return isinstance(other, WeylElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries ----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_polynomial(self):
        """True when no differential occurs (element of C[x_1..x_n])."""
        return all(not any(dexp) for _, dexp in self.terms)

    @property
    def is_pure_term(self):
        """True for one term with no d (c*x^a) or no x (c*d^b)."""
        return len(self.terms) == 1 and not all(map(any, next(iter(self.terms))))

    def degree(self, kind=Filtration.BERNSTEIN):
        """Filtration degree; None is the degree of the zero element."""
        if not self.terms:
            return None
        return max(monomial_degree(m, kind) for m in self.terms)

    def principal_symbol(self, kind=Filtration.BERNSTEIN):
        """Top filtration part as a commutative polynomial in x_i, s_i."""
        top = self.degree(kind)
        terms = {m: c for m, c in self.terms.items() if monomial_degree(m, kind) == top}
        return SymbolPoly._of(self.n, terms)

    def coefficient(self, xexp, dexp):
        return self.terms.get((tuple(xexp), tuple(dexp)), 0)

    # -- display ----------------------------------------------------------

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"WeylElement({self.n}, {format_element(self)!r})"


class SymbolPoly:
    """Commutative polynomial in x_1..x_n and the symbols s_1..s_n.

    This is the value of a principal symbol: the class of a filtered
    element in the associated graded ring, where every d_i commutes and
    is written s_i.  Coefficients have WeylElement's normal form.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = _coefficient(coeff)
            if c:
                clean[(tuple(mono[0]), tuple(mono[1]))] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _of(cls, n, terms):
        """The polynomial with terms, which must already be in normal form."""
        poly = cls.__new__(cls)
        poly.n = n
        poly.terms = terms
        return poly

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            nc = terms.get(mono, 0) + c
            if nc:
                terms[mono] = nc
            else:
                del terms[mono]
        return SymbolPoly._of(self.n, _tidy(terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            terms = {m: c * v for m, v in self.terms.items()} if c else {}
            return SymbolPoly._of(self.n, _tidy(terms))
        acc = {}
        for (ax, ad), ca in self.terms.items():
            for (bx, bd), cb in other.terms.items():
                mono = tuple(map(add, ax, bx)), tuple(map(add, ad, bd))
                nc = acc.get(mono, 0) + ca * cb
                if nc:
                    acc[mono] = nc
                else:
                    del acc[mono]
        return SymbolPoly._of(self.n, _tidy(acc))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SymbolPoly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        xnames = variable_names(self.n)
        snames = symbol_names(self.n)
        chunks = []
        order = sorted(self.terms.items(), key=lambda kv: graded_key(kv[0]), reverse=True)
        for (xe, se), c in order:
            factors = _mono_factors(xe, xnames) + _mono_factors(se, snames)
            chunks.append(_render_term(c, factors))
        return _join_terms(chunks)

    def __repr__(self):
        return f"SymbolPoly({self.n}, {str(self)!r})"


# -- canonical text form ----------------------------------------------------


def _mono_factors(exps, names):
    out = []
    for e, name in zip(exps, names):
        if e == 1:
            out.append(name)
        elif e > 1:
            out.append(f"{name}^{e}")
    return out


def _render_term(coeff, factors):
    """Return (sign, body) for one term."""
    sign = "-" if coeff < 0 else "+"
    mag = -coeff if coeff < 0 else coeff
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = "*".join(factors)
    else:
        body = f"{mag}*" + "*".join(factors)
    return sign, body


def _join_terms(chunks):
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def format_element(elem):
    """Canonical text form: graded-lex order, explicit '*', p/q coefficients.

    parse(format_element(e), e.n) == e for every element.
    """
    if not elem.terms:
        return "0"
    xnames = variable_names(elem.n)
    dnames = dual_names(elem.n)
    order = sorted(elem.terms.items(), key=lambda kv: graded_key(kv[0]), reverse=True)
    chunks = []
    for (xe, de), c in order:
        factors = _mono_factors(xe, xnames) + _mono_factors(de, dnames)
        chunks.append(_render_term(c, factors))
    return _join_terms(chunks)
