"""Right modules over the Weyl algebra given by explicit basis actions.

Each model lists its labeled basis one degree at a time and gives the
right action of every normal-ordered monomial on a basis label, in
closed form, as a finite combination of labels.  That is enough to act
by arbitrary elements, to check the module axioms exactly, and to run
the Ext computations.

The model protocol, read by the engine, its label indexes and the CLI:

  n                      number of variables
  name                   the model's command-line spec, e.g. "delta:2"
  labels(d)              the labels of exact degree d, in a fixed order;
                         basis(module, m) concatenates labels(0..m)
  degree(label)          the degree d with label in labels(d)
  act(label, mono)       label . x^a d^b as {label: int or Fraction},
                         for the monomial mono = (a, b) of exponent
                         tuples; a generator acts through its unit
                         monomial (generator(kind, i, n))
  mf_level_bound(f, m)   a label degree N such that the rows v*f with
                         deg v <= N span M*f meet F_m, or None when the
                         model has no such bound
  label(ints)            the label written as the flat integers that
                         label_ints gives, or None when those integers
                         name no basis label
  columns                optional, when the labels pack as Weyl
                         monomials in lexicographic order within a
                         degree: their packing into int columns, a
                         grading.MonomialColumns; the engine then
                         indexes labels by column, with no label table
  shift_x                optional, with columns: an i such that adding
                         columns.weights[i] to every column is a
                         one-to-one linear map of the module that raises
                         the degree by one and commutes with right
                         multiplication by every polynomial; the engine
                         widens through it
  unshifted_labels(d)    with shift_x: the labels of degree d whose
                         column is not a degree d - 1 column plus that
                         step, in the order of labels(d)

The x-shift is left multiplication by x on FreeWeylModule, and by an
x_i that lm(f) lacks on DXQuotientModule when its divisor is a
polynomial (see its docstring); on LineICModule, whose (i, j) packs as
the one-variable monomial x^i d^j, it is the right action of x,
(i, j) -> (i+1, j).  DeltaModule and KummerICModule list every label:
x lowers the degree on delta, and on Kummer for k < 0.  DXQuotientModule
adds row(label, elem), the integer row the engine eliminates, on its
columns.

Shipped models:

  FreeWeylModule(n)      D itself; labels are Weyl monomials
  DeltaModule(n)         C[d_1..d_n], the module supported at the origin
  LineICModule(lines)    C[x] tensor C[dy]: the minimal extension of the
                         trivial rank-one system on a punctured line,
                         pushed into the plane along the x-axis
  KummerICModule(lam)    basis e_k tensor dy^j, k in Z: the minimal
                         extension of the rank-one system with monodromy
                         exp(2*pi*i*lam), lam a non-integer rational
  DXQuotientModule(f)    D/fD with canonical monomial representatives

Every model acts with int coefficients wherever they are integral
and with Fractions elsewhere (Kummer's -(lam+k), some remainders of
D/fD's division), as WeylElement stores its coefficients, so act_word
takes integer combinations to integer combinations under an element
with integral coefficients.

Right-action sign conventions on the line models follow the volume-form
realization of a right module: x^i . dx = -i x^(i-1) on the polynomial
factor and e_k . dx = -(lam+k) e_(k-1) on the Kummer factor.  These are
the unique signs under which the defining relation dx * x = x * dx + 1
holds on the right, which check_module_axioms verifies.

Each act composes its generator actions in closed form, x^a first and
then d^b, with perm(m, k) = m!/(m-k)! (zero for k > m):

  delta    e . x^a d^b = prod_i perm(e_i, a_i) * (e - a + b)
  line     (i, j) . x^a d^b = (-1)^(b_x) perm(j, a_y) perm(i + a_x, b_x)
           * (i + a_x - b_x, j - a_y + b_y)
  Kummer   (k, j) . x^a d^b = perm(j, a_y) prod_(t < b_x) -(lam + k + a_x - t)
           * (k + a_x - b_x, j - a_y + b_y)
  free     x^p d^q . x^a d^b = sum_(k <= q, a) C(q, k) perm(a, k)
           * x^(p + a - k) d^(q + b - k), products over the variables
  D/fD     the remainder of one left division of label * mono by f
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, lt, sub

from .grading import MonomialColumns, compositions, monomials_of_degree, require_variables
from .linalg import primitive
from .parser import parse
from .weyl import _mono_mul, _partials, _unit, divide_left, graded_key, mul_terms, pseudo_divide_left

__all__ = [
    "FreeWeylModule",
    "DeltaModule",
    "LineICModule",
    "KummerICModule",
    "DXQuotientModule",
    "act_combination",
    "act_word",
    "basis",
    "check_module_axioms",
    "generator",
    "label_ints",
    "parse_model",
]


def _merge(acc, comb, c=1):
    for label, v in comb.items():
        nv = acc.get(label, 0) + v * c
        if nv:
            acc[label] = nv
        else:
            acc.pop(label, None)
    return acc


def basis(module, deg_bound):
    """The labels of degree <= deg_bound, degree by degree."""
    return [label for d in range(deg_bound + 1) for label in module.labels(d)]


def label_ints(label):
    """A label as flat integers: its parts in order, each tuple spliced in."""
    return [int(v) for part in label for v in (part if isinstance(part, tuple) else (part,))]


def _monomial_label(ints, n):
    """The Weyl monomial label (xexp, dexp) read from 2n integers >= 0, else None."""
    return (tuple(ints[:n]), tuple(ints[n:])) if len(ints) == 2 * n and min(ints) >= 0 else None


def generator(kind, i, n):
    """The unit monomial of x_i (kind "x") or d_i (kind "d") in n variables."""
    unit, zero = _unit(i, n), (0,) * n
    return (unit, zero) if kind == "x" else (zero, unit)


def act_combination(module, comb, mono):
    """Extend the action of one monomial linearly to a combination of labels."""
    acc = {}
    for label, c in comb.items():
        _merge(acc, module.act(label, mono), c)
    return acc


def act_word(module, comb, elem):
    """Right action of a Weyl element: comb . elem.

    Each label of comb meets each normal-ordered term of elem once,
    through the model's closed-form action of the term's monomial; the
    results are summed with the products of the coefficients.  An
    integral coefficient is stored as an int, so integer combinations
    acted on by an element with integral coefficients stay integers.
    """
    if elem.n != module.n:
        raise ValueError("variable count mismatch")
    acc, act, terms = {}, module.act, elem.terms.items()
    for label, c in comb.items():
        for mono, e in terms:
            ce = c * e
            for out, v in act(label, mono).items():
                nv = acc.get(out, 0) + ce * v
                if nv:
                    acc[out] = nv
                else:
                    acc.pop(out, None)
    return acc


@dataclass
class AxiomViolation:
    label: object
    relation: str
    difference: dict


@dataclass
class AxiomReport:
    checked_degree: int
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def check_module_axioms(module, deg_bound):
    """Verify the Weyl relations on every basis label up to deg_bound.

    Checks d_i x_i = x_i d_i + 1, commutation of every other generator
    pair, and that degrees rise by at most one per generator.
    """
    report = AxiomReport(deg_bound)
    gens = [("x", i) for i in range(module.n)] + [("d", i) for i in range(module.n)]
    unit = {g: generator(*g, module.n) for g in gens}
    for label in basis(module, deg_bound):
        base = {label: 1}
        for gi, gj in itertools.combinations(gens, 2):
            ab = act_combination(module, act_combination(module, base, unit[gi]), unit[gj])
            ba = act_combination(module, act_combination(module, base, unit[gj]), unit[gi])
            expected = {}
            if gi[1] == gj[1] and gi[0] != gj[0]:
                # (m.d_i).x_i = (m.x_i).d_i + m, so the commutator of the
                # two action orders is -m when x acts first, +m otherwise.
                expected = {label: -1} if gi[0] == "x" else dict(base)
            diff = _merge(dict(ab), ba, -1)
            diff = _merge(diff, expected, -1)
            if diff:
                report.violations.append(AxiomViolation(label, f"{gi}~{gj}", diff))
        for g in gens:
            for out in module.act(label, unit[g]):
                if module.degree(out) > module.degree(label) + 1:
                    report.violations.append(
                        AxiomViolation(label, f"degree jump under {g}", {out: 1})
                    )
    return report


class FreeWeylModule:
    """D as a right module over itself; labels are monomials."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.name = f"free:{n}"
        self.shift_x = 0

    @functools.cached_property
    def columns(self):
        # built on first use, after the engine has checked the variable count
        return MonomialColumns(self.n)

    def labels(self, d):
        return list(monomials_of_degree(self.n, d))

    def unshifted_labels(self, d):
        n = self.n
        return [((0,) + e[: n - 1], e[n - 1 :]) for e in compositions(d, 2 * n - 1)]

    def degree(self, label):
        return sum(label[0]) + sum(label[1])

    def label(self, ints):
        return _monomial_label(ints, self.n)

    def act(self, label, mono):
        # the Leibniz sum, built one variable at a time as (xexp, dexp,
        # coefficient) triples
        terms = [((), (), 1)]
        for p, q, a, b in zip(*label, *mono):
            x, d, top = p + a, q + b, min(q, a)
            if top:
                steps = [(k, math.comb(q, k) * math.perm(a, k)) for k in range(top + 1)]
                terms = [(xe + (x - k,), de + (d - k,), c * s) for xe, de, c in terms for k, s in steps]
            else:
                terms = [(xe + (x,), de + (d,), c) for xe, de, c in terms]
        return {(xe, de): c for xe, de, c in terms}

    def mf_level_bound(self, f, level):
        # Degree additivity in a domain: v*f nonzero has degree
        # deg v + deg f, so F_level meets M*f inside (F_(level-deg f))*f.
        return level - f.degree()


class DeltaModule:
    """C[d_1..d_n]: the right module supported at the origin."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.name = f"delta:{n}"

    def labels(self, d):
        return list(compositions(d, self.n))

    def degree(self, label):
        return sum(label)

    def label(self, ints):
        return tuple(ints) if len(ints) == self.n and min(ints) >= 0 else None

    def act(self, label, mono):
        a, b = mono
        c = math.prod(map(math.perm, label, a))
        return {tuple(map(add, map(sub, label, a), b)): c} if c else {}

    def mf_level_bound(self, f, level):
        return _homogeneous_mf_level_bound(f, level)


def _homogeneous_mf_level_bound(f, level):
    """Generator bound for delta and the line models, exact for homogeneous f.

    On delta, acting by x-homogeneous f of degree s shifts the grading
    by exactly -s, so F_level meets M*f inside (F_(level+s))*f.  On the
    line models, acting by homogeneous f of degree s shifts the
    auxiliary grading (x or e exponent minus dy exponent) by exactly
    s.  Within one auxiliary grade the labels are totally ordered by dy
    exponent, and v*f has a nonzero component at the dy level just
    below v's top (through f's lowest y-power monomial, with leading
    coefficient a nonzero falling factorial).  That triangularity
    forces any member of M*f lying in filtration level m to be a
    combination of v*f with deg v <= m + s; see the hyperext module
    docstring for why no such bound exists in the two-sided case.
    """
    if not f.is_polynomial:
        return None
    degs = {sum(xexp) for xexp, _ in f.terms}
    if len(degs) != 1:
        return None
    return level + degs.pop()


class _PairColumns(MonomialColumns):
    """The pairs (i, j) packed as the one-variable monomials x^i d^j."""

    __slots__ = ()

    def __init__(self):
        super().__init__(1)

    def column(self, label):
        return super().column(((label[0],), (label[1],)))

    def label(self, column):
        (i,), (j,) = super().label(column)
        return i, j


class LineICModule:
    """C[x] tensor C[dy] with basis (i, j) = x^i dy^j, degree i + j.

    (i, j) packs as the one-variable monomial x^i d^j (columns), and the
    right action of x, (i, j) -> (i+1, j), adds columns.weights[0]
    (shift_x), so only (0, d) is not the x-shift of a lower label.
    """

    columns = _PairColumns()
    shift_x = 0

    def __init__(self, lines=2):
        if lines < 1:
            raise ValueError("need at least one line")
        self.n = 2
        self.lines = lines
        self.name = f"nlines-ic:{lines}"

    def labels(self, d):
        return [(i, d - i) for i in range(d + 1)]

    def unshifted_labels(self, d):
        return [(0, d)]

    def degree(self, label):
        return label[0] + label[1]

    def label(self, ints):
        return tuple(ints) if len(ints) == 2 and min(ints) >= 0 else None

    def act(self, label, mono):
        (i, j), ((ax, ay), (bx, by)) = label, mono
        i += ax
        c = math.perm(j, ay) * math.perm(i, bx)
        if not c:
            return {}
        return {(i - bx, j - ay + by): -c if bx & 1 else c}

    def mf_level_bound(self, f, level):
        return _homogeneous_mf_level_bound(f, level)


class KummerICModule:
    """Basis e_k tensor dy^j with k in Z; e_k stands for x^(lam+k).

    lam must be a non-integer rational, so multiplication by x is
    bijective on the e_k line and the module is simple.  The degree of
    (k, j) is |k| + j, which makes every filtered piece finite.
    """

    def __init__(self, lam, lines=2):
        lam = Fraction(lam)
        if lam.denominator == 1:
            raise ValueError("lam must be a non-integer rational")
        if lines < 1:
            raise ValueError("need at least one line")
        self.lam = lam
        self._p, self._q = lam.numerator, lam.denominator
        self.n = 2
        self.lines = lines
        self.name = f"kummer:{lines}:{lam}"

    def labels(self, d):
        out = []
        for j in range(d + 1):
            r = d - j
            out.extend([(-r, j), (r, j)] if r else [(0, j)])
        return out

    def degree(self, label):
        return abs(label[0]) + label[1]

    def label(self, ints):
        # k in Z, only the dy exponent j is bounded below
        return tuple(ints) if len(ints) == 2 and ints[1] >= 0 else None

    def act(self, label, mono):
        (k, j), ((ax, ay), (bx, by)) = label, mono
        c = math.perm(j, ay)
        if not c:
            return {}
        k += ax
        if bx:
            # -(lam + m) = -(p + m*q)/q for lam = p/q
            p, q = self._p, self._q
            c = Fraction(c * math.prod(-(p + (k - t) * q) for t in range(bx)), q**bx)
            if c.denominator == 1:
                c = c.numerator
        return {(k - bx, j - ay + by): c}

    def mf_level_bound(self, f, level):
        return _homogeneous_mf_level_bound(f, level)


class DXQuotientModule:
    """D/fD with canonical representatives.

    The leading monomial of a product f*h is lm(f)*lm(h) in the graded
    order on xexp + dexp, so {f} is a Groebner basis of fD.  The
    standard monomials, those lm(f) does not divide, label the basis,
    listed in graded order, and the normal form of an element is its
    remainder under left division by f.  labels(d) lists them in
    lexicographic order of their exponents (_standard_labels), which is
    the order of their packed columns (columns).

    row(label, elem) is the fraction-free remainder of label*elem on
    columns: an integer vector that is a nonzero multiple of
    NF(label*elem), or empty when that is zero.  An echelon stores the
    primitive form of each row with a positive pivot, so it cannot tell
    a row from NF.

    Rows of a polynomial divisor: x^a*f*d^b = f*x^a*d^b lies in fD, and
    d^b*f = sum_k C(b,k)*(d^k f)*d^(b-k) with d^k f the partial
    derivative (C(b,k) the product of the binomials C(b_i,k_i)), so

      NF(x^a d^b * f) = sum_{0 < k <= b} C(b,k) * NF(x^a * d^k f) * d^(b-k)

    with no Weyl product.  Division by a polynomial acts on the x part
    of each d-monomial alone, so each NF(x^a * d^k f) is a polynomial,
    computed once per (a, k) and kept on the module as a piece: its
    columns minus the column of d^k, so that adding the column of d^b
    gives the columns of NF(x^a * d^k f) * d^(b-k).  Pseudo-division
    gives it as s*NF with a positive integer s; the pieces of one x^a
    are kept at the lcm of their s, so every row is a positive multiple
    of NF.  Any other elem, and every elem when f has a d part, takes
    the full product label*elem.

    shift_x exists when f is a polynomial and lm(f) misses some x_i:
    it names the first such x_i, and the x-shift is left multiplication
    by it.  That maps standard monomials to standard monomials (lm(f)
    divides x_i*m only if it divides m), so x_i*NF(h) = NF(x_i*h), and
    it commutes with right multiplication because f commutes with x_i.
    CokernelEngine widens through it as chains of its echelon rows.  A
    monomial without x_i is standard exactly when it is standard for
    lm(f) without its x_i slot, so unshifted_labels lists those directly.
    """

    def __init__(self, f):
        if f.is_zero:
            raise ValueError("f must be nonzero")
        require_variables(f.n)
        self.f = f
        self.n = f.n
        self.name = f"dx:{f}"
        self.columns = MonomialColumns(f.n)
        self._zero = (0,) * f.n
        self._f_ints = primitive(f.terms)[1]
        lead_x, lead_d = max(f.terms, key=graded_key)
        self._lead = lead_x + lead_d
        self._polynomial = f.is_polynomial
        if self._polynomial:
            tops = [max(col) for col in zip(*(xexp for xexp, _ in f.terms))]
            self._partials = {k: p for k, p in _partials(self._f_ints, tops).items() if any(k)}
            self._parts = {}  # {xexp: _x_parts(xexp)}
            if 0 in lead_x:
                self.shift_x = i = lead_x.index(0)
                self._free_lead = self._lead[:i] + self._lead[i + 1:]

    def labels(self, d):
        return _standard_labels(d, self._lead, self.n)

    def unshifted_labels(self, d):
        i = self.shift_x
        return [(xs[:i] + (0,) + xs[i:], ds) for xs, ds in _standard_labels(d, self._free_lead, self.n - 1)]

    def degree(self, label):
        return sum(label[0]) + sum(label[1])

    def label(self, ints):
        label = _monomial_label(ints, self.n)
        return label if label and any(map(lt, ints, self._lead)) else None

    def reduce_element(self, elem):
        """Canonical representative of elem modulo fD as a combination."""
        return divide_left(self.f.terms, elem.terms)[1]

    def row(self, label, elem):
        """Integer vector on columns: a multiple of NF(label*elem),
        nonzero iff that is."""
        if elem.terms != self.f.terms:
            ints = primitive(elem.terms)[1]
        elif self._polynomial:
            return self._divisor_row(label)
        else:
            ints = self._f_ints
        product = mul_terms({label: 1}, ints)
        column = self.columns.column
        return {column(m): c for m, c in pseudo_divide_left(self._f_ints, product)[2].items()}

    def _divisor_row(self, label):
        """A positive multiple of NF(label*f) on columns, from f's partial
        derivatives."""
        xexp, dexp = label
        parts = self._parts.get(xexp)
        if parts is None:
            parts = self._x_parts(xexp)
        base, row = self.columns.column((self._zero, dexp)), {}
        for k, kcol, piece in parts:
            if all(map(le, k, dexp)):
                c, t = math.prod(map(math.comb, dexp, k)), base - kcol
                row.update({m + t: c * v for m, v in piece.items()})
        return row

    def _x_parts(self, xexp):
        """(k, the column of d^k, L*NF(x^xexp * d^k f) on columns) for each
        partial derivative d^k f whose piece is nonzero, all at one scale
        L > 0."""
        zero, column, parts = self._zero, self.columns.column, []
        for k, partial in self._partials.items():
            terms = {(tuple(map(add, xexp, m)), zero): c for m, c in partial.items()}
            s, _, r = pseudo_divide_left(self._f_ints, terms)
            if r:
                parts.append((k, s, r))
        scale = math.lcm(*(s for _, s, _ in parts))
        parts = self._parts[xexp] = [
            (k, column((zero, k)), {column(m): c * (scale // s) for m, c in r.items()}) for k, s, r in parts
        ]
        return parts

    def act(self, label, mono):
        return divide_left(self.f.terms, _mono_mul(label, mono))[1]

    def mf_level_bound(self, f, level):
        return None  # no a-priori bound for sums v*f + f*h in the quotient


def _standard_labels(d, lead, nx):
    """The exponent pairs (xexp, dexp) of degree d, xexp on the first nx
    of lead's slots and dexp on the rest, that lead does not divide, in
    lexicographic order.

    The walk goes part by part.  While every part so far is at least
    lead's exponent there, lead may still divide, so it goes on to the
    next part, and skips it when lead's remaining exponents are all zero
    (no completion can then be standard).  Once a part falls below
    lead's, every completion is standard and is listed whole through
    grading.compositions, straight into (xexp, dexp) pairs.
    """
    last, nd = len(lead) - 1, len(lead) - nx
    live = [any(lead[k:]) for k in range(last + 1)]
    out = []

    def complete(prefix, rest):
        # every completion of prefix is standard: list them in order,
        # taking the rest of the x part with a slack part that the d part
        # then fills
        k = len(prefix)
        if k < nx:
            for xs in compositions(rest, nx - k + 1):
                out.extend(zip(itertools.repeat(prefix + xs[:-1]), compositions(xs[-1], nd)))
        else:
            xexp, dhead = prefix[:nx], prefix[nx:]
            tails = compositions(rest, last + 1 - k)
            out.extend(zip(itertools.repeat(xexp), (dhead + t for t in tails) if dhead else tails))

    def walk(prefix, k, rest):
        # each part in prefix is >= lead's there; a standard label
        # needs a later part below lead's, so live[k] must hold
        if k == last:
            if rest < lead[k]:
                out.append((prefix[:nx], prefix[nx:] + (rest,)))
            return
        for head in range(rest + 1):
            if head < lead[k]:
                complete(prefix + (head,), rest - head)
            elif live[k + 1]:
                walk(prefix + (head,), k + 1, rest - head)

    if live[0] and d >= 0:
        walk((), 0, d)
    return out


def parse_model(text):
    """Build a model from its command-line serialization."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "free" and len(parts) == 2:
            return FreeWeylModule(int(parts[1]))
        if kind == "delta" and len(parts) == 2:
            return DeltaModule(int(parts[1]))
        if kind == "nlines-ic" and len(parts) == 2:
            return LineICModule(int(parts[1]))
        if kind == "kummer" and len(parts) == 3:
            return KummerICModule(Fraction(parts[2]), int(parts[1]))
        if kind == "dx" and len(parts) == 2:
            return DXQuotientModule(parse(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad model spec {text!r}: {exc}") from None
    raise ValueError(f"bad model spec {text!r}")
