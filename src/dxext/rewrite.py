"""Diamond Lemma rewriting for two-sided monomial quotients.

A RewriteSystem holds rules that send a normal-ordered monomial to an
equivalent lower element (graded lex order, x before y before dx before
dy).  add_rule rewrites every monomial through PROBE_DEGREE that the
new rule applies to, rejects the rule if some output fails to
decrease, and otherwise keeps each (rule, reduct) pair in the system's
table.  Through PROBE_DEGREE, normal forms, confluence_check and
irreducible_dims read that table and call no rule; above it they call
the rules, and every rewrite there is checked to decrease, so every
reduction ends.  Normal forms walk the rewrites with an explicit stack
and a memo that lives for one call of normal_form or confluence_check,
and normal_form refuses an element above MAX_NF_DEGREE.  confluence_check
certifies unique normal forms by Bergman's fork check: visiting the
monomials in increasing order, it compares the normal forms of the
one-step reducts wherever two rules apply.

The node preset encodes the two-sided quotient by x*y: the span of
g*(x*y) and (x*y)*g over all g.  Its irreducible monomials are
P(dx,dy) and y*dy*P(dx,dy), which is what irreducible_dims counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grading import monomials_of_degree
from .tables import EXACT_GRADED, STABILIZED, TruncationLevel, TruncationTable
from .weyl import WeylElement, graded_key, monomial_degree

__all__ = [
    "RewriteRule",
    "RewriteSystem",
    "ConfluenceReport",
    "node_system",
    "confluence_check",
    "irreducible_dims",
    "PRESETS",
]


@dataclass
class RewriteRule:
    """One reduction: a monomial predicate plus its replacement element.

    Replacement coefficients may depend on the exponents of the matched
    monomial; the replacement must be strictly smaller in graded_key.
    """

    name: str
    applies: object  # callable(mono) -> bool
    rewrite: object  # callable(mono) -> WeylElement


# add_rule checks a new rule's decrease on every monomial through this
# degree, and the system keeps the reducts that check verified
PROBE_DEGREE = 8

# normal_form refuses an element above this Bernstein degree before it
# rewrites anything.  On the node the longest walk from one monomial is
# x^k dx^k's: 0.10 s at degree 4,096, 0.25 s at 8,192 and 2.0 s at
# 32,768 (2-core VM, Python 3.11), and past about degree 3,300 its
# coefficient is too long for str() to print
MAX_NF_DEGREE = 4096


class RewriteSystem:
    """Rules in the order added, and a table of verified reducts: for
    each monomial through PROBE_DEGREE that some rule applies to, its
    (rule, rule.rewrite(mono)) pairs in rule order.  Rules enter only
    through add_rule, so the table covers every rule."""

    def __init__(self, n, associated_poly=None):
        self.n = n
        self.associated_poly = associated_poly
        self._rules = ()
        self._probe = [tuple(monomials_of_degree(n, d)) for d in range(PROBE_DEGREE + 1)]
        self._table = {}

    @property
    def rules(self):
        return self._rules

    def add_rule(self, rule):
        """Register a rule after checking it is order-decreasing on all
        monomials up to PROBE_DEGREE, keeping the reducts it checked.  A
        rule that fails leaves the system unchanged."""
        verified = [
            (mono, _decreasing_rewrite(rule, mono))
            for level in self._probe
            for mono in level
            if rule.applies(mono)
        ]
        for mono, out in verified:
            self._table[mono] = self._table.get(mono, ()) + ((rule, out),)
        self._rules += (rule,)

    def _monomials(self, d):
        """The monomials of degree d, in increasing graded order."""
        return self._probe[d] if d <= PROBE_DEGREE else monomials_of_degree(self.n, d)

    def _verified(self, mono):
        """The table's (rule, reduct) pairs of mono: () when mono is
        irreducible through PROBE_DEGREE, None above PROBE_DEGREE."""
        pairs = self._table.get(mono)
        if pairs is None and monomial_degree(mono) <= PROBE_DEGREE:
            return ()
        return pairs

    def reducts(self, mono):
        """The one-step reducts of mono, one per applicable rule, in rule order."""
        pairs = self._verified(mono)
        if pairs is None:
            return [_decreasing_rewrite(rule, mono) for rule in self._rules if rule.applies(mono)]
        return [out for _, out in pairs]

    def first_applicable(self, mono):
        pairs = self._verified(mono)
        if pairs is None:
            return next((rule for rule in self._rules if rule.applies(mono)), None)
        return pairs[0][0] if pairs else None

    def is_irreducible(self, mono):
        return self.first_applicable(mono) is None

    def _first_reduct(self, mono):
        """Terms of the first rule's reduct of mono, or None if irreducible."""
        rule = self.first_applicable(mono)
        if rule is None:
            return None
        pairs = self._table.get(mono)
        return (pairs[0][1] if pairs else _decreasing_rewrite(rule, mono)).terms

    def _mono_normal_form(self, mono, memo):
        """Normal form of a single monomial under first-rule strategy.

        The rewrites are walked with an explicit stack, not one Python
        frame per step, and every normal form found is kept in memo, a
        dict that lives for one public call.  Each rewrite decreases, so
        the walk ends.
        """
        stack = [mono]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            reduct = self._first_reduct(top)
            if reduct is None:
                memo[top] = {top: Fraction(1)}
                continue
            missing = [m for m in reduct if m not in memo]
            if missing:
                stack.extend(missing)
                continue
            result = {}
            for omono, oc in reduct.items():
                _add_scaled(result, memo[omono], oc)
            memo[top] = result
        return memo[mono]

    def _terms_normal_form(self, terms, memo):
        """First-rule normal form of a term dict, as a term dict; memo is
        _mono_normal_form's."""
        acc = {}
        for mono, c in terms.items():
            _add_scaled(acc, self._mono_normal_form(mono, memo), c)
        return acc

    def normal_form(self, elem):
        """Fully reduced form of an element; deterministic and idempotent.

        An element above MAX_NF_DEGREE raises ValueError before any
        rewriting.
        """
        if elem.n != self.n:
            raise ValueError("variable count mismatch")
        degree = elem.degree() or 0
        if degree > MAX_NF_DEGREE:
            raise ValueError(f"degree {degree} is above MAX_NF_DEGREE = {MAX_NF_DEGREE}")
        return WeylElement(self.n, self._terms_normal_form(elem.terms, {}))

    def irreducible_projection(self, elem):
        """Drop every reducible monomial, keeping irreducible terms as is.

        This projects onto the span of irreducible monomials along the
        reducible ones, not along the rewriting ideal: a reducible
        monomial is deleted even when its normal form is nonzero.  It
        agrees with normal_form exactly on elements whose reducible
        terms rewrite to zero.
        """
        if elem.n != self.n:
            raise ValueError("variable count mismatch")
        kept = {m: c for m, c in elem.terms.items() if self.is_irreducible(m)}
        return WeylElement(self.n, kept)


def _add_scaled(acc, terms, c):
    """acc += c * terms, on term dicts, dropping zero coefficients."""
    for mono, tc in terms.items():
        nc = acc.get(mono, 0) + c * tc
        if nc:
            acc[mono] = nc
        else:
            acc.pop(mono, None)


def _decreasing_rewrite(rule, mono):
    """rule.rewrite(mono), after checking that every monomial it
    produces is strictly smaller than mono in graded_key."""
    out = rule.rewrite(mono)
    key = graded_key(mono)
    for omono in out.terms:
        if graded_key(omono) >= key:
            raise ValueError(
                f"rule {rule.name!r} does not decrease {mono}: produces {omono}"
            )
    return out


@dataclass
class ConfluenceReport:
    max_degree: int
    violations: list = field(default_factory=list)  # (mono, sorted normal forms)

    @property
    def confluent(self):
        return not self.violations


def confluence_check(system, max_deg):
    """Certify unique normal forms for every monomial of degree <= max_deg.

    Bergman's fork check (The diamond lemma for ring theory, Adv. Math.
    29, 1978, Lemma 1.1 and Thm 1.2).  Every reduction path of a
    monomial starts with one of the rules that apply to it.  When every
    smaller monomial is reduction-unique, so is every combination of
    them, and each reduct's first-rule normal form is its only one.
    The monomial is then reduction-unique exactly when the reducts of
    all applicable rules share one first-rule normal form.  Visiting the
    monomials in increasing order, the first monomial whose reducts
    disagree is the smallest one with two normal forms.

    Records (mono, sorted forms) for each monomial whose reducts
    disagree.  Only such forks are listed: a monomial whose reducts
    agree but reach a smaller fork is not.  The reducts through
    PROBE_DEGREE are the ones add_rule verified; above it every rule
    output is checked to decrease through max_deg, and a rule that does
    not raises ValueError.  A negative max_deg raises ValueError.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    report = ConfluenceReport(max_deg)
    memo = {}  # normal forms found, shared by every fork of this check
    for d in range(max_deg + 1):
        # the monomials of a degree ascend in graded_key, so every
        # monomial a reduct contains was checked before: the induction
        # above depends on this order.
        for mono in system._monomials(d):
            reducts = system.reducts(mono)
            if len(reducts) < 2:
                continue
            forms = {
                tuple(sorted(system._terms_normal_form(r.terms, memo).items())) for r in reducts
            }
            if len(forms) > 1:
                report.violations.append((mono, sorted(forms)))
    return report


def irreducible_dims(system, max_deg):
    """Cumulative count of irreducible monomials per degree level.

    The status follows from confluence_check through max_deg.  With a
    confluent system these are exact quotient dimensions (exact-graded);
    without confluence the counts are only upper bounds for the
    quotient, since normal forms still span it.  A rule that fails to
    decrease some monomial through max_deg, or a negative max_deg,
    raises ValueError.
    """
    certified = confluence_check(system, max_deg).confluent
    status = EXACT_GRADED if certified else STABILIZED
    levels = []
    running = 0
    for d in range(max_deg + 1):
        running += sum(1 for mono in system._monomials(d) if system.is_irreducible(mono))
        levels.append(TruncationLevel(d, running, status))
    f_text = str(system.associated_poly) if system.associated_poly is not None else ""
    table = TruncationTable(f_text, "irreducible-monomials", levels)
    table.notes["certified"] = certified
    return table


# -- node preset --------------------------------------------------------------


def node_system():
    """Rewrite system for the two-sided quotient by the node polynomial x*y.

    Monomials are x^i y^j dx^a dy^b.  Rules, with A = a and B = b + 1
    when stripping one x and one dx (so A, B are one plus the dx / dy
    degrees of the stripped monomial):

      xy-annihilates   i>=1, j>=1            -> 0
      x-without-dx     i>=1, a==0            -> 0
      y-without-dy     j>=1, b==0            -> 0
      y2-dy-descends   j>=2, b>=1            -> -b * x^i y^(j-1) dx^a dy^(b-1)
      x-dx-descends    i>=1, a>=1            -> -(A/B) x^(i-1) y^(j+1) dx^(a-1) dy^(b+1)
                                                - A x^(i-1) y^j dx^(a-1) dy^b

    The two descent rules are the derived consequences of commuting the
    quotient generators; together with the annihilation rules they are
    confluent, with irreducible monomials dx^a dy^b and y dx^a dy^(b+1).
    """
    n = 2
    sys_ = RewriteSystem(n, associated_poly=WeylElement.x(0, 2) * WeylElement.x(1, 2))

    def mk(i, j, a, b, coeff):
        return WeylElement(2, {((i, j), (a, b)): Fraction(coeff)})

    sys_.add_rule(RewriteRule(
        "xy-annihilates",
        lambda m: m[0][0] >= 1 and m[0][1] >= 1,
        lambda m: WeylElement.zero(2),
    ))
    sys_.add_rule(RewriteRule(
        "x-without-dx",
        lambda m: m[0][0] >= 1 and m[1][0] == 0,
        lambda m: WeylElement.zero(2),
    ))
    sys_.add_rule(RewriteRule(
        "y-without-dy",
        lambda m: m[0][1] >= 1 and m[1][1] == 0,
        lambda m: WeylElement.zero(2),
    ))
    sys_.add_rule(RewriteRule(
        "y2-dy-descends",
        lambda m: m[0][1] >= 2 and m[1][1] >= 1,
        lambda m: mk(m[0][0], m[0][1] - 1, m[1][0], m[1][1] - 1, -m[1][1]),
    ))

    def x_dx_rewrite(m):
        (i, j), (a, b) = m
        big_a, big_b = a, b + 1
        return (
            mk(i - 1, j + 1, a - 1, b + 1, Fraction(-big_a, big_b))
            + mk(i - 1, j, a - 1, b, -big_a)
        )

    sys_.add_rule(RewriteRule(
        "x-dx-descends",
        lambda m: m[0][0] >= 1 and m[1][0] >= 1,
        x_dx_rewrite,
    ))
    return sys_


PRESETS = {"node-xy": node_system}
