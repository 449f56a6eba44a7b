"""Diamond-lemma rewriting for the node quotient.

Soundness is checked against exact linear algebra: each rule must move a
monomial by an element of the two-sided ideal D*f + f*D, which the
widening engine recognizes independently of the rewrite machinery.
"""

from fractions import Fraction
from math import factorial

import pytest

from dxext.hyperext import CokernelEngine
from dxext.grading import monomials_of_degree
from dxext.models import DXQuotientModule
from dxext.parser import parse
from dxext.rewrite import (
    MAX_NF_DEGREE,
    PRESETS,
    PROBE_DEGREE,
    RewriteRule,
    RewriteSystem,
    confluence_check,
    irreducible_dims,
    node_system,
)
from dxext.weyl import WeylElement

NODE_CUMULATIVE = [1, 3, 7, 13, 21, 31, 43]
X = ((1,), (0,))
X2 = ((2,), (0,))


@pytest.fixture(scope="module")
def node():
    return node_system()


@pytest.fixture(scope="module")
def node_engine():
    f = parse("x*y", 2)
    engine = CokernelEngine(DXQuotientModule(f), f)
    # Wide enough (product degree 9) that every degree<=5 ideal
    # membership below is visible.
    engine.widen_to(7)
    return engine


def in_ideal(engine, elem):
    """Membership in D*f + f*D: the normal form in D/fD lies in the span
    of the rows NF(g*f)."""
    comb = engine.index.module.reduce_element(elem)
    return engine.echelon.contains(engine.index.vector(comb))


def test_preset_table():
    assert set(PRESETS) == {"node-xy"}
    system = PRESETS["node-xy"]()
    assert system.n == 2
    assert system.associated_poly == parse("x*y", 2)


def test_rules_land_in_two_sided_ideal(node, node_engine):
    # mono - rewrite(mono) must lie in D*f + f*D for every applicable
    # monomial; the echelon span is the independent witness.
    checked = 0
    for d in range(6):
        for mono in monomials_of_degree(2, d):
            for rule in node.rules:
                if not rule.applies(mono):
                    continue
                diff = WeylElement.monomial(2, *mono) - rule.rewrite(mono)
                if diff.is_zero:
                    continue
                assert in_ideal(node_engine, diff), (rule.name, mono)
                checked += 1
    assert checked > 20


def test_normal_form_fixes_class(node, node_engine):
    # Reduction never changes the class modulo D*f + f*D.
    for d in range(5):
        for mono in monomials_of_degree(2, d):
            e = WeylElement.monomial(2, *mono)
            diff = e - node.normal_form(e)
            if diff.is_zero:
                continue
            assert in_ideal(node_engine, diff)


def test_confluent_through_degree_six(node):
    report = confluence_check(node, 6)
    assert report.confluent
    assert report.violations == []


def test_irreducible_dims_frozen(node):
    table = irreducible_dims(node, 6)
    assert [lvl.dim for lvl in table.levels] == NODE_CUMULATIVE
    assert table.notes["certified"] is True
    assert all(lvl.status == "exact-graded" for lvl in table.levels)


def test_irreducible_monomial_shape(node):
    # Irreducible monomials are P(dx, dy) together with y*dy*P(dx, dy).
    for d in range(7):
        for mono in monomials_of_degree(2, d):
            (a, b), (i, j) = mono
            plain = a == 0 and b == 0
            dressed = a == 0 and b == 1 and j >= 1
            assert node.is_irreducible(mono) == (plain or dressed), mono


def test_normal_form_idempotent_and_linear(node):
    e1 = parse("x dx^2", 2)
    e2 = parse("y^2 dy + x dy", 2)
    nf1, nf2 = node.normal_form(e1), node.normal_form(e2)
    assert node.normal_form(nf1) == nf1
    assert node.normal_form(e1 + 3 * e2) == nf1 + 3 * nf2
    assert node.normal_form(WeylElement.zero(2)).is_zero


def test_worked_normal_forms(node):
    # x*dx^2 -> -2 y dx dy - 2 dx, the running reduction example.
    assert node.normal_form(parse("x dx^2", 2)) == parse("-2 y dx dy - 2 dx", 2)
    # x dx^a dy^b -> -(a/(b+1)) y dx^(a-1) dy^(b+1) - a dx^(a-1) dy^b.
    for a in range(1, 4):
        for b in range(0, 3):
            got = node.normal_form(WeylElement.monomial(2, (1, 0), (a, b)))
            want = (
                WeylElement.monomial(2, (0, 1), (a - 1, b + 1), Fraction(-a, b + 1))
                + WeylElement.monomial(2, (0, 0), (a - 1, b), -a)
            )
            assert got == want
    # The polynomial itself dies: x*y is in the ideal.
    assert node.normal_form(parse("x*y", 2)).is_zero
    assert node.normal_form(parse("x y dx dy", 2)).is_zero


def test_irreducible_projection(node):
    # The projection deletes reducible input monomials without
    # rewriting them, so it differs from normal_form in general.
    e = parse("dx^2 + x dx^2", 2)
    assert node.irreducible_projection(e) == parse("dx^2", 2)
    assert node.normal_form(e) != node.irreducible_projection(e)
    # On fully irreducible elements the two agree.
    irr = parse("dx^3 + y dy dx", 2)
    assert node.irreducible_projection(irr) == irr == node.normal_form(irr)


def test_add_rule_rejects_order_increase():
    system = RewriteSystem(1)
    bad = RewriteRule(
        name="inflate",
        applies=lambda mono: mono == ((1,), (0,)),
        rewrite=lambda mono: WeylElement.monomial(1, (2,), (0,)),
    )
    with pytest.raises(ValueError):
        system.add_rule(bad)


def two_value_system():
    # x -> 1 and x -> 2 cannot agree on x.
    system = RewriteSystem(1)
    for name, value in (("one", 1), ("two", 2)):
        system.add_rule(RewriteRule(
            name=name,
            applies=lambda mono: mono == X,
            rewrite=lambda mono, v=value: WeylElement.scalar(1, v),
        ))
    return system


def shift_system():
    # x^i dx^a with i >= 2 moves one x or two x's over to dx.  The
    # first fork is x^2 -> x dx | dx^2; x^3 reaches both of its forms
    # through x^2 dx, yet its own two reducts share one first-rule
    # normal form, so the path walk lists it and the fork check does not.
    system = RewriteSystem(1)
    for name, k in (("shift-one", 1), ("shift-two", 2)):
        system.add_rule(RewriteRule(
            name=name,
            applies=lambda mono: mono[0][0] >= 2,
            rewrite=lambda mono, k=k: WeylElement.monomial(
                1, (mono[0][0] - k,), (mono[1][0] + k,)
            ),
        ))
    return system


def test_nonconfluent_system_flagged():
    system = two_value_system()
    report = confluence_check(system, 2)
    assert not report.confluent
    assert any(mono == X for mono, _ in report.violations)
    table = irreducible_dims(system, 2)
    assert table.notes["certified"] is False
    assert all(lvl.status.startswith("stabilized") for lvl in table.levels)


def walk_normal_forms(system, terms, memo):
    """Every normal form that some reduction path of terms reaches."""
    key = tuple(sorted(terms.items()))
    if key not in memo:
        forms = set()
        for mono, coeff in terms.items():
            rest = WeylElement(system.n, {m: c for m, c in terms.items() if m != mono})
            for rule in system.rules:
                if rule.applies(mono):
                    reduced = rest + coeff * rule.rewrite(mono)
                    forms |= walk_normal_forms(system, reduced.terms, memo)
        memo[key] = frozenset(forms) or frozenset([key])
    return memo[key]


def walk_violations(system, max_deg):
    """Monomials with two or more normal forms, in increasing order."""
    memo = {}
    return [
        mono
        for d in range(max_deg + 1)
        for mono in monomials_of_degree(system.n, d)
        if len(walk_normal_forms(system, {mono: Fraction(1)}, memo)) > 1
    ]


@pytest.mark.parametrize("make, first", [
    (node_system, None),
    (two_value_system, X),
    (shift_system, X2),
])
def test_fork_check_matches_path_walk(make, first):
    system = make()
    walked = walk_violations(system, 5)
    forks = [mono for mono, _ in confluence_check(system, 5).violations]
    assert walked[:1] == forks[:1] == ([first] if first else [])
    assert set(forks) <= set(walked)


def test_fork_check_lists_only_forks():
    forks = [mono for mono, _ in confluence_check(shift_system(), 3).violations]
    assert ((3,), (0,)) in walk_violations(shift_system(), 3)
    assert ((3,), (0,)) not in forks


def test_node_certified_through_degree_ten(node):
    assert confluence_check(node, 10).confluent
    table = irreducible_dims(node, 10)
    assert table.dims() == [m * m + m + 1 for m in range(11)]
    assert all(lvl.status == "exact-graded" for lvl in table.levels)


@pytest.mark.parametrize("max_deg", [9, 10])
def test_rule_decrease_checked_past_probe_degree(max_deg):
    # add_rule probes through PROBE_DEGREE = 8 only, so it accepts x^9 -> x^10.
    assert PROBE_DEGREE == 8
    system = RewriteSystem(1)
    system.add_rule(RewriteRule(
        name="inflate-ninth",
        applies=lambda mono: mono == ((9,), (0,)),
        rewrite=lambda mono: WeylElement.monomial(1, (10,), (0,)),
    ))
    with pytest.raises(ValueError, match="does not decrease"):
        confluence_check(system, max_deg)
    with pytest.raises(ValueError, match="does not decrease"):
        irreducible_dims(system, max_deg)


def first_rule_walk(system, mono, memo):
    """(reducts, first rule, normal form) of mono from the rules'
    predicates and rewrites alone, with no table: the first-rule
    normal form is the first reduct's, term by term."""
    if mono not in memo:
        rules = [rule for rule in system.rules if rule.applies(mono)]
        reducts = [rule.rewrite(mono) for rule in rules]
        if rules:
            nf = WeylElement.zero(system.n)
            for omono, c in reducts[0].terms.items():
                nf = nf + c * first_rule_walk(system, omono, memo)[2]
        else:
            nf = WeylElement.monomial(system.n, *mono)
        memo[mono] = (reducts, rules[0] if rules else None, nf)
    return memo[mono]


@pytest.mark.parametrize("make", [node_system, two_value_system, shift_system])
def test_table_matches_a_table_free_walk(make):
    # Through PROBE_DEGREE the system reads the reducts add_rule kept;
    # two degrees past it, it calls the rules.  Both agree with the walk.
    system = make()
    memo = {}
    for d in range(PROBE_DEGREE + 3):
        for mono in monomials_of_degree(system.n, d):
            reducts, first, nf = first_rule_walk(system, mono, memo)
            assert system.reducts(mono) == reducts, mono
            assert system.first_applicable(mono) is first, mono
            assert system.is_irreducible(mono) == (first is None), mono
            assert system.normal_form(WeylElement.monomial(system.n, *mono)) == nf, mono


def test_rejected_rule_leaves_the_system_unchanged():
    # dx^a -> 0 decreases for a < 5, so add_rule gets through degree 4
    # before dx^5 -> dx^6 fails; dx^0..dx^4 must stay irreducible.
    system = node_system()
    rules = system.rules
    monos = [m for d in range(11) for m in monomials_of_degree(2, d)]
    forms = [system.normal_form(WeylElement.monomial(2, *m)) for m in monos]
    violations = confluence_check(system, 10).violations
    bad = RewriteRule(
        name="dx-dies-below-five",
        applies=lambda m: m[0] == (0, 0) and m[1][1] == 0,
        rewrite=lambda m: (
            WeylElement.zero(2) if m[1][0] < 5 else WeylElement.monomial(2, (0, 0), (m[1][0] + 1, 0))
        ),
    )
    with pytest.raises(ValueError, match="does not decrease"):
        system.add_rule(bad)
    assert system.rules == rules and len(rules) == 5
    assert [system.normal_form(WeylElement.monomial(2, *m)) for m in monos] == forms
    assert confluence_check(system, 10).violations == violations == []
    assert all(system.is_irreducible(((0, 0), (a, 0))) for a in range(11))


def test_rules_enter_only_through_add_rule(node):
    assert isinstance(node.rules, tuple)
    with pytest.raises(AttributeError):
        node.rules = []


@pytest.mark.parametrize("max_deg", [-1, -2])
@pytest.mark.parametrize("check", [confluence_check, irreducible_dims])
def test_negative_degree_rejected(node, check, max_deg):
    with pytest.raises(ValueError, match="max_deg"):
        check(node, max_deg)


def test_normal_form_of_high_degree_monomial():
    # x^k dx^k descends by x-dx-descends alone: (-1)^k k! (1 + y dy).
    # The walk takes one stack entry per step, not one Python frame.
    k = MAX_NF_DEGREE // 2
    got = node_system().normal_form(WeylElement.monomial(2, (k, 0), (k, 0)))
    coeff = (-1) ** k * factorial(k)
    assert got == WeylElement.monomial(2, (0, 0), (0, 0), coeff) + WeylElement.monomial(2, (0, 1), (0, 1), coeff)


def test_normal_form_refuses_degree_above_bound(node):
    elem = WeylElement.monomial(2, (0, 0), (0, 0)) + WeylElement.monomial(2, (0, 1), (0, MAX_NF_DEGREE))
    with pytest.raises(ValueError, match=f"degree {MAX_NF_DEGREE + 1} is above MAX_NF_DEGREE"):
        node.normal_form(elem)
