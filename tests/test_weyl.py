"""Weyl algebra arithmetic against an independent polynomial-action oracle.

The algebra acts faithfully on polynomials, so multiplication is checked
by comparing (a*b) applied to a polynomial with a applied to (b applied
to it).  The action here is implemented from scratch on exponent dicts
and shares no code with the normal-ordering product under test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxext.weyl import Filtration, SymbolPoly, WeylElement, divide_left, monomial_degree


def apply_operator(elem, poly):
    """Apply a normally ordered operator to {x-exponent tuple: coeff}."""
    out = {}
    for (xexp, dexp), coeff in elem.terms.items():
        for pexp, pc in poly.items():
            c = coeff * pc
            exps = list(pexp)
            for i, b in enumerate(dexp):
                for _ in range(b):
                    if exps[i] == 0:
                        c = Fraction(0)
                        break
                    c *= exps[i]
                    exps[i] -= 1
                if not c:
                    break
            if not c:
                continue
            for i, a in enumerate(xexp):
                exps[i] += a
            key = tuple(exps)
            val = out.get(key, Fraction(0)) + c
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def random_element(rng, n, max_deg=3, terms=4):
    elem = WeylElement.zero(n)
    for _ in range(terms):
        xexp = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        dexp = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        elem = elem + WeylElement.monomial(n, xexp, dexp, coeff)
    return elem


def random_poly(rng, n, max_deg=3, terms=3):
    poly = {}
    for _ in range(terms):
        key = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        poly[key] = poly.get(key, Fraction(0)) + rng.randrange(1, 5)
    return {k: v for k, v in poly.items() if v}


def test_defining_relations():
    for n in (1, 2, 3):
        for i in range(n):
            for j in range(n):
                xi, dj = WeylElement.x(i, n), WeylElement.d(j, n)
                comm = dj * xi - xi * dj
                want = WeylElement.one(n) if i == j else WeylElement.zero(n)
                assert comm == want
        for i in range(n):
            for j in range(i + 1, n):
                assert WeylElement.x(i, n) * WeylElement.x(j, n) == WeylElement.x(j, n) * WeylElement.x(i, n)
                assert WeylElement.d(i, n) * WeylElement.d(j, n) == WeylElement.d(j, n) * WeylElement.d(i, n)


def test_product_matches_polynomial_action():
    rng = random.Random(91101)
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        a = random_element(rng, n)
        b = random_element(rng, n)
        p = random_poly(rng, n)
        assert apply_operator(a * b, p) == apply_operator(a, apply_operator(b, p))


def test_known_normal_ordering():
    # d x = x d + 1, so d x^2 = x^2 d + 2 x and d^2 x = x d^2 + 2 d.
    n = 1
    x, d = WeylElement.x(0, n), WeylElement.d(0, n)
    assert d * x * x == x * x * d + 2 * x
    assert d * d * x == x * d * d + 2 * d
    # (xd)^2 = x^2 d^2 + x d.
    assert (x * d) ** 2 == x * x * d * d + x * d


def test_associativity_sampled():
    rng = random.Random(91102)
    for _ in range(60):
        n = rng.choice((1, 2))
        a, b, c = (random_element(rng, n, max_deg=2, terms=3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_ring_axioms_and_scalars():
    rng = random.Random(91103)
    n = 2
    a, b, c = (random_element(rng, n) for _ in range(3))
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert WeylElement.one(n) * a == a
    assert a * WeylElement.one(n) == a
    assert 3 * a == a + a + a
    assert Fraction(1, 2) * (a + a) == a
    assert a - a == WeylElement.zero(n)
    assert not WeylElement.zero(n)
    assert a ** 0 == WeylElement.one(n)


def test_degrees():
    n = 2
    e = WeylElement.monomial(n, (1, 0), (2, 1)) + WeylElement.monomial(n, (0, 0), (1, 0))
    assert e.degree(Filtration.BERNSTEIN) == 4
    assert e.degree(Filtration.ORDER) == 3
    assert WeylElement.zero(n).degree() is None
    assert monomial_degree(((1, 0), (2, 1)), Filtration.ORDER) == 3


def test_degree_additivity_both_filtrations():
    # gr D is a polynomial ring for either filtration, hence a domain:
    # top terms never cancel and degrees add exactly.
    rng = random.Random(91104)
    for kind in (Filtration.BERNSTEIN, Filtration.ORDER):
        for _ in range(80):
            n = rng.choice((1, 2, 3))
            a = random_element(rng, n, max_deg=2, terms=3)
            b = random_element(rng, n, max_deg=2, terms=3)
            if a.is_zero or b.is_zero:
                continue
            assert (a * b).degree(kind) == a.degree(kind) + b.degree(kind)


def test_principal_symbol_multiplicative():
    rng = random.Random(91105)
    for kind in (Filtration.BERNSTEIN, Filtration.ORDER):
        for _ in range(60):
            n = rng.choice((1, 2))
            a = random_element(rng, n, max_deg=2, terms=3)
            b = random_element(rng, n, max_deg=2, terms=3)
            if a.is_zero or b.is_zero:
                continue
            assert (a * b).principal_symbol(kind) == a.principal_symbol(kind) * b.principal_symbol(kind)


def test_symbol_poly_is_commutative():
    a = SymbolPoly(2, {((1, 0), (0, 1)): Fraction(2)})
    b = SymbolPoly(2, {((0, 1), (1, 0)): Fraction(3), ((0, 0), (0, 0)): Fraction(1)})
    assert a * b == b * a


def test_is_polynomial_flag():
    n = 2
    f = WeylElement.x(0, n) * WeylElement.x(1, n) + 2
    assert f.is_polynomial
    assert not (f * WeylElement.d(0, n)).is_polynomial


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError):
        WeylElement.x(0, 1) + WeylElement.x(0, 2)
    with pytest.raises(ValueError):
        WeylElement.x(0, 1) * WeylElement.x(0, 2)


@pytest.mark.parametrize("i", [-1, 2, 5])
@pytest.mark.parametrize("make", [WeylElement.x, WeylElement.d], ids=["x", "d"])
def test_generator_index_out_of_range_rejected(make, i):
    # an index outside 0..n-1 names no variable; it used to give 1
    with pytest.raises(ValueError, match="out of range"):
        make(i, 2)
    assert make(1, 2) != WeylElement.one(2)


def test_str_roundtrip_through_parser():
    from dxext.parser import parse

    rng = random.Random(91106)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        e = random_element(rng, n, max_deg=2, terms=3)
        if e.is_zero:
            continue
        assert parse(str(e), n) == e


def test_power_of_one_term_needs_no_products(monkeypatch):
    # powers against repeated products, then x^(2^40) within 64
    # products: a loop of k multiplications would need 2^40 of them.
    from dxext import weyl
    from dxext.parser import parse

    for text in ("x + dx", "x*dx", "-2/3*x*y^2", "3*dx^2*dy", "x - y"):
        e = parse(text, 2)
        repeated = WeylElement.one(2)
        for k in range(7):
            assert e ** k == repeated, (text, k)
            repeated = repeated * e
    calls = []
    real = weyl.mul_terms

    def counting(a, b):
        calls.append(1)
        if len(calls) > 64:
            raise AssertionError("more than 64 products for one power")
        return real(a, b)

    monkeypatch.setattr(weyl, "mul_terms", counting)
    assert parse("x", 1) ** (2 ** 40) == WeylElement.monomial(1, (2 ** 40,), (0,))


# -- one normal form for coefficients ---------------------------------------

# coefficients as callers write them: ints, Fractions that may be
# integral, and the integral ones as Fraction(k, 1) on purpose
coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.integers(-6, 6).map(Fraction),
)


@st.composite
def elements(draw, n=None, max_deg=2, max_terms=4):
    n = draw(st.integers(1, 2)) if n is None else n
    exps = st.tuples(*[st.integers(0, max_deg)] * n)
    terms = draw(st.dictionaries(st.tuples(exps, exps), coefficients, max_size=max_terms))
    return WeylElement(n, terms)


def assert_normal(terms):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for c in terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@settings(max_examples=150, deadline=None)
@given(elements(n=2), elements(n=2), st.integers(0, 3), coefficients)
def test_arithmetic_keeps_one_normal_form(a, b, k, c):
    from dxext.parser import parse

    for e in (a, b, a + b, a - b, -a, a * b, b * a, a ** k, c * a, a * c, a + c, c - a,
              parse(str(a), 2), parse(f"({a}) * ({b})", 2)):
        assert_normal(e.terms)
    for kind in Filtration:
        assert_normal(a.principal_symbol(kind).terms)
        assert_normal((a.principal_symbol(kind) * b.principal_symbol(kind)).terms)
    if b:
        q, r = divide_left(b.terms, (a * b + a).terms)
        assert_normal(q)
        assert_normal(r)


@settings(max_examples=60, deadline=None)
@given(coefficients, coefficients, elements(n=2, max_terms=2))
def test_solve_twist_keeps_one_normal_form(c1, c2, g):
    # alpha = c1*x*dx + c2*y*dy + x*y*g is an endomorphism of D/(xy)D
    from dxext.hyperext import solve_twist
    from dxext.parser import parse

    f = parse("x*y", 2)
    alpha = c1 * parse("x*dx", 2) + c2 * parse("y*dy", 2) + f * g
    end = solve_twist(f, alpha)
    assert_normal(end.beta.terms)
    assert alpha * f == f * end.beta


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.tuples(st.tuples(st.integers(0, 2)), st.tuples(st.integers(0, 2))),
    st.integers(-9, 9), max_size=4,
))
def test_integral_fractions_and_ints_build_one_element(terms):
    from_ints = WeylElement(1, terms)
    from_fractions = WeylElement(1, {m: Fraction(c) for m, c in terms.items()})
    assert from_ints == from_fractions
    assert hash(from_ints) == hash(from_fractions)
    assert all(type(c) is int for c in from_fractions.terms.values())
    assert WeylElement.scalar(1, Fraction(2)) == WeylElement.scalar(1, 2) == 2


@settings(max_examples=150, deadline=None)
@given(elements())
def test_str_parses_back_to_the_element(e):
    from dxext.parser import parse

    back = parse(str(e), e.n)
    assert back == e
    assert back.terms == e.terms
    assert [type(c) for c in back.terms.values()] == [type(e.terms[m]) for m in back.terms]
