"""Operator expression parser: grammar, aliases, errors, roundtrips."""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxext import weyl
from dxext.parser import BUDGET, ParseError, infer_variable_count, parse
from dxext.weyl import WeylElement


def W(n, xexp, dexp, c=1):
    return WeylElement.monomial(n, tuple(xexp), tuple(dexp), c)


def test_basic_atoms():
    assert parse("x", 1) == WeylElement.x(0, 1)
    assert parse("dx", 1) == WeylElement.d(0, 1)
    assert parse("x1", 1) == WeylElement.x(0, 1)
    assert parse("d1", 1) == WeylElement.d(0, 1)
    assert parse("7", 1) == WeylElement.scalar(1, 7)
    assert parse("3/4", 2) == WeylElement.scalar(2, "3/4")


def test_juxtaposition_and_explicit_star():
    assert parse("x y", 2) == parse("x*y", 2) == W(2, (1, 1), (0, 0))
    assert parse("2x dx", 1) == W(1, (1,), (1,), 2)


def test_powers_bind_tighter_than_multiplication():
    assert parse("x dx^2", 1) == W(1, (1,), (2,))
    assert parse("(x dx)^2", 1) == parse("x^2 dx^2 + x dx", 1)


def test_noncommutative_order_preserved():
    assert parse("dx x", 1) == parse("x dx + 1", 1)
    assert parse("x dx", 1) != parse("dx x", 1)


def test_sums_differences_unary_minus():
    assert parse("x - y", 2) == WeylElement.x(0, 2) - WeylElement.x(1, 2)
    assert parse("-x + x", 1) == WeylElement.zero(1)
    assert parse("x - (-y)", 2) == parse("x + y", 2)


def test_fraction_coefficients():
    from fractions import Fraction

    e = parse("1/2 x + 3 y", 2)
    assert e.coefficient((1, 0), (0, 0)) == Fraction(1, 2)
    assert e.coefficient((0, 1), (0, 0)) == 3


def test_aliases_match_numbered_names():
    assert parse("x y z w", 4) == parse("x1 x2 x3 x4", 4)
    assert parse("dx dy dz dw", 4) == parse("d1 d2 d3 d4", 4)
    # Numbered names remain available above four variables.
    assert parse("x5 d5", 5) == W(5, (0, 0, 0, 0, 1), (0, 0, 0, 0, 1))


def test_alias_unavailable_above_four_variables():
    with pytest.raises(ParseError):
        parse("x y z w", 5)


def test_infer_variable_count():
    assert infer_variable_count("x dx") == 1
    assert infer_variable_count("x y^2") == 2
    assert infer_variable_count("x3 + d1") == 3
    assert infer_variable_count("5") == 1


def test_parse_without_explicit_count_uses_inference():
    assert parse("x y").n == 2
    assert parse("x2").n == 2


def test_parse_errors_carry_position():
    for text in ("x +", "(x", "x ^ y", "x^-2", "@", ""):
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert isinstance(info.value, ValueError)
        assert info.value.pos >= 0


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        parse("q + 1", 2)
    with pytest.raises(ParseError):
        parse("x3", 2)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        parse("x3", 2)


def test_worked_expressions():
    # Euler operator and a hypersurface polynomial used throughout.
    euler = parse("x dx + y dy", 2)
    assert euler == W(2, (1, 0), (1, 0)) + W(2, (0, 1), (0, 1))
    node = parse("x*y", 2)
    assert node.is_polynomial
    assert node.degree() == 2
    cusp = parse("y^2 - x^3", 2)
    assert cusp == W(2, (0, 2), (0, 0)) - W(2, (3, 0), (0, 0))


def test_str_of_parse_is_stable():
    for text in ("x dx + 1", "y^2 - x^3", "1/2 dx^2", "x y dx dy"):
        e = parse(text, 2)
        assert parse(str(e), 2) == e
        assert str(parse(str(e), 2)) == str(e)


def test_large_powers_only_in_closed_form():
    # one term in x alone or d alone has a closed-form power at any
    # exponent; a power of any other base is that many metered products
    assert parse("x^99999999999999999999", 1) == W(1, (99999999999999999999,), (0,))
    assert parse("(2 dx dy)^100", 2) == W(2, (0, 0), (100, 100), 2 ** 100)
    power = parse("(x + dx)^64", 1)
    assert power == parse("x + dx", 1) ** 64 and len(power.terms) == 1089
    for text in ("(x + dx)^100000", "(x - x)^99999999999999999999", "(x dx)^99999999999999999999",
                 "(x + y)^99999999999999999999"):
        with pytest.raises(ParseError, match=f"budget of {BUDGET} terms"):
            parse(text, 2)


def test_closed_form_power_refused_where_its_coefficient_cannot_print():
    # c^k is charged k*floor(log2) bits of c's numerator and denominator
    # before it is taken; up to the bits that the int-to-string limit
    # prints it parses, above them it is refused, at any exponent
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    top = int(digits * math.log2(10))
    power = parse(f"(2 x)^{top}", 1)
    assert power == W(1, (top,), (0,), 2 ** top) and str(power)
    assert parse("(-x)^99999999999999999999", 1) == W(1, (99999999999999999999,), (0,), -1)
    assert parse("(1/2 dx)^10", 1) == W(1, (0,), (10,), Fraction(1, 1024))
    for text in (f"(2 x)^{top + 1}", "(1/3)^100000000", "(3/2 dx)^99999999999999999999", "2^100000"):
        with pytest.raises(ParseError, match=f"more than {digits} digits"):
            parse(text, 1)


def _expansions(monkeypatch):
    """A list that grows by the terms of every term pair weyl._mono_mul
    expands from now on."""
    counts = []
    real = weyl._mono_mul

    def counting(a, b):
        out = real(a, b)
        counts.append(len(out))
        return out

    monkeypatch.setattr(weyl, "_mono_mul", counting)
    return counts


def _refused_within_budget(monkeypatch, texts, n=None):
    counts = _expansions(monkeypatch)
    for text in texts:
        counts.clear()
        with pytest.raises(ParseError, match=f"budget of {BUDGET} terms"):
            parse(text, n)
        assert sum(counts) <= BUDGET


def test_products_and_nested_powers_bounded_by_degree(monkeypatch):
    # degree bounds nothing: a product or nested power is metered like
    # any other, and refused once it has spent the budget
    _refused_within_budget(monkeypatch, ("(x + dx)^64 (x + dx)^64", "((x + dx)^16)^8"), 2)
    # ones of degree above 64 that cost little parse
    x, y, dx = (parse(name, 2) for name in ("x", "y", "dx"))
    big = 99999999999999999999
    for text, value, terms in [
        ("(x + dx)^65", (x + dx) ** 65, 1122),
        ("(x dx)^65", (x * dx) ** 65, 65),
        ("(x + dx)^64 * x", (x + dx) ** 64 * x, 1121),
        ("((x dx)^8)^5", (x * dx) ** 40, 40),
        ("dx^40 x^40", dx ** 40 * x ** 40, 41),
        (f"(x^{big} + 1) y", W(2, (big, 1), (0, 0)) + y, 2),
        ("x^2 (x + 1)^3^100", x ** 2 * (x + 1) ** 300, 301),
        ("(x + y)^65", (x + y) ** 65, 66),
    ]:
        assert parse(text, 2) == value and len(value.terms) == terms
    assert parse("(x + dx)^8 (x + dx)^8", 1) == parse("((x + dx)^2)^8", 1) == parse("(x + dx)^16", 1)
    assert len(parse("dx^32 x^32", 1).terms) == 33
    # products of two single terms that stay one term keep their closed form
    assert parse(f"x^{big} y dx^{big}", 2) == W(2, (big, 1), (big, 0))
    assert parse(f"(x^{big})^3 x", 1) == W(1, (3 * big + 1,), (0,))
    assert parse(f"2 x^{big} * 3 dy^{big}", 2) == W(2, (big, 0), (0, big), 6)


def test_products_bounded_by_terms(monkeypatch):
    # in several variables a power is refused once its products have
    # spent the budget, with no prediction of its terms
    _refused_within_budget(monkeypatch, (
        "(x + y + dx + dy)^64", "((x + y + dx + dy)^4)^4", "(x + y + dx + dy)^8 (x + y + dx + dy)^8"))
    # the ones within it parse whatever their degree or term count
    base = parse("x + y + dx + dy")
    for text, value, terms in [
        ("(x + y + dx + dy)^15", base ** 15, 2160),
        ("(x + y + dx + dy)^16", base ** 16, 2685),
        ("(x + y + dx + dy)^7 (x + y + dx + dy)^7", base ** 7 * base ** 7, 1716),
        ("(x + y + z)^30", parse("x + y + z") ** 30, 496),
    ]:
        assert parse(text) == value and len(value.terms) == terms
    assert len(parse("(x + y)^64", 2).terms) == 65
    assert len(parse("(x + dx)^64", 2).terms) == 1089


def test_products_bounded_by_work(monkeypatch):
    # every term pair is charged the terms it expands to, weighted by the
    # bits of their Leibniz coefficients comb(d, k) perm(x, k), before it
    # is expanded, so a pair past the budget is refused with no expansion
    counts = _expansions(monkeypatch)
    for text in ("dx^99999999999999999999 x^99999999999999999999", "dx^100000 x^100000",
                 "dx^20000 x^99999999999999999999", "dx^3000 x^3000"):
        with pytest.raises(ParseError, match=f"budget of {BUDGET} terms"):
            parse(text, 1)
    assert not counts
    assert len(parse("dx^1000 x^1000", 1).terms) == 1001
    _refused_within_budget(monkeypatch, (
        "(x + dx)^32 (x + dx)^32", "(x + dx)^32 * (x + dx)^16 * (x + dx)^16",
        "(x + dx)^24 (x + dx)^24", "x^2 (x + dx)^32 (x + dx)^30"), 1)
    # products whose pairs expand little parse
    assert parse("(x + dx)^16 (x + dx)^16", 1) == parse("(x + dx)^32", 1)
    assert parse("(x + y)^32 (x + y)^32", 2) == parse("(x + y)^64", 2)


def test_budget_is_per_parse(monkeypatch):
    # the budget covers the whole text, not one product: one copy of a
    # power parses, a sum of twenty is refused within the budget
    assert parse("(x + dx)^64", 1) == parse("x + dx", 1) ** 64
    _refused_within_budget(monkeypatch, [" + ".join(["(x + dx)^64"] * 20)], 1)
    # a long sum of terms costs no products
    text = " + ".join(f"x^{i}" for i in range(3000))
    assert parse(text, 1) == WeylElement(1, {((i,), (0,)): 1 for i in range(3000)})


def test_names_are_charged_by_the_variable_count():
    # an atom in n variables is charged (n + 6)/8 terms, so a text in
    # more than 8 * BUDGET - 6 variables is refused at its first name,
    # before it builds an exponent tuple
    with pytest.raises(ParseError, match=f"budget of {BUDGET} terms"):
        parse(f"x{8 * BUDGET - 5}")
    assert parse("x1 + x100000") == WeylElement.x(0, 100000) + WeylElement.x(99999, 100000)


@pytest.mark.parametrize("text", [
    "(3^8000 x + 1/3^8000)^300", "(2^14000 x + 2^14000)^400", "(1/3 x + 1/5 dx)^300",
    "(x1 + d1)^100000 + x16", " + ".join(["dx^300 x^300"] * 60),
], ids=["fraction-bits", "integer-bits", "fractions", "sixteen-variables", "leibniz-bits"])
def test_costly_arithmetic_spends_the_budget_sooner(monkeypatch, text):
    # a term pair is weighted by the cost of its coefficients' arithmetic
    # and by the variable count, so every parse ends at about the same time;
    # it is timed before the expansions are counted, as counting costs time
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"budget of {BUDGET} terms"):
        parse(text)
    assert time.perf_counter() - start < 1
    _refused_within_budget(monkeypatch, [text])


def test_overlong_integer_literal_is_parse_error():
    digits = sys.get_int_max_str_digits()
    if not digits:  # no int-to-string limit: every literal reads
        assert parse("1" * 5000, 1) == 10 ** 5000 // 9
        return
    long = "1" * (digits + 1)
    for text, pos in ((f"x^{long}", 2), (long, 0), (f"1/{long}", 2), (f"x{long}", 1)):
        for n in (1, None):
            with pytest.raises(ParseError, match=f"{digits + 1} digits") as info:
                parse(text, n)
            assert info.value.pos == pos


_NAMES = ("x", "y", "dx", "dy")
_EXPONENTS = (0, 1, 2, 3, 7, 20, 99999999999999999999)


@st.composite
def _atoms(draw):
    kind = draw(st.sampled_from(("name", "name", "int", "rational")))
    if kind == "name":
        name = draw(st.sampled_from(_NAMES))
        return name, parse(name, 2)
    num = draw(st.integers(0, 40))
    if kind == "int":
        return str(num), WeylElement.scalar(2, num)
    den = draw(st.integers(1, 12))
    return f"{num}/{den}", WeylElement.scalar(2, Fraction(num, den))


@st.composite
def _expressions(draw, depth=2):
    """(text, tree) for a sum of products of factors, where a factor is
    an atom or a parenthesized expression of lower depth raised to zero,
    one or two powers.  A tree is a WeylElement leaf or (op, left, right),
    with the int exponent on the right of a power."""
    text, tree = "", None
    for _ in range(draw(st.integers(1, 3))):
        term, value = "", None
        for _ in range(draw(st.integers(1, 3))):
            if depth and draw(st.booleans()):
                factor, factor_value = draw(_expressions(depth - 1))
                factor = f"({factor})"
                for _ in range(draw(st.integers(0, 2))):
                    k = draw(st.sampled_from(_EXPONENTS))
                    factor, factor_value = f"({factor})^{k}", ("^", factor_value, k)
            else:
                factor, factor_value = draw(_atoms())
            term, value = (f"{term} {factor}", ("*", value, factor_value)) if term else (factor, factor_value)
        if tree is None:
            text, tree = term, value
        else:
            op = draw(st.sampled_from("+-"))
            text, tree = f"{text} {op} {term}", (op, tree, value)
    return text, tree


def _evaluate(tree):
    """The value of a tree by WeylElement arithmetic, with no budget."""
    if isinstance(tree, WeylElement):
        return tree
    op, a, b = tree
    a = _evaluate(a)
    if op == "^":
        return a ** b
    b = _evaluate(b)
    return a + b if op == "+" else a - b if op == "-" else a * b


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_expressions())
def test_grammar_parses_or_refuses_in_bounded_time(expression):
    # each expression parses to its value or is refused with ParseError,
    # within a fixed time; the value is built only when the parse
    # succeeded, as only then is it known to cost little
    text, tree = expression
    start = time.perf_counter()
    try:
        value = parse(text, 2)
    except ParseError:
        value = None
    assert time.perf_counter() - start < 2
    if value is not None:
        assert value == _evaluate(tree)
