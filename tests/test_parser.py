"""Operator expression parser: grammar, aliases, errors, roundtrips."""

import math
import sys
from fractions import Fraction

import pytest

from dxext.parser import MAX_DEGREE, MAX_TERMS, MAX_WORK, ParseError, infer_variable_count, parse
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
    # exponent; any other base is bounded by MAX_DEGREE
    assert parse("x^99999999999999999999", 1) == W(1, (99999999999999999999,), (0,))
    assert parse("(2 dx dy)^100", 2) == W(2, (0, 0), (100, 100), 2 ** 100)
    assert len(parse(f"(x + dx)^{MAX_DEGREE}", 1).terms) == 1089
    for text in ("(x + dx)^100000", f"(x + dx)^{MAX_DEGREE + 1}", "(x dx)^65", "(x + y)^65",
                 "(x - x)^99999999999999999999", "x^2 (x + 1)^3^100"):
        with pytest.raises(ParseError, match="above"):
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


def test_products_and_nested_powers_bounded_by_degree():
    # Bernstein degree adds under products, so a product or power above
    # MAX_DEGREE is refused before it is multiplied out
    for text in ("(x + dx)^64 (x + dx)^64", "((x + dx)^16)^8", "(x + dx)^64 * x",
                 "((x dx)^8)^5", "dx^40 x^40", "(x^99999999999999999999 + 1) y"):
        with pytest.raises(ParseError, match=f"above {MAX_DEGREE}"):
            parse(text, 2)
    # within the bound they multiply out as before
    assert parse("(x + dx)^8 (x + dx)^8", 1) == parse("((x + dx)^2)^8", 1) == parse("(x + dx)^16", 1)
    assert len(parse("dx^32 x^32", 1).terms) == 33
    # products of two single terms that stay one term keep their closed form
    big = 99999999999999999999
    assert parse(f"x^{big} y dx^{big}", 2) == W(2, (big, 1), (big, 0))
    assert parse(f"(x^{big})^3 x", 1) == W(1, (3 * big + 1,), (0,))
    assert parse(f"2 x^{big} * 3 dy^{big}", 2) == W(2, (big, 0), (0, big), 6)


def test_products_bounded_by_terms(monkeypatch):
    # in several variables a product within MAX_DEGREE can still have
    # too many terms; it is refused before anything is multiplied, by its
    # term pairs capped by C(D + v, v) for the v generators it contains
    from dxext import weyl

    calls = []
    real = weyl.mul_terms

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(weyl, "mul_terms", counting)
    for text in ("(x + y + dx + dy)^64", "(x + y + dx + dy)^16", "(x + y + z)^30",
                 "((x + y + dx + dy)^4)^4"):
        with pytest.raises(ParseError, match=f"terms above {MAX_TERMS}"):
            parse(text)
    assert not calls
    # the product of two powers that pass is refused before either power
    # is multiplied out
    with pytest.raises(ParseError, match=f"terms above {MAX_TERMS}"):
        parse("(x + y + dx + dy)^8 (x + y + dx + dy)^8")
    assert not calls
    # C(19, 4) = 3876 monomials of degree <= 15 in x, y, dx, dy fit; only
    # the generators that occur count, so (x + y)^64 passes in two variables
    assert len(parse("(x + y + dx + dy)^15").terms) == 2160
    assert len(parse("(x + y)^64", 2).terms) == 65
    assert len(parse("(x + dx)^64", 2).terms) == 1089


def test_products_bounded_by_work(monkeypatch):
    # a product whose result fits MAX_TERMS can still take many term
    # products: 289 x 289 pairs, each expanding to up to 33 terms, took
    # 1.6 s; the whole term is refused before anything in it is multiplied
    from dxext import weyl

    calls = []
    real = weyl.mul_terms

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(weyl, "mul_terms", counting)
    for text in ("(x + dx)^32 (x + dx)^32", "(x + dx)^32 * (x + dx)^16 * (x + dx)^16",
                 "(x + dx)^24 (x + dx)^24", "x^2 (x + dx)^32 (x + dx)^30"):
        with pytest.raises(ParseError, match=f"term products above {MAX_WORK}"):
            parse(text, 1)
    assert not calls
    # powers are one product at a time, so the largest ones still parse,
    # as do products whose pairs expand little
    assert len(parse("(x + dx)^64", 1).terms) == 1089
    assert len(parse("(x + y + dx + dy)^15", 2).terms) == 2160
    assert parse("(x + dx)^16 (x + dx)^16", 1) == parse("(x + dx)^32", 1)
    assert parse("(x + y)^32 (x + y)^32", 2) == parse("(x + y)^64", 2)
