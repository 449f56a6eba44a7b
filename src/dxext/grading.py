"""Degree-graded enumeration of Weyl monomials, and their packed columns.

Monomials (x_exponents, d_exponents) are enumerated degree by degree,
lexicographically within a degree, so the monomials of Bernstein degree
at most m always form a prefix of the enumeration.  MonomialColumns
packs each monomial into one int in that same order, so a column is
stable under extension and echelon pivots answer per-level questions.
"""

from __future__ import annotations

from operator import mul

__all__ = [
    "MAX_EXPONENT",
    "MAX_VARIABLES",
    "MonomialColumns",
    "compositions",
    "monomials_of_degree",
    "require_variables",
]

SLOT_BITS = 16
MAX_EXPONENT = (1 << SLOT_BITS) - 1
MAX_VARIABLES = 16


def require_variables(n):
    """Refuse a computation in more than MAX_VARIABLES variables.

    compositions recurses once per exponent slot and a packed column
    holds SLOT_BITS bits per slot, so thousands of variables would fail
    part way through (RecursionError) or exhaust memory; a ValueError
    up front ends the computation cleanly instead.
    """
    if n > MAX_VARIABLES:
        raise ValueError(f"{n} variables is above MAX_VARIABLES = {MAX_VARIABLES}")


def compositions(total, slots):
    """All tuples of `slots` nonnegative integers summing to total,
    in lexicographic order; none when total is negative."""
    if total < 0:
        return
    if slots == 1:
        yield (total,)
        return
    if slots == 2:  # the innermost level, most of the tuples, without recursion
        for head in range(total + 1):
            yield (head, total - head)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            yield (head,) + rest


def monomials_of_degree(n, d):
    """Weyl monomials of exact Bernstein degree d, lexicographic."""
    for exps in compositions(d, 2 * n):
        yield (exps[:n], exps[n:])


class MonomialColumns:
    """Weyl monomials in n variables packed into int columns.

    A column holds the degree in its top bits, from bit degree_bits up,
    and below it one SLOT_BITS slot per exponent, x_1..x_n then
    d_1..d_n, the first exponent highest.  So columns increase with the
    degree and, within a degree, with the exponents' lexicographic
    order: the order of the enumeration above.  Packing is linear:
    column(m) is the sum of e_j * weights[j] over m's exponents e_j, so
    the column of x_i * m is column(m) + weights[i], and a column's
    degree is column >> degree_bits.  An exponent above MAX_EXPONENT
    does not fit its slot and raises ValueError.
    """

    __slots__ = ("n", "degree_bits", "weights", "_offsets")

    def __init__(self, n):
        slots = 2 * n
        self.n = n
        self.degree_bits = slots * SLOT_BITS
        self._offsets = [SLOT_BITS * (slots - 1 - j) for j in range(slots)]
        self.weights = tuple((1 << self.degree_bits) + (1 << s) for s in self._offsets)

    def column(self, label):
        exps = label[0] + label[1]
        if max(exps) > MAX_EXPONENT:
            raise ValueError(f"exponent {max(exps)} above {MAX_EXPONENT}, the largest a column holds")
        return sum(map(mul, exps, self.weights))

    def label(self, column):
        exps = [column >> s & MAX_EXPONENT for s in self._offsets]
        return tuple(exps[: self.n]), tuple(exps[self.n :])
