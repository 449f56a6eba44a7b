"""Degree-graded enumeration of Weyl monomials.

Monomials (x_exponents, d_exponents) are enumerated degree by degree,
lexicographically within a degree, so the monomials of Bernstein degree
at most m always form a prefix of the enumeration.  Positions are
stable under extension, which lets echelon pivots answer per-level
questions.
"""

from __future__ import annotations

__all__ = [
    "compositions",
    "monomials_of_degree",
]


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
