"""Exact sparse echelon forms over the rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  Ranks
and span intersections run fraction-free on primitive integer rows
(content divided out, so coefficients stay small).

SparseEchelon keeps one row per pivot column.  The pivot is the largest
column of the row, which makes prefix queries exact: with columns
enumerated degree by degree, the number of rows whose pivot falls
inside the first k columns equals the dimension of the intersection of
the span with that coordinate prefix.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction

__all__ = ["SparseEchelon", "primitive"]


def primitive(vec):
    """(scale, ints) with vec == scale * ints on its nonzero entries.

    ints is the primitive integer form: denominators cleared and the
    content divided out, signs kept.  Values are ints or Fractions.
    """
    den = math.lcm(*(v.denominator for v in vec.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}
    g = math.gcd(*ints.values())
    if g <= 1:
        return Fraction(1, den), ints
    return Fraction(g, den), {c: v // g for c, v in ints.items()}


class SparseEchelon:
    """Incremental row echelon over Q, fraction-free integer rows.

    Rows are primitive integer vectors keyed by pivot column; no two
    rows share a pivot, and each row pivots on its largest column.
    """

    __slots__ = ("rows", "_pivots")

    def __init__(self):
        self.rows = {}
        self._pivots = []  # sorted pivot columns

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, vec, *, is_primitive=False):
        """Primitive integer residual of vec against the current rows.

        is_primitive says that vec is already a primitive integer row
        with no zero entries, so it is copied instead of normalised.
        """
        work = dict(vec) if is_primitive else primitive(vec)[1]
        while work:
            p = max(work)
            row = self.rows.get(p)
            if row is None:
                return work
            a, b = row[p], work.pop(p)
            g = math.gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                work = {c: ma * v for c, v in work.items()}
            for c, rv in row.items():
                if c == p:
                    continue
                nv = work.get(c, 0) - mb * rv
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
            if work:
                g = 0
                for v in work.values():
                    g = math.gcd(g, v)
                if g > 1:
                    work = {c: v // g for c, v in work.items()}
        return {}

    def add(self, vec, *, is_primitive=False):
        """Insert a vector; the row stored for it when it enlarged the
        span, else None.

        The row is the echelon's own dict, which it never changes
        afterwards.  is_primitive is passed on to residual.
        """
        r = self.residual(vec, is_primitive=is_primitive)
        if not r:
            return None
        p = max(r)
        if r[p] < 0:
            r = {c: -v for c, v in r.items()}
        self.rows[p] = r
        insort(self._pivots, p)
        return r

    def contains(self, vec):
        return not self.residual(vec)

    def pivots_below(self, k):
        """Number of pivot columns < k, which equals
        dim(span intersected with coordinates 0..k-1)."""
        return bisect_left(self._pivots, k)

    def reduce_fractions(self, vec):
        """Exact Fraction residual (canonical representative modulo the span)."""
        work = {c: Fraction(v) for c, v in vec.items() if v}
        while True:
            hit = None
            for p in sorted(work, reverse=True):
                if p in self.rows:
                    hit = p
                    break
            if hit is None:
                return work
            row = self.rows[hit]
            scale = work[hit] / row[hit]
            for c, rv in row.items():
                nv = work.get(c, Fraction(0)) - scale * rv
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
