"""Exact sparse echelon forms over the rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  Ranks
and span intersections run fraction-free on primitive integer rows
(content divided out, so coefficients stay small).

SparseEchelon keeps one row per pivot column, the largest column of
the row.  A row is either stored, or recorded as the image of another
row under a fixed column map and built from it only when a reduction
or a reader of rows needs it.
"""

from __future__ import annotations

import math
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

    image, when given, maps a row to a primitive integer row whose
    largest column holds the same positive coefficient.  add_images
    adds the images of rows in turn: one whose largest column the caller
    knows and no row pivots at yet is recorded without building it, and
    row(q) builds it on first use and keeps it; any other is built and
    added.  rows builds every image and returns the {pivot: row} dict.
    """

    __slots__ = ("_rows", "_images", "_image")

    def __init__(self, image=None):
        self._rows = {}  # {pivot: row}, the rows built so far
        self._images = {}  # {pivot: pivot of the row it is the image of}
        self._image = image

    @property
    def rank(self):
        return len(self._rows) + len(self._images)

    @property
    def rows(self):
        for p in list(self._images):
            self.row(p)
        return self._rows

    def row(self, p):
        """The row pivoting at p, or None when no row pivots there.

        An image is built from the nearest built row it descends from,
        walking the chain iteratively, and every row on the way is kept.
        """
        row = self._rows.get(p)
        if row is not None or p not in self._images:
            return row
        chain = [p]
        source = self._images[p]
        while source not in self._rows:
            chain.append(source)
            source = self._images[source]
        row = self._rows[source]
        for q in reversed(chain):
            row = self._image(row)
            self._rows[q] = row
            del self._images[q]
        return row

    def add_images(self, pairs):
        """Add the image of each row in turn, and the pivot of each row
        stored, None where the span did not grow.

        pairs holds (p, q): p the pivot of a row, q the largest column of
        its image when the caller knows it, else None.  An image whose q
        is free is recorded without building it; any other is built and
        reduced by add.  The echelon keeps no pivot order, so a caller
        that counts pivots counts the ones returned here and by add.
        """
        rows, images, out = self._rows, self._images, []
        for p, q in pairs:
            if q is None or q in rows or q in images:
                row = self.add(self._image(self.row(p)))
                out.append(None if row is None else max(row))
            else:
                images[q] = p
                out.append(q)
        return out

    def residual(self, vec):
        """Primitive integer residual of vec against the current rows.

        vec's values are ints or Fractions; an int vector only has its
        content divided out.
        """
        rows, images = self._rows, self._images
        try:
            g = math.gcd(*vec.values())
        except TypeError:  # a Fraction entry: clear denominators first
            work = primitive(vec)[1]
        else:
            work = {c: v // g for c, v in vec.items() if v}  # g == 0 only when every v is 0
        while work:
            p = max(work)
            row = rows.get(p)
            if row is None:
                if p not in images:
                    return work
                row = self.row(p)
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
                g = math.gcd(*work.values())
                if g > 1:
                    work = {c: v // g for c, v in work.items()}
        return {}

    def add(self, vec):
        """Insert a vector; the row stored for it when it enlarged the
        span, else None.

        The row is the echelon's own dict, which it never changes
        afterwards.
        """
        r = self.residual(vec)
        if not r:
            return None
        p = max(r)
        if r[p] < 0:
            r = {c: -v for c, v in r.items()}
        self._rows[p] = r
        return r

    def contains(self, vec):
        return not self.residual(vec)

    def reduce_fractions(self, vec):
        """Exact Fraction residual (canonical representative modulo the span)."""
        rows, images = self._rows, self._images
        work = {c: Fraction(v) for c, v in vec.items() if v}
        while True:
            hit = None
            for p in sorted(work, reverse=True):
                if p in rows or p in images:
                    hit = p
                    break
            if hit is None:
                return work
            row = self.row(hit)
            scale = work[hit] / row[hit]
            for c, rv in row.items():
                nv = work.get(c, Fraction(0)) - scale * rv
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
