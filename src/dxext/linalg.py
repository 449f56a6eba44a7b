"""Exact sparse echelon forms over the rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  Ranks
and span intersections run fraction-free on primitive integer rows: a
reduction divides out the content of what it returns, once.

SparseEchelon keeps one row per pivot column, the largest column of
the row.  Given a step, it also holds each stored row's chain: the same
row with k*step added to every column, for k = 1, 2, ... up to where
that pivot meets the next stored row.  A member of a chain is never
built or kept; reductions subtract the stored row at its offset.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
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

    step, when given, makes every stored row the base of a chain: its
    member k is the base with k*step added to every column, so it
    pivots at the base's pivot plus k*step.  Columns p and p + k*step
    lie on one line, a residue class modulo step.  The echelon counts
    generations: add stores a base at the current one, and extend starts
    the next.  Then every chain gains its next member, except a chain
    whose next member would pivot where the next base up its line
    pivots: that member, primitive as its base is, is reduced against
    the rows directly instead, after every other chain has grown, in
    the order the chains were started, and a row stored for it starts a
    chain in that chain's place.  degree
    gives a column's degree, which adding step raises by one; extend
    counts the new members by it.  rows builds every member.
    """

    __slots__ = (
        "_rows", "_step", "_degree", "_lines", "_start", "_order", "_due", "_tally",
        "_members", "_width",
    )

    def __init__(self, step=None, degree=None):
        self._rows = {}  # {pivot: row}, the stored rows: every chain's base
        self._step, self._degree = step, degree
        self._lines = {}  # {pivot % step: tuple of the pivots of the stored rows on that line, ascending}
        self._start = {}  # {pivot: generation at which its row was stored}
        self._order = {}  # {pivot: place in the chain order, while its chain grows}
        self._due = {}  # {generation: pivots whose chain may meet the next base then}
        self._tally = Counter()  # {degree(pivot) - start: chains that still grow}
        self._members = 0
        self._width = 0  # the current generation

    @property
    def rank(self):
        return len(self._rows) + self._members

    @property
    def rows(self):
        """A fresh {pivot: row} dict of every row, with each chain's
        members built."""
        rows, step, width, start = self._rows, self._step, self._width, self._start
        out = dict(rows)
        for line in self._lines.values():
            for i, b in enumerate(line):
                top = width - start[b]
                if i + 1 < len(line):
                    top = min(top, (line[i + 1] - b) // step - 1)
                row = rows[b]
                for shift in range(step, top * step + 1, step):
                    out[b + shift] = {c + shift: v for c, v in row.items()}
        return out

    def _base(self, p):
        """The pivot of the stored row whose chain holds the row pivoting
        at p (p itself for a stored row), or None when no row pivots at p."""
        if p in self._rows:
            return p
        step = self._step
        line = self._lines.get(p % step) if step else None
        if line:
            i = bisect_right(line, p)
            if i:
                b = line[i - 1]
                if self._start[b] + (p - b) // step <= self._width:
                    return b
        return None

    def row(self, p):
        """The row pivoting at p, or None when no row pivots there."""
        b = self._base(p)
        if b is None:
            return None
        row, shift = self._rows[b], p - b
        return {c + shift: v for c, v in row.items()} if shift else row

    def _meets(self, b):
        """The generation at which b's chain meets the next base up its
        line, None when there is none."""
        step = self._step
        line = self._lines[b % step]
        i = bisect_right(line, b)
        return self._start[b] + (line[i] - b) // step if i < len(line) else None

    def _chain(self, p):
        """Start the chain of the row just stored at p, and stop the chain
        below it on its line where it meets p."""
        step, width, start = self._step, self._width, self._start
        start[p] = width
        self._order[p] = len(self._rows)  # after every chain started before
        self._tally[self._degree(p) - width] += 1
        key = p % step
        line = self._lines.get(key, ())
        i = bisect_right(line, p)
        self._lines[key] = line = line[:i] + (p,) + line[i:]
        due = self._due
        if i + 1 < len(line):
            due.setdefault(width + (line[i + 1] - p) // step, []).append(p)
        if i:
            b = line[i - 1]
            due.setdefault(start[b] + (p - b) // step, []).append(b)

    def extend(self):
        """Start the next generation: ({degree: members added}, pivots of
        the rows stored for the chains that met a base), in chain order."""
        self._width = width = self._width + 1
        rows, step, start, order, tally, degree = (
            self._rows, self._step, self._start, self._order, self._tally, self._degree)
        met = [b for b in self._due.pop(width, ()) if self._meets(b) == width]
        for b in met:
            key = degree(b) - start[b]
            tally[key] -= 1
            if not tally[key]:
                del tally[key]
        members = {key + width: n for key, n in tally.items()}
        self._members += sum(members.values())
        pivots = []
        for b in sorted(met, key=order.__getitem__):
            shift = (width - start[b]) * step
            # a stored row is primitive, and so is its shift
            row = self._store(self._reduce({c + shift: v for c, v in rows[b].items()}))
            place = order.pop(b)
            if row is not None:
                p = max(row)
                order[p] = place
                pivots.append(p)
        return members, pivots

    def residual(self, vec):
        """Primitive integer residual of vec against the current rows.

        vec's values are ints or Fractions; an int vector only has its
        content divided out before it is reduced.  No step divides: each
        scales the work vector by a positive integer and subtracts a
        multiple of a row, which changes no later step's direction, so
        the content comes out once, at the end, with the same primitive
        result.
        """
        try:
            g = math.gcd(*vec.values())
        except TypeError:  # a Fraction entry: clear denominators first
            work = primitive(vec)[1]
        else:
            work = {c: v // g for c, v in vec.items() if v}  # g == 0 only when every v is 0
        return self._reduce(work)

    def _reduce(self, work):
        """The primitive residual of work, a primitive integer vector that
        it takes over and may change."""
        rows, base, reduced = self._rows, self._base, False
        while work:
            p = max(work)
            row = rows.get(p)
            if row is None:
                b = base(p)
                if b is None:
                    break
                row = rows[b]
            else:
                b = p
            reduced = True
            shift = p - b
            a, m = row[b], work[p]
            g = math.gcd(a, m)
            ma, mb = a // g, m // g
            if ma != 1:
                work = {c: ma * v for c, v in work.items()}
            for c, rv in row.items():  # clears p, as ma*m == mb*a
                c += shift
                nv = work.get(c, 0) - mb * rv
                if nv:
                    work[c] = nv
                else:
                    del work[c]
        if reduced and work:
            g = math.gcd(*work.values())
            if g > 1:
                work = {c: v // g for c, v in work.items()}
        return work

    def add(self, vec):
        """Insert a vector; the row stored for it when it enlarged the
        span, else None.

        The row is the echelon's own dict, which it never changes
        afterwards.  With a step, it is the base of a new chain.
        """
        return self._store(self.residual(vec))

    def _store(self, r):
        """Store a nonzero residual r as a row with a positive pivot, and
        return it; None for an empty r."""
        if not r:
            return None
        p = max(r)
        if r[p] < 0:
            r = {c: -v for c, v in r.items()}
        self._rows[p] = r
        if self._step is not None:
            self._chain(p)
        return r

    def contains(self, vec):
        return not self.residual(vec)

    def reduce_fractions(self, vec):
        """Exact Fraction residual (canonical representative modulo the span)."""
        rows, base = self._rows, self._base
        work = {c: Fraction(v) for c, v in vec.items() if v}
        top = None
        while True:
            # columns from top up are no pivots, and no step changes them
            for p in sorted((c for c in work if top is None or c < top), reverse=True):
                b = base(p)
                if b is not None:
                    break
            else:
                return work
            row, shift, top = rows[b], p - b, p
            scale = work[p] / row[b]
            for c, rv in row.items():
                c += shift
                nv = work.get(c, 0) - scale * rv
                if nv:
                    work[c] = nv
                else:
                    del work[c]
