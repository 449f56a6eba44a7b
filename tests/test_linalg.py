"""Sparse exact linear algebra against a dense Fraction oracle."""

import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dxext.linalg import SparseEchelon, primitive


def dense_rank(rows, ncols):
    """Plain Gaussian elimination over Fraction, written independently."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_span_dim_matches_dense_oracle():
    rng = random.Random(40501)
    for _ in range(60):
        ncols = rng.randrange(3, 9)
        rows = random_rows(rng, rng.randrange(1, 12), ncols)
        ech = SparseEchelon()
        for row in rows:
            ech.add(row)
        assert ech.rank == dense_rank(rows, ncols)


def test_echelon_add_reports_rank_growth():
    # add returns the echelon's own stored row, or None when the span
    # did not grow
    ech = SparseEchelon()
    assert ech.add({0: Fraction(1)}) == {0: 1}
    assert ech.add({0: Fraction(5)}) is None
    assert ech.add({0: Fraction(1), 1: Fraction(1)}) is ech.rows[1]
    assert ech.add({1: Fraction(-2)}) is None
    assert ech.add({2: Fraction(-3), 0: Fraction(6)}) == {0: -2, 2: 1} == ech.rows[2]
    assert ech.rank == 3


def test_contains_and_residual():
    rng = random.Random(40502)
    for _ in range(30):
        ncols = rng.randrange(3, 8)
        ech = SparseEchelon()
        rows = random_rows(rng, rng.randrange(1, 6), ncols)
        for row in rows:
            ech.add(dict(row))
        # Any combination of the inserted rows must be contained.
        combo = {}
        for row in rows:
            scale = rng.randrange(-3, 4)
            for c, v in row.items():
                combo[c] = combo.get(c, Fraction(0)) + scale * v
        combo = {c: v for c, v in combo.items() if v}
        assert ech.contains(combo)
        assert not ech.residual(combo)
        # Residuals are primitive, idempotent, and zero exactly on members.
        probe = random_rows(rng, 1, ncols)[0]
        res = ech.residual(probe)
        assert ech.contains(probe) == (not res)
        if res:
            assert ech.residual(res) == res
            g = 0
            for v in res.values():
                g = __import__("math").gcd(g, v)
            assert g == 1


@st.composite
def primitive_int_rows(draw):
    row = draw(st.dictionaries(
        st.integers(0, 7), st.integers(-9, 9).filter(bool), min_size=1, max_size=6
    ))
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()}


@settings(max_examples=200, deadline=None)
@given(st.lists(primitive_int_rows(), max_size=12))
def test_primitive_rows_enter_unchanged(rows):
    # A primitive integer row whose pivot is still free is stored as a
    # copy of itself with its pivot made positive; the echelon comes out
    # as it does from Fraction copies of the rows, and the caller's rows
    # are untouched.
    copies = [dict(row) for row in rows]
    ints, fractions = SparseEchelon(), SparseEchelon()
    for row in rows:
        pivot = max(row)
        free = ints.row(pivot) is None
        stored = ints.add(row)
        if free:
            sign = 1 if row[pivot] > 0 else -1
            assert stored == {c: sign * v for c, v in row.items()}
            assert stored is not row
        assert (fractions.add({c: Fraction(v) for c, v in row.items()}) is None) == (stored is None)
    assert fractions.rows == ints.rows
    assert rows == copies


def test_trailing_pivot_prefix_identity():
    # With trailing pivots, the number of pivots below k equals the
    # dimension of the span intersected with the span of the first k
    # coordinates.  The oracle computes that intersection dimension as
    # rank - rank(rows restricted to coordinates >= k).  The pivots are
    # read from the pivot set, the keys of ech.rows.
    rng = random.Random(40503)
    for _ in range(40):
        ncols = rng.randrange(3, 9)
        rows = random_rows(rng, rng.randrange(1, 10), ncols)
        ech = SparseEchelon()
        for row in rows:
            ech.add(dict(row))
        total = dense_rank(rows, ncols)
        assert ech.rank == total
        for k in range(ncols + 1):
            tails = [
                {c - k: v for c, v in row.items() if c >= k}
                for row in rows
            ]
            want = total - dense_rank(tails, ncols - k)
            assert sum(p < k for p in ech.rows) == want


def test_reduce_fractions_properties():
    rng = random.Random(40504)
    ncols = 6
    ech = SparseEchelon()
    for row in random_rows(rng, 4, ncols):
        ech.add(row)
    for _ in range(20):
        vec = random_rows(rng, 1, ncols)[0]
        red = ech.reduce_fractions(vec)
        diff = dict(vec)
        for c, v in red.items():
            diff[c] = diff.get(c, Fraction(0)) - v
        assert ech.contains({c: v for c, v in diff.items() if v})
        assert ech.reduce_fractions(red) == red
        assert (red == {}) == ech.contains(vec)


STEP = 5


def _chain_echelon():
    # chains along c -> c + STEP; a column's degree is c // STEP
    return SparseEchelon(STEP, lambda c: c // STEP)


def _int_rows(rng, nrows, ncols, density=0.3):
    rows = [{c: rng.randrange(-6, 7) for c in range(ncols) if rng.random() < density} for _ in range(nrows)]
    return [{c: v for c, v in row.items() if v} for row in rows if any(row.values())]


def test_chains_agree_with_eager_rows():
    # Oracle: an echelon fed every shifted row through add.  At each
    # generation it adds the shift by STEP of every row stored in the
    # generation before, first those whose pivot is free (each is stored
    # as it is), then the others in order, then the generation's new
    # rows.  The chain echelon must store the same rows, report the
    # shifted rows that met a stored row, count the pivots per degree,
    # and answer every query the same way.
    rng = random.Random(40505)
    met = grown = 0
    for _ in range(60):
        chains, eager = _chain_echelon(), SparseEchelon()
        last, degrees = [], Counter()  # rows eager stored in the last generation, in chain order
        for gen in range(rng.randrange(3, 9)):
            if gen:
                members, pivots = chains.extend()
                shifted = [{c + STEP: v for c, v in row.items()} for row in last]
                taken = [eager.row(max(vec)) is not None for vec in shifted]
                stored = {}
                for i in sorted(range(len(shifted)), key=taken.__getitem__):
                    stored[i] = eager.add(shifted[i])
                last = [stored[i] for i in range(len(shifted)) if stored[i] is not None]
                assert pivots == [max(stored[i]) for i in range(len(shifted)) if taken[i] and stored[i] is not None]
                assert sum(members.values()) == taken.count(False)
                degrees.update(members)
                degrees.update(p // STEP for p in pivots)
                met += sum(taken)
                grown += taken.count(False)
            for row in _int_rows(rng, rng.randrange(1, 5), 4 * STEP):
                ours = chains.add(row)
                assert ours == eager.add(row)
                if ours is not None:
                    last.append(ours)
                    degrees[max(ours) // STEP] += 1
            assert chains.rank == eager.rank
            assert chains.rows == eager.rows
            assert degrees == Counter(p // STEP for p in eager.rows)
            top = max(eager.rows, default=0) + 2
            for p in range(top):
                assert chains.row(p) == eager.rows.get(p)
            for vec in _int_rows(rng, 6, top):
                assert chains.contains(vec) == eager.contains(vec)
                assert chains.residual(vec) == eager.residual(vec)
                assert chains.reduce_fractions(vec) == eager.reduce_fractions(vec)
    assert met > 30 and grown > 100


def _pivot(row):
    return None if row is None else max(row)


def test_int_vector_enters_as_its_fraction_copy():
    # an int vector skips the common denominator: its content and its
    # explicit zero entries go as they do for the same vector as Fractions
    vec = {0: 6, 2: 0, 3: -4, 5: 10}
    ints, fractions = SparseEchelon(), SparseEchelon()
    stored = ints.add(vec)
    assert stored == fractions.add({c: Fraction(v) for c, v in vec.items()}) == {0: 3, 3: -2, 5: 5}
    assert ints.residual({1: 4, 4: 0}) == {1: 1}
    assert ints.residual({2: 0}) == {}
    probe = {0: 9, 3: -6, 5: 15, 1: 0}
    assert ints.contains(probe) and fractions.contains(probe)


def test_image_chain_materialises_without_recursion():
    # a chain whose members, the images of its base, outnumber the
    # interpreter's recursion limit: nothing builds them until they are
    # read, and then row(p), rows and contains read them directly
    length = 1500
    ech = SparseEchelon(1, lambda c: c)
    ech.add({0: Fraction(2), 1: Fraction(-4)})
    for gen in range(1, length):
        assert ech.extend() == ({1 + gen: 1}, [])  # the base's degree is 1
    assert ech.rank == length
    assert list(ech._rows) == [1]
    assert ech.row(length) == {length - 1: -1, length: 2}
    assert ech.row(length + 1) is None
    assert ech.contains({length - 1: 1, length: -2})
    assert not ech.contains({length: 1, length + 1: 1})
    rows = ech.rows
    assert len(rows) == length and rows[length] == ech.row(length)
    assert list(ech._rows) == [1]


def _leading_reduction(rows, vec):
    """vec over Q with its largest column reduced while a row pivots
    there, by plain Fraction elimination, then made primitive."""
    work = {c: Fraction(v) for c, v in vec.items() if v}
    while work and max(work) in rows:
        p = max(work)
        row, scale = rows[p], work[p] / rows[p][p]
        for c, v in row.items():
            work[c] = work.get(c, 0) - scale * v
            if not work[c]:
                del work[c]
    return primitive(work)[1] if work else {}


def test_residual_divides_the_content_once():
    # residual scales by integers and divides out the content only at
    # the end; it must equal the primitive form of the reduction that
    # divides at every step, signs kept, on plain and chain echelons, and
    # it agrees with reduce_fractions up to a nonzero scale
    rng = random.Random(40506)
    for chained in (False, True):
        for _ in range(40):
            ech = _chain_echelon() if chained else SparseEchelon()
            for gen in range(3):
                if chained and gen:
                    ech.extend()
                for row in _int_rows(rng, rng.randrange(1, 5), 3 * STEP):
                    ech.add({c: 7 * v for c, v in row.items()})
            rows = ech.rows
            for vec in _int_rows(rng, 6, 4 * STEP, 0.5):
                vec = {c: v * rng.choice([1, 2, 6, -15]) for c, v in vec.items()}
                res = ech.residual(vec)
                assert res == _leading_reduction(rows, vec)
                assert not res or math.gcd(*res.values()) == 1
                full = primitive(ech.reduce_fractions(vec))[1] if ech.reduce_fractions(vec) else {}
                again = ech.reduce_fractions(res)
                assert (primitive(again)[1] if again else {}) in (full, {c: -v for c, v in full.items()})
