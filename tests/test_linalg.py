"""Sparse exact linear algebra against a dense Fraction oracle."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dxext.linalg import SparseEchelon


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


def _shift_columns(row):
    # a column map that keeps the order of columns: c -> 2c + 1
    return {2 * c + 1: v for c, v in row.items()}


def test_images_agree_with_eager_rows():
    # add_images records the image of a stored row without building it
    # when its pivot is given and free, and adds it otherwise; every query
    # answers as for an echelon fed the same rows one add at a time, and
    # the pivot set, built rows and recorded images together, is the same
    # (so is the number of pivots below every k)
    rng = random.Random(40505)
    recorded = reduced = 0
    for _ in range(30):
        lazy, eager = SparseEchelon(_shift_columns), SparseEchelon()
        for row in random_rows(rng, rng.randrange(1, 6), 5):
            lazy.add(row)
            eager.add(row)
        sources = sorted(lazy._rows)
        rng.shuffle(sources)
        pairs = [(p, None if rng.random() < 0.3 else 2 * p + 1) for p in sources]
        want = [_pivot(eager.add(_shift_columns(eager.rows[p]))) for p in sources]
        assert lazy.add_images(pairs) == want
        recorded += len(lazy._images)
        reduced += sum(q is None for _, q in pairs)
        assert lazy.rank == eager.rank
        assert sorted([*lazy._rows, *lazy._images]) == sorted(eager.rows)
        top = 2 * max(sources, default=0) + 2
        for vec in random_rows(rng, 6, top):
            assert lazy.contains(vec) == eager.contains(vec)
            assert lazy.reduce_fractions(vec) == eager.reduce_fractions(vec)
        for p in sorted(eager.rows, reverse=True):
            assert lazy.row(p) == eager.rows[p]
        assert lazy.rows == eager.rows
        assert not lazy._images
    assert recorded > 30 and reduced > 10


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
    # row(p) walks a chain of images iteratively, so a chain longer than
    # the interpreter's recursion limit still materialises
    length = 1500
    ech = SparseEchelon(lambda row: {c + 1: v for c, v in row.items()})
    ech.add({0: Fraction(2), 1: Fraction(-4)})
    assert ech.add_images([(p, p + 1) for p in range(1, length)]) == list(range(2, length + 1))
    assert ech.rank == length
    assert len(ech._images) == length - 1
    assert ech.row(length) == {length - 1: -1, length: 2}
    assert not ech._images
    assert ech.contains({length - 1: 1, length: -2})
