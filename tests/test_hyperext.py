"""Two-term resolution engine: truncation tables, twists, actions."""

import hashlib
import math
from fractions import Fraction

import pytest

from dxext.curves import planar_model
from dxext.hyperext import (
    CokernelEngine,
    EndElement,
    ModuleIndex,
    MonomialIndex,
    NoTwistSolution,
    action_ext0,
    action_ext1,
    action_ext1_on_ext1,
    end_membership,
    ext1_self_dims,
    ext_module_dims,
    solve_twist,
)
from dxext.grading import MAX_EXPONENT
from dxext.models import DXQuotientModule, DeltaModule, FreeWeylModule, KummerICModule, LineICModule, parse_model
from dxext.parser import parse
from dxext.tables import EXACT_GRADED, EXACT_ZERO, STABILIZED
from dxext.weyl import Filtration, WeylElement


def P(text):
    return parse(text, 2)


def self_engine(f):
    """The engine of D/(Df + fD): rows NF(g*f) in D/fD, g standard."""
    return CokernelEngine(DXQuotientModule(f), f)


def times_x(i, label):
    """x_i times the Weyl monomial label (xexp, dexp)."""
    xexp, dexp = label
    return xexp[:i] + (xexp[i] + 1,) + xexp[i + 1 :], dexp


def x_shift(module, label):
    """The label the model's x-shift takes label to, from the labels
    alone: x_i times a Weyl monomial, and on the line model the right
    action of x, (i, j) -> (i + 1, j)."""
    if isinstance(module, LineICModule):
        return label[0] + 1, label[1]
    return times_x(module.shift_x, label)


def test_node_dimension_sequence():
    table = ext1_self_dims(P("x*y"), 5)
    assert [lvl.dim for lvl in table.levels] == [1, 3, 7, 13, 21, 31]
    assert all(lvl.status == STABILIZED for lvl in table.levels)
    assert table.notes["generator_width"] >= 7


def test_node_agrees_with_rewrite_counts():
    from dxext.rewrite import irreducible_dims, node_system

    table = ext1_self_dims(P("x*y"), 5)
    counts = irreducible_dims(node_system(), 5)
    assert [lvl.dim for lvl in table.levels] == [lvl.dim for lvl in counts.levels]


def test_smooth_point_vanishes_exactly():
    # f = x: the identity 1 = dx*x - x*dx makes the quotient zero, and a
    # zero upper bound is a proof.
    table = ext1_self_dims(P("x"), 6)
    assert [lvl.dim for lvl in table.levels] == [0] * 7
    assert all(lvl.status == EXACT_ZERO for lvl in table.levels)


def test_smooth_after_coordinate_change_vanishes():
    for text in ("x + y^2", "y - x^2"):
        table = ext1_self_dims(parse(text, 2), 4)
        assert all(lvl.dim == 0 for lvl in table.levels), text
        assert all(lvl.status == EXACT_ZERO for lvl in table.levels)


def test_engine_widening_is_monotone():
    engine = self_engine(P("x*y"))
    engine.widen_to(2)
    previous = engine.level_dims(3)
    for width in range(3, 7):
        engine.widen_to(width)
        current = engine.level_dims(3)
        assert all(c <= p for c, p in zip(current, previous))
        previous = current


def test_engine_rejects_nonpolynomial():
    with pytest.raises(ValueError):
        self_engine(P("x + dx"))
    with pytest.raises(ValueError):
        ext1_self_dims(P("dx"), 3)
    with pytest.raises(ValueError):
        ext1_self_dims(P("x"), -1)


def test_reduce_class_is_canonical():
    engine = self_engine(P("x*y"))
    engine.widen_to(6)
    quotient = engine.index.module
    e = P("x dx^2")
    red = engine.reduce(quotient.reduce_element(e))
    # Same class: e - red is g*f + f*h with g*f in the span.
    diff = quotient.reduce_element(e - WeylElement(2, red))
    assert engine.echelon.contains(engine.index.vector(diff))
    # Canonical: reducing twice changes nothing.
    assert engine.reduce(red) == red
    # Members of the ideal reduce to zero.
    assert not engine.reduce(quotient.reduce_element(P("x y dx dy")))


@pytest.mark.parametrize("text,max_deg,width", [
    ("x*y", 5, 10),
    ("x + y^2", 8, 15),
    ("y^2 - x^3", 3, 26),
])
def test_generator_width_pinned(text, max_deg, width):
    # Label degree plus deg f, from the start at label degree max_deg.
    table = ext1_self_dims(P(text), max_deg)
    assert table.notes["generator_width"] == width


@pytest.mark.parametrize("level,width,rank,nnz,bits", [
    (2, 18, 3111, 14735, 29),
    (3, 23, 6401, 32972, 40),
    (4, 28, 11446, 62335, 51),
])
def test_cusp_echelon_pinned(level, width, rank, nnz, bits):
    # The echelon stores primitive rows with a positive pivot, so any
    # row kernel that yields nonzero multiples of NF(g*f) leaves these
    # counts unchanged; a kernel that changes the rows does not.
    engine = self_engine(P("y^2 - x^3"))
    engine.ext1_levels(level, level, 3)
    rows = engine.echelon.rows.values()
    assert engine.width == width
    assert engine.echelon.rank == rank
    assert sum(len(row) for row in rows) == nnz
    assert max(abs(v).bit_length() for row in rows for v in row.values()) == bits
    # shifted rows enter the echelon without re-normalising, which is
    # sound only because every stored row is primitive with its largest
    # column positive
    for row in rows:
        assert math.gcd(*row.values()) == 1
        assert row[max(row)] > 0


def test_shifted_pivot_is_the_pivot_of_the_shifted_row():
    # a row shifted by x_i pivots at its pivot plus the index's step, so
    # the echelon can keep every shift of a stored row as a member of its
    # chain; checked on every row, members built
    for engine, widen in (
        (self_engine(P(CUSP)), lambda e: e.ext1_levels(4, 4, 3)),
        (CokernelEngine(parse_model("free:2"), P("x*y")), lambda e: e.widen_to(6)),
        (CokernelEngine(LineICModule(2), P(CUSP)), lambda e: e.widen_to(8)),
    ):
        widen(engine)
        index, module = engine.index, engine.index.module
        rows = engine.echelon.rows
        assert len(rows) == engine.echelon.rank > len(engine.echelon._rows)
        for p, row in rows.items():
            shifted = index.vector({x_shift(module, lab): v for lab, v in index.combination(row).items()})
            assert max(shifted) == p + index.step, p


@pytest.mark.parametrize("spec", [
    "dx:y^2 - x^3", "dx:x^3 + y^5", "dx:z^2 - x*y", "free:2", "free:3",
    "dx:x*y", "free:1", "dx:x*y + dx", "nlines-ic:2",
])
def test_label_order_column_map_matches_the_generic_map(spec):
    # through degree 8 the packed columns sort the labels in the order
    # ModuleIndex numbers them, give each label's degree by a shift, and
    # map x_i on a Weyl monomial to adding weights[i]; the x-shift adds
    # the index's step to every column, and the labels that get rows of
    # their own are those outside its image
    module = parse_model(spec)
    packed, numbered = MonomialIndex(module), ModuleIndex(module)
    assert isinstance(CokernelEngine(module, parse("x", module.n)).index, MonomialIndex)
    numbered.extend_to(8)
    labels, column = numbered._labels, module.columns.column
    cols = [column(lab) for lab in labels]
    assert sorted(cols) == cols and len(set(cols)) == len(cols)
    assert packed.vector({lab: 1 for lab in labels}) == dict.fromkeys(cols, 1)
    assert packed.combination(dict.fromkeys(cols, 1)) == dict.fromkeys(labels, 1)
    assert [packed.degree_of(c) for c in cols] == [module.degree(lab) for lab in labels]
    if not isinstance(module, LineICModule):  # its labels are pairs (i, j)
        for i, step in enumerate(module.columns.weights[: module.n]):
            assert [column(times_x(i, lab)) for lab in labels] == [c + step for c in cols]
    for d in range(9):
        assert packed.labels_of_degree(d) == numbered.labels_of_degree(d)
        assert packed.prefix_size(d) == numbered.prefix_size(d)
    if hasattr(module, "shift_x"):
        assert packed.step == module.columns.weights[module.shift_x]
        columns = cols[: numbered.prefix_size(7)]  # their shifts lie in degree 8
        assert [column(x_shift(module, lab)) for lab in labels[: len(columns)]] == [c + packed.step for c in columns]
        for d in range(9):
            image = {x_shift(module, lab) for lab in numbered.labels_of_degree(d - 1)} if d else set()
            assert packed.new_labels(d) == [lab for lab in numbered.labels_of_degree(d) if lab not in image]
    else:
        assert packed.step is None
        assert all(packed.new_labels(d) == numbered.labels_of_degree(d) for d in range(9))


def test_packed_columns_hold_every_degree_through_their_limit():
    # 16-bit slots: free:1 at max_deg 300 (an 8-bit slot would refuse it)
    # keeps its exact-graded table, and a degree past MAX_EXPONENT is
    # refused by the index before any label is listed or any row is
    # built; so is it on the line model's pairs, packed as x^i d^j, and
    # on the numbered columns of the Kummer and delta models
    ext0, ext1 = ext_module_dims(FreeWeylModule(1), parse("x", 1), 300)
    assert ext0.dims() == [0] * 301 and ext1.dims() == [m + 1 for m in range(301)]
    assert {lvl.status for table in (ext0, ext1) for lvl in table.levels} == {EXACT_GRADED}
    assert ext1.notes["generator_degree_bound"] == 299
    top = MAX_EXPONENT
    for module, low, high, past in (
        (FreeWeylModule(1), ((0,), (top,)), ((top,), (0,)), ((top + 1,), (0,))),
        (LineICModule(2), (0, top), (top, 0), (top + 1, 0)),
    ):
        index = MonomialIndex(module)
        assert index.labels_of_degree(top)[0] == low and index.new_labels(top) == [low]
        assert index.vector({high: 1}) == {top * index.columns.weights[0]: 1}
        assert index.combination(index.vector({low: 2, high: 3})) == {low: 2, high: 3}
        for call in (
            lambda: index.prefix_size(top + 1),
            lambda: index.labels_of_degree(top + 1),
            lambda: index.new_labels(top + 1),
            lambda: index.vector({past: 1}),
        ):
            with pytest.raises(ValueError, match=f"above {MAX_EXPONENT}"):
                call()
        assert index._through == []
    for module in (KummerICModule(Fraction(1, 2)), DeltaModule(2)):
        index = ModuleIndex(module)
        for call in (
            lambda: index.prefix_size(top + 1),
            lambda: index.labels_of_degree(top + 1),
            lambda: index.new_labels(top + 1),
        ):
            with pytest.raises(ValueError, match=f"above {MAX_EXPONENT}"):
                call()
        assert index._through == [] and index._labels == []
    with pytest.raises(ValueError, match=f"above {MAX_EXPONENT}"):
        ext1_self_dims(P("y^2 - x^3"), MAX_EXPONENT + 1)


def test_cusp_rank_comes_from_1513_base_rows():
    # the cusp at level 4 has rank 11,446, and the echelon stores only
    # 1,513 rows: every other row is a member of a chain, the x-shift of
    # a stored row, which nothing builds until rows is read
    engine = self_engine(P(CUSP))
    engine.ext1_levels(4, 4, 3)
    assert engine.echelon.rank == 11446
    assert len(engine.echelon._rows) == 1513
    assert len(engine.echelon.rows) == 11446


# sha256 of the cusp's rows at level 4 in label form: each row a sorted
# list of (label, coefficient), the rows sorted, hashed as their repr.
CUSP_ROWS_SHA256 = "69bdd1bbce105d01c63dccc66f33ef3ed77fb0322c937120665606da63e66553"


def test_cusp_rows_pinned():
    # every stored row, members of chains built: a change to the rows
    # themselves (not only their counts) fails here
    engine = self_engine(P(CUSP))
    engine.ext1_levels(4, 4, 3)
    combination = engine.index.combination
    rows = sorted(sorted(combination(row).items()) for row in engine.echelon.rows.values())
    assert len(rows) == 11446
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CUSP_ROWS_SHA256


# (rank, level_dims) after each whole label width, from width 0: the
# cusp at level 4 through width 28 and E6 at level 2 through width 20.
# Shifting stored echelon rows changes which vectors reach the echelon,
# never the span at a whole width, so these sequences cannot move.
CUSP_TRAJECTORY = [
    (0, [1, 5, 15, 34, 65]),
    (2, [1, 4, 13, 32, 63]),
    (8, [1, 4, 10, 26, 57]),
    (21, [1, 4, 10, 19, 44]),
    (43, [1, 4, 10, 19, 32]),
    (79, [1, 3, 9, 18, 30]),
    (131, [1, 3, 8, 17, 29]),
    (202, [1, 3, 7, 16, 28]),
    (296, [0, 2, 6, 13, 25]),
    (414, [0, 2, 6, 13, 23]),
    (561, [0, 1, 4, 11, 21]),
    (739, [0, 1, 4, 9, 19]),
    (951, [0, 1, 4, 8, 17]),
    (1201, [0, 0, 3, 7, 14]),
    (1490, [0, 0, 3, 7, 14]),
    (1823, [0, 0, 1, 5, 12]),
    (2202, [0, 0, 1, 4, 10]),
    (2630, [0, 0, 1, 4, 9]),
    (3111, [0, 0, 0, 3, 8]),
    (3646, [0, 0, 0, 3, 8]),
    (4240, [0, 0, 0, 1, 6]),
    (4895, [0, 0, 0, 1, 5]),
    (5614, [0, 0, 0, 1, 4]),
    (6401, [0, 0, 0, 0, 3]),
    (7257, [0, 0, 0, 0, 3]),
    (8187, [0, 0, 0, 0, 1]),
    (9193, [0, 0, 0, 0, 1]),
    (10278, [0, 0, 0, 0, 1]),
    (11446, [0, 0, 0, 0, 0]),
]

E6_TRAJECTORY = [
    (0, [1, 5, 15]),
    (2, [1, 5, 14]),
    (8, [1, 5, 14]),
    (22, [1, 5, 14]),
    (47, [1, 5, 14]),
    (87, [1, 5, 14]),
    (146, [1, 5, 14]),
    (229, [1, 5, 14]),
    (339, [1, 5, 14]),
    (482, [1, 5, 12]),
    (660, [1, 5, 12]),
    (877, [1, 5, 12]),
    (1139, [1, 3, 10]),
    (1447, [1, 3, 9]),
    (1808, [1, 3, 9]),
    (2224, [1, 3, 9]),
    (2700, [1, 3, 9]),
    (3240, [1, 3, 8]),
    (3847, [1, 3, 7]),
    (4527, [0, 2, 6]),
    (5281, [0, 2, 6]),
]


@pytest.mark.parametrize("text,level,trajectory", [
    ("y^2 - x^3", 4, CUSP_TRAJECTORY),
    ("x^3 + y^4", 2, E6_TRAJECTORY),
], ids=["cusp", "E6"])
def test_widening_trajectory_pinned(text, level, trajectory):
    engine = self_engine(P(text))
    for width, expected in enumerate(trajectory):
        engine.widen_to(width)
        assert (engine.echelon.rank, engine.level_dims(level)) == expected, width


def test_twist_euler_families():
    f = P("x*y")
    for n in range(1, 5):
        alpha = P(f"x dx^{n}")
        el = solve_twist(f, alpha)
        assert el.beta == P(f"x dx^{n} + {n} dx^{n-1}")
        assert el.verify(f)
    for m in range(1, 5):
        alpha = P(f"y dy^{m}")
        el = solve_twist(f, alpha)
        assert el.beta == P(f"y dy^{m} + {m} dy^{m-1}")
        assert el.verify(f)


def test_twist_preserves_order_symbol():
    f = P("x*y")
    alpha = P("x dx^2 + y dy")
    el = solve_twist(f, alpha)
    assert el.alpha.principal_symbol(Filtration.ORDER) == el.beta.principal_symbol(Filtration.ORDER)
    assert el.verify(f)


def test_twist_no_solution():
    # alpha = dx: dx*f = f*beta has no Weyl solution since f does not
    # divide dx*f = x y dx + x on the left.
    with pytest.raises(NoTwistSolution):
        solve_twist(P("x*y"), P("dx"))


def test_end_membership():
    f = P("x*y")
    found = end_membership(f, P("x dx"))
    assert isinstance(found, EndElement)
    assert found.verify(f)
    assert end_membership(f, P("dx")) is None
    # Membership is closed under sums and products.
    a, b = P("x dx"), P("y dy")
    assert end_membership(f, a + b)
    assert end_membership(f, a * b)
    assert end_membership(f, f * P("dx^3"))


CUSP = P("y^2 - x^3")
CUSP_EULER = P("2*x*dx + 3*y*dy")
G = P("x dy^2 + dx")

# name -> (f, alpha, beta).  Weighted Euler operators theta satisfy
# theta*f = f*(theta + weighted degree of f).
TWIST_CASES = {
    "cusp": (CUSP, CUSP_EULER, CUSP_EULER + 6),
    "three-lines": (planar_model(3), P("x*dx + y*dy"), P("x*dx + y*dy + 3")),
    "xyz": (parse("x*y*z", 3), parse("z*dz", 3), parse("z*dz + 1", 3)),
    "lead-coefficient-3": (P("3*x^2*y - y^2"), P("x*dx + 2*y*dy"), P("x*dx + 2*y*dy + 4")),
    "alpha-zero": (P("x*y"), WeylElement.zero(2), WeylElement.zero(2)),
    "member-plus-f-times-g": (CUSP, CUSP_EULER + CUSP * G, CUSP_EULER + 6 + G * CUSP),
}


@pytest.mark.parametrize("name", list(TWIST_CASES))
def test_twist_by_division(name):
    f, alpha, beta = TWIST_CASES[name]
    el = solve_twist(f, alpha)
    assert alpha * f == f * el.beta
    assert el.beta == beta


@pytest.mark.parametrize("name", list(TWIST_CASES))
def test_twist_division_rejects_non_member(name):
    # (h + dx)*f = f*(beta + dx) + df/dx, and the nonzero df/dx has
    # degree below deg f, so it is not in fD.
    f, h, _ = TWIST_CASES[name]
    bad = h + WeylElement.d(0, f.n)
    with pytest.raises(NoTwistSolution):
        solve_twist(f, bad)
    assert end_membership(f, bad) is None


def test_end_element_verify_detects_mismatch():
    f = P("x*y")
    bad = EndElement(alpha=P("x dx"), beta=P("x dx"))
    with pytest.raises(ValueError):
        bad.verify(f)


def test_solve_twist_checks_a_wrong_quotient(monkeypatch):
    # a division that returned a wrong quotient and no remainder must not
    # get past the check of f*beta against alpha*f
    import dxext.hyperext as hyperext

    monkeypatch.setattr(hyperext, "divide_left", lambda f, terms: ({((0, 0), (0, 0)): 1}, {}))
    with pytest.raises(ValueError, match=r"^alpha\*f != f\*beta$") as caught:
        solve_twist(P("x*y"), P("x dx"))
    assert type(caught.value) is ValueError


def test_solve_twist_multiplies_alpha_by_f_once(monkeypatch):
    # one product to divide and check against, one for f*beta
    import dxext.weyl as weyl

    real, products = weyl.mul_terms, []

    def recording(a, b):
        products.append((a, b))
        return real(a, b)

    f, alpha, _ = TWIST_CASES["member-plus-f-times-g"]
    monkeypatch.setattr(weyl, "mul_terms", recording)
    el = solve_twist(f, alpha)
    assert products == [(alpha.terms, f.terms), (f.terms, el.beta.terms)]


def test_action_ext1_worked_example():
    f = P("x*y")
    el = solve_twist(f, P("x dx"))
    # [1 . beta] = [x dx + 1] reduces to the canonical representative.
    got = action_ext1(f, el, WeylElement.one(2))
    # x dx + 1 = -y dy + (dx dy * f - f * dx dy), so the canonical
    # representative is -y dy.
    assert got == parse("-y dy", 2)
    # The class only depends on the representative's class: shifting the
    # input by g*f + f*h leaves the output class unchanged.
    shifted = action_ext1(f, el, WeylElement.one(2) + P("dx") * f + f * P("dy"))
    assert shifted == got


def test_action_ext1_on_ext1_values():
    f = P("x*y")
    dy = P("dy")
    assert action_ext1_on_ext1(f, WeylElement.one(2), dy) == dy
    assert action_ext1_on_ext1(f, P("dx"), dy) == P("dx dy")
    assert action_ext1_on_ext1(f, P("x"), dy).is_zero
    # the value depends on d's representative, not only on its class:
    # x*y*dy = f*dy lies in fD, yet it gives y*dy where 0 gives 0
    assert action_ext1_on_ext1(f, P("dx"), P("x*y*dy")) == P("y*dy")
    assert action_ext1_on_ext1(f, P("dx"), WeylElement.zero(2)).is_zero


def test_action_ext0_requires_kernel_member():
    f = P("x*y")
    module = DeltaModule(2)
    el = solve_twist(f, P("x dx"))
    # delta itself is killed by .f, so it is a valid Ext^0 class.
    out = action_ext0(f, el, {(0, 0): Fraction(1)}, module)
    assert isinstance(out, dict)
    with pytest.raises(ValueError):
        action_ext0(f, el, {(1, 1): Fraction(1)}, module)


def test_module_route_matches_self_route_on_node():
    f = P("x*y")
    module = DXQuotientModule(f)
    ext0, ext1 = ext_module_dims(module, f, 4)
    self_table = ext1_self_dims(f, 4)
    assert [lvl.dim for lvl in ext1.levels] == [lvl.dim for lvl in self_table.levels]
    assert [lvl.dim for lvl in ext0.levels] == [lvl.dim for lvl in self_table.levels]


def test_module_route_exact_for_graded_models():
    f = P("x*y")
    ext0, ext1 = ext_module_dims(LineICModule(2), f, 5)
    for table in (ext0, ext1):
        for lvl in table.levels:
            assert lvl.status in (EXACT_GRADED, EXACT_ZERO)
    # Trivial local system on two lines: one new class per level.
    assert [lvl.dim for lvl in ext1.levels] == [1, 2, 3, 4, 5, 6]
    assert [lvl.dim for lvl in ext0.levels] == [1, 2, 3, 4, 5, 6]


def test_kummer_and_delta_ext1_vanish():
    # Right multiplication by x*y is onto for both models, so the
    # cokernel is zero at every level; the kernel is not (two labels per
    # positive level are killed by the lowering action).
    f = P("x*y")
    for module in (KummerICModule(Fraction(1, 2)), DeltaModule(2)):
        ext0, ext1 = ext_module_dims(module, f, 5)
        assert all(lvl.dim == 0 for lvl in ext1.levels), module.name
        assert [lvl.dim for lvl in ext0.levels] == [1, 3, 5, 7, 9, 11], module.name


CUSP = "y^2 - x^3"


@pytest.mark.parametrize("spec,text,max_deg,dims,status,note,value", [
    ("dx:x*y", "x*y", 4, [1, 3, 7, 13, 21], STABILIZED, "generator_width", 9),
    (f"dx:{CUSP}", CUSP, 3, [0] * 4, EXACT_ZERO, "generator_width", 23),
    ("delta:2", CUSP, 4, [0] * 5, EXACT_ZERO, "generator_width", 7),
    ("nlines-ic:2", CUSP, 4, [1, 3, 6, 9, 12], STABILIZED, "generator_width", 10),
    ("nlines-ic:2", "x*y", 6, [1, 2, 3, 4, 5, 6, 7], EXACT_GRADED, "generator_degree_bound", 8),
    ("free:2", "x*y", 5, [1, 5, 14, 30, 55, 91], EXACT_GRADED, "generator_degree_bound", 3),
    # the window path on numbered columns: Kummer has no x-shift
    ("kummer:2:1/2", CUSP, 4, [0] * 5, EXACT_ZERO, "generator_width", 9),
    ("free:2", "y^2 - x^3 + x", 5, [1, 5, 15, 34, 65, 111], EXACT_GRADED, "generator_degree_bound", 2),
    # the line model's chains, through a bound of 22
    ("nlines-ic:2", "x*y", 20, list(range(1, 22)), EXACT_GRADED, "generator_degree_bound", 22),
])
def test_module_route_notes_pinned(spec, text, max_deg, dims, status, note, value):
    # A bounded model reports its generator bound; the others report the
    # width their widening stopped at, starting from max_deg + deg f.
    module = parse_model(spec)
    _, ext1 = ext_module_dims(module, P(text), max_deg)
    assert ext1.dims() == dims
    assert {lvl.status for lvl in ext1.levels} == {status}
    assert ext1.notes == {note: value, "model": module.name}


@pytest.mark.parametrize("window", [0, -2])
@pytest.mark.parametrize("route", ["self", "dx:x*y", "delta:2"])
def test_window_below_one_rejected(route, window):
    # Checked before any branch: the bounded delta model never widens
    # by the window, and still rejects it.
    f = P("x*y")
    with pytest.raises(ValueError, match="stab_window"):
        if route == "self":
            ext1_self_dims(f, 3, window)
        else:
            ext_module_dims(parse_model(route), f, 3, window)


def test_module_index_roundtrip():
    idx = ModuleIndex(LineICModule(2))
    idx.extend_to(4)
    comb = {label: Fraction(i + 1) for i, label in enumerate(idx.labels_of_degree(2))}
    assert idx.combination(idx.vector(comb)) == comb
    assert idx.prefix_size(0) >= 1
    sizes = [idx.prefix_size(m) for m in range(5)]
    assert sizes == sorted(sizes)
