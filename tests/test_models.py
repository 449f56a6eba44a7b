"""Right-module models: axioms, action values, level bounds."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dxext import models
from dxext.hyperext import CokernelEngine, ModuleIndex
from dxext.linalg import SparseEchelon, primitive
from dxext.models import (
    DXQuotientModule,
    DeltaModule,
    FreeWeylModule,
    KummerICModule,
    LineICModule,
    act_combination,
    act_word,
    basis,
    check_module_axioms,
    generator,
    label_ints,
    parse_model,
)
from dxext.parser import parse
from dxext.weyl import WeylElement, divide_left, graded_key, mul_terms, pseudo_divide_left


def all_models():
    return [
        FreeWeylModule(1),
        FreeWeylModule(2),
        DeltaModule(2),
        LineICModule(2),
        LineICModule(3),
        KummerICModule(Fraction(1, 2)),
        DXQuotientModule(parse("x*y", 2)),
    ]


@pytest.mark.parametrize("module", all_models(), ids=lambda m: m.name)
def test_module_axioms(module):
    # Commuting generator pairs plus the Weyl relation
    # (m.d_i).x_i = (m.x_i).d_i + m on all basis labels through degree 5.
    report = check_module_axioms(module, 5)
    assert report.ok, report.violations[:3]


def label_models():
    return all_models() + [
        DXQuotientModule(parse("y^2 - x^3")),
        DXQuotientModule(parse("x + dx")),
        DXQuotientModule(parse("x*y*z")),
    ]


def x_shift(module, label):
    """The label whose column is label's plus the step of the model's
    x-shift."""
    columns = module.columns
    return columns.label(columns.column(label) + columns.weights[module.shift_x])


@pytest.mark.parametrize("module", label_models(), ids=lambda m: m.name)
def test_labels_by_degree(module):
    seen = set()
    concatenated = []
    for d in range(7):
        labels = module.labels(d)
        assert len(set(labels)) == len(labels)
        assert all(module.degree(label) == d for label in labels)
        assert seen.isdisjoint(labels)
        seen.update(labels)
        concatenated += labels
    assert basis(module, 6) == concatenated


@pytest.mark.parametrize(
    "text, n",
    [("y^2 - x^3", 2), ("x*y", 2), ("x + dx", 1), ("x*y*z", 3), ("x*dx + y", 2),
     ("x^2*y*dy + dx", 2), ("y*dx*dy", 2), ("3", 1)],
)
def test_dx_labels_are_the_standard_monomials_in_order(text, n):
    # labels(d) lists exactly the degree-d monomials that lm(f) does not
    # divide, in the lexicographic order of grading.monomials_of_degree
    from dxext.grading import monomials_of_degree

    module = DXQuotientModule(parse(text, n))
    lead_x, lead_d = max(module.f.terms, key=graded_key)
    for d in range(8):
        want = [
            (xexp, dexp) for xexp, dexp in monomials_of_degree(n, d)
            if not all(a >= b for a, b in zip(xexp + dexp, lead_x + lead_d))
        ]
        assert module.labels(d) == want


@pytest.mark.parametrize("module", label_models(), ids=lambda m: m.name)
def test_label_reads_flat_ints(module):
    # the act --element integers of every basis label read back as it
    for label in basis(module, 4):
        assert module.label(label_ints(label)) == label
        assert module.label(tuple(label_ints(label))) == label


@pytest.mark.parametrize("module", label_models(), ids=lambda m: m.name)
def test_label_rejects_ints_outside_the_basis(module):
    ints = label_ints(basis(module, 2)[-1])
    assert module.label(ints + [0]) is None
    assert module.label(ints[:-1]) is None
    # the last integer is an exponent in every model (dy's on Kummer)
    assert module.label(ints[:-1] + [-1]) is None


def test_label_rejects_non_standard_monomials():
    assert DXQuotientModule(parse("x*y")).label([1, 1, 0, 0]) is None
    assert DXQuotientModule(parse("y^2 - x^3")).label([3, 1, 0, 2]) is None
    assert DXQuotientModule(parse("x + dx")).label([1, 0]) is None
    assert DXQuotientModule(parse("x*y*z")).label([1, 1, 1, 0, 0, 0]) is None
    assert DXQuotientModule(parse("x*y")).label([-1, 0, 0, 0]) is None
    # Kummer's e_k runs over all of Z; only dy's exponent is bounded
    assert KummerICModule(Fraction(1, 2)).label([-3, 0]) == (-3, 0)
    assert KummerICModule(Fraction(1, 2)).label([0, -1]) is None


@pytest.mark.parametrize("module", label_models() + [DeltaModule(1)], ids=lambda m: m.name)
def test_negative_bound_lists_nothing(module):
    assert basis(module, 3)
    assert basis(module, -1) == basis(module, -2) == []
    assert module.labels(-1) == module.labels(-2) == []
    index = ModuleIndex(module)
    index.extend_to(-2)
    assert index._labels == [] and index._through == []
    assert index.labels_of_degree(0) == module.labels(0)
    index.extend_to(3)
    for d in (-1, -2):
        with pytest.raises(ValueError):
            index.labels_of_degree(d)
        with pytest.raises(ValueError):
            index.prefix_size(d)


@pytest.mark.parametrize("module", all_models(), ids=lambda m: m.name)
def test_action_stays_in_basis(module):
    labels = set(basis(module, 8))
    for label in basis(module, 4):
        for gen in [("x", i) for i in range(module.n)] + [("d", i) for i in range(module.n)]:
            for out, c in module.act(label, generator(*gen, module.n)).items():
                assert out in labels
                assert c != 0


CLOSED_FORM_MODELS = [
    "free:1", "free:2", "delta:1", "delta:2", "nlines-ic:2", "kummer:2:1/2", "kummer:3:-5/3",
    "dx:y^2 - x^3", "dx:x + dx",
]


def _letters_oracle(module, label, mono):
    """label . mono by the unit-monomial actions, one letter at a time,
    x letters first, with integral coefficients read back as ints."""
    n, cur = module.n, {label: 1}
    for kind, exps in zip("xd", mono):
        for i, e in enumerate(exps):
            for _ in range(e):
                cur = act_combination(module, cur, generator(kind, i, n))
    return {out: c.numerator if c.denominator == 1 else c for out, c in cur.items()}


@pytest.mark.parametrize("spec", CLOSED_FORM_MODELS)
def test_closed_form_action_matches_the_letters(spec):
    # every label through degree 5 against every monomial through degree 4:
    # the same combination as the generators acting one by one, with the
    # same coefficient types (int where integral, Fraction elsewhere)
    from dxext.grading import monomials_of_degree

    module = parse_model(spec)
    monos = [m for d in range(5) for m in monomials_of_degree(module.n, d)]
    for label in basis(module, 5):
        for mono in monos:
            got, want = module.act(label, mono), _letters_oracle(module, label, mono)
            assert got == want, (label, mono)
            assert [type(got[out]) for out in want] == [type(c) for c in want.values()], (label, mono)


def test_act_word_composes():
    # comb.(a*b) must equal (comb.a).b for the right action.
    module = LineICModule(2)
    a = parse("x dx + y", 2)
    b = parse("dy^2 + x", 2)
    comb = {label: Fraction(1) for label in basis(module, 2)}
    via_product = act_word(module, comb, a * b)
    via_steps = act_word(module, act_word(module, comb, a), b)
    assert via_product == via_steps


def test_free_module_matches_weyl_product():
    module = FreeWeylModule(2)
    e = parse("x dx^2 + y dy", 2)
    g = parse("x y + dx", 2)
    start = {m: c for m, c in e.terms.items()}
    got = act_word(module, start, g)
    want = (e * g).terms
    assert got == dict(want)


def test_delta_module_values():
    # x_i lowers the d-exponent with its multiplicity; x kills delta.
    m = DeltaModule(2)
    assert m.act((0, 0), generator("x", 0, 2)) == {}
    assert m.act((2, 1), generator("x", 0, 2)) == {(1, 1): Fraction(2)}
    assert m.act((2, 1), generator("d", 1, 2)) == {(2, 2): Fraction(1)}
    # Right action of x dx on the k-th derivative layer has eigenvalue k.
    e = parse("x dx", 2)
    assert act_word(m, {(3, 0): Fraction(1)}, e) == {(3, 0): Fraction(3)}
    assert act_word(m, {(0, 0): Fraction(1)}, e) == {}


def test_line_ic_module_values():
    # Labels (i, j): x^? monomials on the coordinate cross.  The label
    # set through degree 2 contains the constant and the dx/dy layers.
    m = LineICModule(2)
    basis2 = basis(m, 2)
    assert len(basis2) >= 3
    for label in basis2:
        for out in m.act(label, generator("x", 0, 2)):
            assert m.degree(out) <= m.degree(label) + 1


def test_kummer_lambda_integer_rejected():
    with pytest.raises(ValueError):
        KummerICModule(1)
    with pytest.raises(ValueError):
        KummerICModule(Fraction(4, 2))
    KummerICModule(Fraction(1, 3))


def test_mf_level_bound_is_sufficient():
    # The bound must be large enough that basis(bound)*f exhausts
    # M*f intersected with F_level; checked against two degrees more.
    from dxext.linalg import SparseEchelon

    f = parse("x*y", 2)
    level = 4
    for module in (FreeWeylModule(2), DeltaModule(2), LineICModule(2), KummerICModule(Fraction(1, 2))):
        bound = module.mf_level_bound(f, level)
        assert bound is not None
        ambient = {label: i for i, label in enumerate(basis(module, level))}

        def span_rank(source_bound, module=module, ambient=ambient):
            ech = SparseEchelon()
            for label in basis(module, max(source_bound, 0)):
                full = act_word(module, {label: Fraction(1)}, f)
                if any(k not in ambient for k in full):
                    continue
                vec = {ambient[k]: v for k, v in full.items()}
                if vec:
                    ech.add(vec)
            return ech.rank

        assert span_rank(bound) == span_rank(bound + 2), module.name


def test_dx_quotient_has_no_level_bound():
    f = parse("x*y", 2)
    assert DXQuotientModule(f).mf_level_bound(f, 4) is None


def test_dx_quotient_right_action_kills_ideal():
    f = parse("x*y", 2)
    module = DXQuotientModule(f)
    # Right multiplication by f annihilates the class of 1 in D/(Df+fD)
    # only after quotienting on the left too; here the model is D/fD,
    # so acting by f on the class of 1 gives zero.
    one = basis(module, 0)[0]
    assert act_word(module, {one: Fraction(1)}, f) == {}


# x^3 + y^4 (E6), x^3 + x*y^3 (E7, lm holds every x) and y^2 - x^5
# prune different subtrees of the label walk in DXQuotientModule.labels
DXQ_ORACLE_CASES = [
    "x*y", "y^2 - x^3", "3*x^2*y - y^2", "x + dx", "x*dy + y^2", "dx*dy - 2",
    "x^3 + y^4", "x^3 + x*y^3", "y^2 - x^5",
]


@pytest.mark.parametrize("text", DXQ_ORACLE_CASES)
def test_dx_quotient_matches_echelon_oracle(text):
    # fD meets F_5 in f*F_(5 - deg f), so an echelon of those products
    # with trailing pivots in graded monomial order has the standard
    # monomials as its non-pivot columns, and its fully reduced residue
    # is the division remainder.
    from dxext.grading import monomials_of_degree
    from dxext.linalg import SparseEchelon

    f = parse(text, 2)
    module = DXQuotientModule(f)
    top = 5
    monos = [m for d in range(top + 1) for m in monomials_of_degree(2, d)]
    column = {m: i for i, m in enumerate(monos)}
    ech = SparseEchelon()
    for m in monos:
        if module.degree(m) + f.degree() <= top:
            prod = f * WeylElement.monomial(2, *m)
            ech.add({column[k]: v for k, v in prod.terms.items()})
    assert basis(module, top) == [m for i, m in enumerate(monos) if i not in ech.rows]
    samples = [parse(t, 2) for t in ("x^2*y*dx^2", "x*y*dx*dy + y^3 - dx", "x^5 + dy^5 - 7")]
    samples += [WeylElement.monomial(2, *m, i + 1) for i, m in enumerate(monos[::7])]
    for elem in samples:
        vec = ech.reduce_fractions({column[k]: v for k, v in elem.terms.items()})
        assert module.reduce_element(elem) == {monos[i]: v for i, v in vec.items()}, str(elem)
    gens = [WeylElement.x(0, 2), WeylElement.x(1, 2), WeylElement.d(0, 2), WeylElement.d(1, 2)]
    for label in basis(module, top - 1):
        for gen, elem in zip([("x", 0), ("x", 1), ("d", 0), ("d", 1)], gens):
            prod = WeylElement.monomial(2, *label) * elem
            vec = ech.reduce_fractions({column[k]: v for k, v in prod.terms.items()})
            assert module.act(label, generator(*gen, 2)) == {monos[i]: v for i, v in vec.items()}


ROW_ORACLE_CASES = [
    "y^2 - x^3", "x*y", "2*x^3 + y^2", "3*x^2*y - 5*y^2", "x*y*z", "x + dx", "3*x - 2*dx",
]


def _labelled(module, row):
    """A row of module.row, on packed columns, as a combination of labels."""
    return {module.columns.label(c): v for c, v in row.items()}


def _row_multiplier(row, nf):
    """The t with row == t*nf, or None when row is no multiple of nf."""
    if set(row) != set(nf):
        return None
    if not nf:
        return Fraction(1)
    mono = next(iter(nf))
    t = Fraction(row[mono]) / nf[mono]
    return t if all(row[m] == t * c for m, c in nf.items()) else None


@pytest.mark.parametrize("text", ROW_ORACLE_CASES)
def test_row_is_integer_multiple_of_normal_form(text):
    # The fraction-free kernel against left division over Q: for each
    # standard label g, row(g, f) = s*NF(g*f) with s a positive integer,
    # so it is nonzero exactly when NF(g*f) is.  An equal f that is a
    # different object gives the same rows.
    f = parse(text)
    module = DXQuotientModule(f)
    copy = parse(text)
    other = f + WeylElement.scalar(f.n, Fraction(1, 2))
    for label in basis(module, 4):
        g = WeylElement.monomial(f.n, *label)
        nf = module.reduce_element(g * f)
        row = module.row(label, f)
        assert all(isinstance(c, int) for c in row.values())
        t = _row_multiplier(_labelled(module, row), nf)
        assert t is not None and t > 0 and t.denominator == 1, (label, row, nf)
        assert module.row(label, copy) == row
        t = _row_multiplier(_labelled(module, module.row(label, other)), module.reduce_element(g * other))
        assert t is not None and t > 0, label


def test_row_recognises_an_equal_f(monkeypatch):
    # dx:<f> with --f <f> parses f twice; the copy must reuse the stored
    # primitive form instead of recomputing it for every row.
    module = DXQuotientModule(parse("2*x^3 + y^2"))
    expected = [module.row(label, module.f) for label in basis(module, 3)]

    def fail(vec):
        raise AssertionError("primitive form of f recomputed")

    monkeypatch.setattr(models, "primitive", fail)
    copy = parse("2*x^3 + y^2")
    assert [module.row(label, copy) for label in basis(module, 3)] == expected


ENGINE_ROW_CASES = [
    ("y^2 - x^3", "y^2 - x^3"),
    ("x*y", "x*y"),
    ("x*y*(x - y)", "x*y*(x - y)"),
    ("3*x*y", "3*x*y"),
    ("2*x*y + 1/2", "2*x*y + 1/2"),
    ("x*y*z", "x*y*z"),
    # divisors with a d part: every row is a full product
    ("x + dx", "x^2"),
    ("x*y + dx", "x*y"),
    ("x^2 + dy", "x*y"),  # lm misses y, but f does not commute with y
    # lm misses an x_i: the engine keeps its echelon rows as x-chains
    ("x^3 + y^4", "x^3 + y^4"),
    ("y^2 - x^5", "y^2 - x^5"),
]


def _full_product_row(module, f):
    """The row oracle of D/fD: the remainder of the full product label*f,
    independent of the row kernel's derivative path."""
    divisor, ints = primitive(module.f.terms)[1], primitive(f.terms)[1]
    return lambda label: pseudo_divide_left(divisor, mul_terms({label: 1}, ints))[2]


def _assert_engine_matches_oracle(module, f, row, max_width):
    # Span oracle: at every width through max_width the engine's echelon
    # spans what a fresh echelon of row(label) over every label through
    # that width spans, read as rank, pivot set and level dims.  Only
    # the labels outside the image of the model's x-shift (adding the
    # step to a column) get rows of their own, in label order.
    engine = CokernelEngine(module, f)
    kernel, requested = engine.row, []
    engine.row = lambda label: requested.append(label) or kernel(label)
    oracle = SparseEchelon()
    for width in range(max_width + 1):
        requested.clear()
        engine.widen_to(width)
        labels = engine.index.labels_of_degree(width)
        image = {x_shift(module, lab) for lab in module.labels(width - 1)} if hasattr(module, "shift_x") else set()
        assert requested == [lab for lab in labels if lab not in image]
        for label in labels:
            oracle.add(engine.index.vector(row(label)))
        assert engine.echelon.rank == oracle.rank
        assert set(engine.echelon.rows) == set(oracle.rows)
        degrees = [engine.index.degree_of(p) for p in oracle.rows]
        dims = [engine.index.prefix_size(m) - sum(d <= m for d in degrees) for m in range(width + 1)]
        assert engine.level_dims(width) == dims


@pytest.mark.parametrize("divisor,text", ENGINE_ROW_CASES)
def test_engine_rows_match_full_product(divisor, text):
    f = parse(text)
    module = DXQuotientModule(parse(divisor, f.n))
    _assert_engine_matches_oracle(module, f, _full_product_row(module, f), 5)


@st.composite
def _polynomial_divisors(draw):
    # an integer polynomial in 2 or 3 variables whose primitive form has
    # a leading coefficient that is not a unit
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    zero = (0,) * n
    drawn = draw(st.dictionaries(exps, st.integers(-6, 6).filter(bool), min_size=2, max_size=5))
    terms = {(xexp, zero): c for xexp, c in drawn.items()}
    lead = max(terms, key=graded_key)
    terms[lead] = draw(st.sampled_from([2, -2, 3, -3, 4, -4, 6]))
    assume(abs(primitive(terms)[1][lead]) > 1)
    return WeylElement(n, terms)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(_polynomial_divisors())
@example(parse("2*y^2 - 3*x^3 + x"))
def test_divisor_rows_are_positive_multiples_of_the_full_product(f):
    # the derivative rows against the remainder of the full product,
    # label by label through degree 6: the same row up to a positive
    # factor, so no sign flips and no missing or extra terms
    module = DXQuotientModule(f)
    oracle = _full_product_row(module, f)
    for label in basis(module, 6):
        row = module.row(label, f)
        assert all(type(c) is int for c in row.values())
        t = _row_multiplier(_labelled(module, row), oracle(label))
        assert t is not None and t > 0, (label, row)


ACT_MODELS = [
    FreeWeylModule(1),
    FreeWeylModule(2),
    LineICModule(2),
    LineICModule(3),
    KummerICModule(Fraction(1, 2)),
    KummerICModule(Fraction(-5, 3), 3),
]


@pytest.mark.parametrize("text", ["x*y", "y^2 - x^3", "x*y + x^2 + 1"])
@pytest.mark.parametrize("module", [*ACT_MODELS, DeltaModule(2)], ids=lambda m: m.name)
def test_act_word_engine_rows_match_full_product(module, text):
    # the models without a row kernel: the free and line models widen
    # through the same x-chains, with act_word rows for the labels
    # outside the shift's image; the Kummer and delta models have no
    # x-shift, so every label gets an act_word row
    f = parse(text if module.n == 2 else "x^2 + 1", module.n)
    _assert_engine_matches_oracle(module, f, lambda label: act_word(module, {label: 1}, f), 6)


CUSP = parse("y^2 - x^3")


def _oracle_row(module, f):
    if isinstance(module, DXQuotientModule):
        return _full_product_row(module, f)
    return lambda label: act_word(module, {label: 1}, f)


@pytest.mark.parametrize("module", [
    DXQuotientModule(CUSP), FreeWeylModule(2), LineICModule(3), KummerICModule(Fraction(1, 2)), DeltaModule(2),
], ids=lambda m: m.name)
def test_materialised_rows_lie_in_the_span(module):
    # On packed columns shifted rows are members of chains, never built
    # until read.  At every width through 6, a fresh engine (so chains
    # grow through every width before anything builds them) must
    # materialise rows that lie in the span of row(label) over every
    # label through that width, with the same rank: the two spans are
    # equal.  The Kummer and delta models, on numbered columns, keep no
    # chains.
    row = _oracle_row(module, CUSP)
    oracle, index = SparseEchelon(), ModuleIndex(module)
    members = 0
    for width in range(7):
        for label in index.labels_of_degree(width):
            oracle.add(index.vector(row(label)))
        engine = CokernelEngine(module, CUSP)
        engine.widen_to(width)
        members += engine.echelon.rank - len(engine.echelon._rows)
        rows = engine.echelon.rows
        assert len(rows) == engine.echelon.rank == oracle.rank
        for vec in rows.values():
            assert oracle.contains(index.vector(engine.index.combination(vec)))
    assert (members == 0) == isinstance(module, (KummerICModule, DeltaModule))


@pytest.mark.parametrize("module", [
    FreeWeylModule(2), DeltaModule(2), LineICModule(3), KummerICModule(Fraction(1, 2)),
], ids=lambda m: m.name)
def test_actions_are_integers_where_integral(module):
    # act gives int coefficients wherever they are integral (only
    # Kummer's -(lam + k) is not), so integer rows stay integers; a
    # Fraction combination still acts to Fractions
    gens = [("x", i) for i in range(module.n)] + [("d", i) for i in range(module.n)]
    for label in basis(module, 4):
        for gen in gens:
            for c in module.act(label, generator(*gen, module.n)).values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (label, gen)
        row = act_word(module, {label: 1}, CUSP)
        assert all(type(c) is int for c in row.values())
        assert act_word(module, {label: Fraction(1)}, CUSP) == row
        assert all(type(c) is Fraction for c in act_word(module, {label: Fraction(1)}, CUSP).values())


def test_shift_only_for_polynomial_divisors():
    # the x-chains need an x_i that lm(f) lacks and commutes with f
    cusp, e6 = DXQuotientModule(parse("y^2 - x^3")), DXQuotientModule(parse("x^3 + y^4"))
    assert cusp.shift_x == 1 and x_shift(cusp, ((1, 0), (0, 2))) == ((1, 1), (0, 2))
    assert e6.shift_x == 0 and x_shift(e6, ((0, 1), (1, 0))) == ((1, 1), (1, 0))
    for text in ("x*y", "x*y*(x - y)", "x*y*z", "x*y + dx", "x + dx", "x^2 + dy"):
        assert not hasattr(DXQuotientModule(parse(text)), "shift_x"), text
    shifting = [m.name for m in label_models() if hasattr(m, "shift_x")]
    assert shifting == [
        "free:1", "free:2", "nlines-ic:2", "nlines-ic:3", f"dx:{parse('y^2 - x^3')}",
    ]
    assert [m.name for m in ACT_MODELS if hasattr(m, "shift_x")] == ["free:1", "free:2", "nlines-ic:2", "nlines-ic:3"]
    # x lowers the degree on the delta module, and on Kummer for k < 0:
    # no x-shift, and no packed columns
    for module in (DeltaModule(1), DeltaModule(2), KummerICModule(Fraction(1, 2)), KummerICModule(Fraction(-5, 3), 3)):
        assert not hasattr(module, "shift_x") and not hasattr(module, "columns"), module.name


SHIFT_MODELS = [
    DXQuotientModule(parse(text)) for text in ("y^2 - x^3", "x^3 + y^4", "y^2 - x^5", "x^2*y + z")
]
X_SHIFT_MODELS = list(
    {m.name: m for m in label_models() + ACT_MODELS + SHIFT_MODELS if hasattr(m, "shift_x")}.values()
)


@pytest.mark.parametrize("module", X_SHIFT_MODELS, ids=lambda m: m.name)
def test_shift_contract(module):
    # adding the step to a label's column gives a label of the next
    # degree: one-to-one on labels (a shifted row mixes degrees, so
    # across them too), and commuting with the action of every x_j, so
    # with right multiplication by every polynomial
    seen = set()
    for d in range(7):
        labels = module.labels(d)
        image = [x_shift(module, label) for label in labels]
        assert seen.isdisjoint(image) and len(set(image)) == len(image)
        seen.update(image)
        for label, shifted in zip(labels, image):
            assert module.degree(shifted) == d + 1
            assert shifted in module.labels(d + 1)
            for j in range(module.n):
                x_j = generator("x", j, module.n)
                moved = {x_shift(module, lab): c for lab, c in module.act(label, x_j).items()}
                assert module.act(shifted, x_j) == moved


@pytest.mark.parametrize("module", X_SHIFT_MODELS, ids=lambda m: m.name)
def test_shift_maps_labels_into_next_degree(module):
    # one-to-one from labels(d) into labels(d + 1), onto the labels with
    # a positive exponent of x_i (i on the line model's (i, j)); the
    # others are unshifted_labels(d + 1), in label order
    i = module.shift_x
    for d in range(6):
        image = [x_shift(module, label) for label in module.labels(d)]
        assert len(set(image)) == len(image)
        assert set(image) == {lab for lab in module.labels(d + 1) if label_ints(lab)[i]}
        assert module.unshifted_labels(d + 1) == [lab for lab in module.labels(d + 1) if lab not in image]


def _weyl_elements(n, max_terms):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)
    return st.dictionaries(st.tuples(exps, exps), coeffs, min_size=1, max_size=max_terms)


@st.composite
def _division_problems(draw):
    n = draw(st.integers(1, 2))
    return n, draw(_weyl_elements(n, 3)), draw(_weyl_elements(n, 8))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_division_problems())
def test_divide_left_identity(problem):
    n, f, terms = problem
    q, r = divide_left(f, terms)
    F, Q, R = WeylElement(n, f), WeylElement(n, q), WeylElement(n, r)
    assert F * Q + R == WeylElement(n, terms)
    lead_x, lead_d = max(f, key=graded_key)
    for xexp, dexp in r:
        divisible = all(a >= b for a, b in zip(xexp + dexp, lead_x + lead_d))
        assert not divisible, (xexp, dexp)


@st.composite
def _polynomial_division_problems(draw):
    # an integer polynomial divisor whose leading coefficient is not a
    # unit, and integer terms with x and d parts
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.integers(-6, 6).filter(bool)
    zero = (0,) * n
    f = {(xexp, zero): c for xexp, c in draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)).items()}
    f[max(f, key=graded_key)] = draw(st.sampled_from([2, -2, 3, -3, 4, 6]))
    terms = draw(st.dictionaries(st.tuples(exps, exps), coeffs, min_size=1, max_size=8))
    return n, f, terms


CUSP_LIKE = {((3, 0), (0, 0)): -3, ((0, 2), (0, 0)): 2, ((1, 0), (0, 0)): 1}  # 2y^2 - 3x^3 + x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_polynomial_division_problems())
@example((2, CUSP_LIKE, {((4, 1), (0, 1)): 1, ((3, 0), (2, 0)): 5, ((0, 3), (0, 0)): -2}))
def test_pseudo_divide_left_by_polynomial(problem):
    # s*terms == f*q + r in the Weyl algebra, s > 0, and lm(f) divides no
    # monomial of r, on integer dicts throughout
    n, f, terms = problem
    s, q, r = pseudo_divide_left(f, terms)
    assert s > 0
    assert all(type(c) is int and c for c in [*q.values(), *r.values()])
    F, Q, R = WeylElement(n, f), WeylElement(n, q), WeylElement(n, r)
    assert WeylElement(n, terms) * s == F * Q + R
    lead_x, _ = max(f, key=graded_key)
    for xexp, _ in r:
        assert not all(a >= b for a, b in zip(xexp, lead_x)), xexp


def test_pseudo_divide_left_scales_when_lc_does_not_divide():
    # lc(f) = -3 does not divide the leading coefficient 1, so everything
    # is scaled by 3 once; the second quotient term needs no scaling
    terms = {((4, 1), (0, 1)): 1, ((3, 0), (0, 0)): 6}
    s, q, r = pseudo_divide_left(CUSP_LIKE, terms)
    assert s == 3
    assert WeylElement(2, terms) * 3 == WeylElement(2, CUSP_LIKE) * WeylElement(2, q) + WeylElement(2, r)
    assert not any(xexp[0] >= 3 for xexp, _ in r)


def test_act_combination_linear():
    module = DeltaModule(2)
    comb = {(1, 0): Fraction(2), (0, 1): Fraction(-1)}
    out = act_combination(module, comb, generator("d", 0, 2))
    assert out == {(2, 0): Fraction(2), (1, 1): Fraction(-1)}


def test_axiom_report_catches_broken_module():
    class Broken:
        n = 1
        name = "broken"

        def labels(self, d):
            return [d]

        def degree(self, label):
            return label

        def act(self, label, mono):
            (a,), (b,) = mono
            # Wrong Weyl relation on purpose: x acts as zero.
            return {} if a else {label + b: Fraction(1)}

    report = check_module_axioms(Broken(), 3)
    assert not report.ok
    assert report.violations
