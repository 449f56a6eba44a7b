"""Ext groups of the canonical right module of a hypersurface.

For a nonzero polynomial f the right module D_X = D/fD has the free
resolution 0 -> D -> D -> D_X -> 0 whose first map is left
multiplication by f.  Hom(-, M) turns that map into right
multiplication by f on M, so

  Ext^0(D_X, M) = kernel of .f on M      Ext^1(D_X, M) = M / Mf

and everything above degree one vanishes.  Every table comes from one
engine: an echelon of the rows v*f for the basis labels v of M, added
degree by degree, in M's own label coordinates.

With M = D_X itself the cokernel is D/(Df + fD).  D/fD has the
standard monomials (those lm(f) does not divide) as a basis and left
division by f as its normal form, so the self route is the module
route on D/fD, with rows NF(g*f) for standard g.  D is filtered but
not graded (dx = xd + 1 mixes Bernstein degrees), so the part of
Df + fD inside a filtration level F_m admits no a-priori generator
degree bound.  Already for f = x the element 1 = d*x - x*d lies in F_0
yet needs degree-1 generators.  The engine therefore widens the label
degree until the per-level dimensions are constant over a window and
reports them as stabilized upper bounds; a computed zero, however, is
exact, because the computed value always dominates the true dimension.
A table's generator_width is the largest degree of a row product g*f
in the span: the label degree for the module route, and the label
degree plus deg f for the self route.

Rows on D/fD come from DXQuotientModule.row, fraction-free division on
integers: each row is an integer vector that is a nonzero multiple of
NF(g*f), not NF itself.  The echelon stores every row as its primitive
integer form with a positive pivot, which is the same for any nonzero
multiple, so ranks, pivots, stored rows and every reduced
representative are those of the NF rows.  When the divisor of D/fD is
a polynomial, f*x^a*d^b lies in fD, so for g = x^a*d^b

  NF(g*f) = sum_{0 < k <= b} C(b,k) * NF(x^a * d^k f) * d^(b-k),

a sum over f's partial derivatives d^k f: a row needs no Weyl product
and no other row, and the module keeps each NF(x^a * d^k f).  When the
divisor has a d part, every label takes the full product g*f.

When the model has an x-shift s (shift_x), the engine also shifts its
echelon rows.  s is a one-to-one linear map of the module that adds
one constant, the step, to every packed column, so it raises the
degree by one, and it commutes with right multiplication by f, so
s(v*f) = s(v)*f: s maps rows to rows, and s(S_(w-1)) lies in S_w.
With S_w the span after label degree w, and L_w the degree-w labels
that are not s of a degree w-1 label,

  S_w = S_(w-1) + s(S_(w-1)) + span{rows of the labels in L_w},

and since s(S_(w-2)) lies in S_(w-1), s(S_(w-1)) is spanned modulo
S_(w-1) by s(r) for the echelon rows r stored during degree w-1.  Each
s(r) is r with the step added to every column, a primitive integer row
with r's pivot coefficient that pivots at r's pivot plus the step, and
where no row pivots there yet s(r) is exactly the row the echelon would
store for it.  So the echelon keeps r as the base of a chain r, s(r),
s(s(r)), ... that grows by one member per degree and is never built: a
reduction subtracts r at the member's offset.  A chain stops where its
next member would pivot at a stored row, the next base up the same
line of columns; that member is reduced as it is added, after the
other chains have grown, and a row stored for it starts a new chain.
That order could store other rows than reducing every s(r) in turn
(the tests pin the cusp's rows, which are the same), but the spans
agree at every whole width, so level dims, ranks and reduced
representatives do too; only the vectors fed to the echelon change.
When the divisor of D/fD is a polynomial whose lm misses a variable
x_i, s is left multiplication by x_i: it maps standard monomials to
standard monomials, so x_i*NF(h) = NF(x_i*h) with no division at all,
and L_w holds the degree-w labels without x_i, which the model lists
directly.  On the free module s is left multiplication by x (L_w: the
monomials without x), and on the line model the right action of x,
(i, j) -> (i+1, j) (L_w: the one label (0, w)).  The Kummer and delta
models have no x-shift, and every label gets a row.

Labels that pack as Weyl monomials (D/fD, the free module, and the line
model's (i, j) as x^i d^j) need no label table: MonomialIndex packs
each label's exponents into one int column, the degree in the top
bits, so columns keep the label order and a pivot's degree is a shift.
D/fD's row kernel builds its rows on these columns.  The Kummer and
delta models keep ModuleIndex's numbered columns.

Rows without a row kernel come from act_word on the primitive integer
form of f: one closed-form model action per term of f on the label
(models.act(label, mono)), with int coefficients wherever they are
integral, so those rows are integer multiples of v*f and need
Fraction arithmetic only where the model's own coefficients do
(Kummer's -(lam + k)).

For one-sided questions exactness is free: v*f is nonzero of degree
deg v + deg f whenever v is nonzero (degree additivity in a domain),
so kernels of .f per level are exact for every module, and modules
whose mf_level_bound is not None get exact cokernel levels too.

The End(D_X) layer: endomorphisms of D_X are classes of alpha with
alpha*f = f*beta for a (unique) twist beta.  On Ext^0 an endomorphism
acts by right multiplication by alpha, and on Ext^1 by right
multiplication by beta.  action_ext1_on_ext1 multiplies a canonical
representative of one self-Ext^1 class by a representative d of
another; its result depends on d, not only on d's class: d and d + f*b
can give different results (see its docstring).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .grading import MAX_EXPONENT, require_variables
from .linalg import SparseEchelon, primitive
from .models import DXQuotientModule, act_word
from .rewrite import node_system
from .tables import EXACT_GRADED, EXACT_ZERO, STABILIZED, TruncationLevel, TruncationTable
from .weyl import Filtration, WeylElement, divide_left

__all__ = [
    "CokernelEngine",
    "ext1_self_dims",
    "ModuleIndex",
    "MonomialIndex",
    "ext_module_dims",
    "EndElement",
    "NoTwistSolution",
    "solve_twist",
    "end_membership",
    "action_ext0",
    "action_ext1",
    "action_ext1_on_ext1",
]

NODE_POLY_TERMS = {((1, 1), (0, 0)): 1}
DEFAULT_WINDOW = 3


def _require_poly(f):
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if not f.is_polynomial:
        raise ValueError("f must be a polynomial (no differential part)")


def _require_degree(d):
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")


def _require_packable(d):
    # the largest degree a packed column holds, and so every index's limit
    _require_degree(d)
    if d > MAX_EXPONENT:
        raise ValueError(f"degree {d} above {MAX_EXPONENT}, the largest the engine indexes")


class ModuleIndex:
    """Stable degree-major numbering of a module's basis labels, for the
    models without packed columns (the Kummer and delta models; the
    others get MonomialIndex).

    extend_to(d) lists module.labels(e) once for each degree e it has
    not reached yet and numbers those labels after the ones it holds, so
    a label's position never changes.  _through[e] is the label count
    through degree e: the degree-m prefix has _through[m] labels, and
    the labels of degree e are _labels[_through[e - 1]:_through[e]].
    A degree above MAX_EXPONENT is refused as on packed columns, so
    every model has the same largest level.  There is no x-shift (step),
    so every label gets a row of its own (new_labels).
    """

    step = None

    def __init__(self, module):
        self.module = module
        self._labels = []
        self._pos = {}
        self._through = []  # label count through each degree

    def extend_to(self, degree):
        labels = self._labels
        for d in range(len(self._through), degree + 1):
            new = self.module.labels(d)
            self._pos.update(zip(new, range(len(labels), len(labels) + len(new))))
            labels += new
            self._through.append(len(labels))

    def prefix_size(self, m):
        _require_packable(m)
        self.extend_to(m)
        return self._through[m]

    def labels_of_degree(self, d):
        _require_packable(d)
        self.extend_to(d)
        return self._labels[self._through[d - 1] if d else 0 : self._through[d]]

    def new_labels(self, d):
        """The labels of degree d that get rows of their own: all of them."""
        return self.labels_of_degree(d)

    def vector(self, comb):
        pos = self._pos
        try:
            return {pos[lab]: c for lab, c in comb.items() if c}
        except KeyError:
            self.extend_to(max(self.module.degree(lab) for lab, c in comb.items() if c))
            return {pos[lab]: c for lab, c in comb.items() if c}

    def combination(self, vec):
        return {self._labels[i]: c for i, c in vec.items()}

    def degree_of(self, column):
        """The label degree of a numbered column."""
        return bisect_right(self._through, column)


class MonomialIndex:
    """Packed columns for a model whose labels pack as Weyl monomials.

    A label's column is its exponents packed into one int by the
    model's grading.MonomialColumns, in the order in which ModuleIndex
    would number the labels, so every row still pivots on its largest
    column.  The index stores no label: vector and combination pack and
    unpack, degree_of is a shift, and prefix sizes are counted only
    through the degrees asked for.  A degree whose labels do not fit the
    columns raises ValueError.  The x-shift (shift_x) adds step =
    columns.weights[i] to every column and raises its degree by one, so
    it keeps the order of all columns: every shifted row pivots at its
    source's pivot plus step, and the engine's echelon keeps the shifts
    as chains; new_labels lists only the labels outside its image.
    step is None for a module without that shift.
    """

    def __init__(self, module):
        self.module = module
        self.columns = module.columns
        self._through = []  # label count through each degree
        # column >> degree_bits, from C when mapped over pivots
        self.degree_of = self.columns.degree_bits.__rrshift__
        x = getattr(module, "shift_x", None)
        self.step = None if x is None else self.columns.weights[x]
        self._new_labels = module.labels if x is None else module.unshifted_labels

    def prefix_size(self, m):
        _require_packable(m)
        through, labels = self._through, self.module.labels
        while len(through) <= m:
            through.append((through[-1] if through else 0) + len(labels(len(through))))
        return through[m]

    def labels_of_degree(self, d):
        _require_packable(d)
        return self.module.labels(d)

    def new_labels(self, d):
        """The labels of degree d that get rows of their own: those outside
        the image of the x-shift, or all of them without one."""
        _require_packable(d)
        return self._new_labels(d)

    def vector(self, comb):
        column = self.columns.column
        return {column(lab): c for lab, c in comb.items() if c}

    def combination(self, vec):
        label = self.columns.label
        return {label(c): v for c, v in vec.items()}


class CokernelEngine:
    """Incremental echelon of the rows row(v) = v*f of M/Mf.

    Rows come from the model's row kernel when it has one, else from
    act_word on the primitive integer form of f.  They are added for
    whole label degrees (width = largest label degree included).  Every
    row pivots on its largest column, and the index's columns increase
    with the label degree (MonomialIndex packs them for monomial labels,
    ModuleIndex numbers the others), so the dimension of the span inside
    F_m is the number of pivots of label degree <= m; counts[d] counts
    those of degree d, from every pivot add returns and every member of
    a chain, at every widening stage, from one shared elimination.

    When the model has an x-shift (D/fD of a polynomial whose lm misses
    an x_i, the free module and the line model), which adds the index's
    step to every column, the echelon keeps every stored row as the base
    of a chain (linalg.SparseEchelon).  A degree w first extends the
    chains: each grows by one member that nothing builds, the members
    that meet a stored row are reduced and stored, and the members are
    counted per degree.  Then it adds the rows of the index's new_labels,
    the degree-w labels outside the shift's image, whose rows the chains
    do not span (see the module docstring).  Without a step, extend adds
    nothing and every label gets a row.
    """

    def __init__(self, module, f):
        _require_poly(f)
        if module.n != f.n:
            raise ValueError("variable count mismatch between module and f")
        require_variables(f.n)
        self.index = MonomialIndex(module) if hasattr(module, "columns") else ModuleIndex(module)
        self.f = f
        row = getattr(module, "row", None)
        if row is None:
            ints, vector = WeylElement(f.n, primitive(f.terms)[1]), self.index.vector
            self.row = lambda lab: vector(act_word(module, {lab: 1}, ints))
        else:
            self.row = lambda lab: row(lab, f)
        self.echelon = SparseEchelon(self.index.step, self.index.degree_of)
        self.counts = Counter()  # {label degree: number of pivot columns of that degree}
        self.width = -1

    def widen_to(self, width):
        echelon, index = self.echelon, self.index
        while self.width < width:
            self.width += 1
            members, pivots = echelon.extend()
            self.counts.update(members)
            for lab in index.new_labels(self.width):
                row = echelon.add(self.row(lab))
                if row is not None:
                    pivots.append(max(row))
            self.counts.update(map(index.degree_of, pivots))

    def level_dims(self, max_deg):
        below = accumulate(self.counts[m] for m in range(max_deg + 1))
        return [self.index.prefix_size(m) - b for m, b in enumerate(below)]

    def ext1_levels(self, max_deg, start, window):
        """Ext^1 levels through max_deg, and the generator bound used.

        When the model has a generator bound (mf_level_bound), rows run
        through it and every level is exact-graded.  Otherwise the bound
        is None and the width grows from start until the level dims are
        zero or constant over window consecutive widenings; zero levels
        are then exact, the others stabilized upper bounds.
        """
        if window < 1:
            raise ValueError("stab_window must be >= 1")
        self.index.prefix_size(max_deg)  # a level the index cannot hold fails before any row
        bound = self.index.module.mf_level_bound(self.f, max_deg)
        if bound is not None:
            self.widen_to(bound)
            dims = self.level_dims(max_deg)
            return [TruncationLevel(m, d, EXACT_GRADED) for m, d in enumerate(dims)], bound
        self.widen_to(start)
        dims = self.level_dims(max_deg)
        stable = 0
        while any(dims) and stable < window:
            self.widen_to(self.width + 1)
            new_dims = self.level_dims(max_deg)
            stable = stable + 1 if new_dims == dims else 0
            dims = new_dims
        levels = [
            TruncationLevel(m, d, EXACT_ZERO if d == 0 else STABILIZED)
            for m, d in enumerate(dims)
        ]
        return levels, None

    def reduce(self, comb):
        """Representative of a combination modulo the span built so far."""
        vec = self.echelon.reduce_fractions(self.index.vector(comb))
        return self.index.combination(vec)


def ext1_self_dims(f, max_deg, stab_window=DEFAULT_WINDOW):
    """Per-level dimensions of D/(Df + fD) through Bernstein level max_deg.

    This is Ext^1 of D_X against D/fD: the level-m entry is the number
    of standard monomials of degree <= m modulo the span of NF(g*f) for
    standard g of degree <= N, with N widening from max_deg until the
    whole vector is constant over stab_window consecutive increments.
    The span is the image of Df + fD, cut off at product degree
    N + deg f, which the table reports as generator_width.  Zero levels
    carry an exact certificate (the computed value is an upper bound
    for the true dimension); nonzero levels are stabilized upper bounds.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    engine = CokernelEngine(DXQuotientModule(f), f)
    levels, _ = engine.ext1_levels(max_deg, max_deg, stab_window)
    table = TruncationTable(str(f), "ext1-self", levels, window=stab_window)
    table.notes["generator_width"] = engine.width + f.degree()
    return table


def ext_module_dims(module, f, max_deg, stab_window=DEFAULT_WINDOW):
    """Levels of Ext^0 and Ext^1 of D_X against the module, as tables.

    Ext^0 levels are exact for every model: the kernel of .f inside the
    span of basis labels of degree <= m only involves rows v*f with
    deg v <= m.  Ext^1 levels come from CokernelEngine.ext1_levels:
    exact when the model supplies a generator bound, and otherwise
    widened from label degree max_deg + deg f.
    """
    engine = CokernelEngine(module, f)
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    engine.index.prefix_size(max_deg)  # a level the index cannot hold fails before any row
    ext0_levels = []
    for m in range(max_deg + 1):
        engine.widen_to(m)
        dim = engine.index.prefix_size(m) - engine.echelon.rank
        ext0_levels.append(TruncationLevel(m, dim, EXACT_GRADED))
    ext0 = TruncationTable(str(f), "ext0-module", ext0_levels)
    ext0.notes["model"] = module.name

    levels1, bound = engine.ext1_levels(max_deg, max_deg + f.degree(), stab_window)
    if bound is None:
        ext1 = TruncationTable(str(f), "ext1-module", levels1, window=stab_window)
        ext1.notes["generator_width"] = engine.width
    else:
        ext1 = TruncationTable(str(f), "ext1-module", levels1)
        ext1.notes["generator_degree_bound"] = max(bound, 0)
    ext1.notes["model"] = module.name
    return ext0, ext1


class NoTwistSolution(ValueError):
    """alpha*f is not a left multiple of f, so alpha is not in End(D_X)."""


@dataclass(frozen=True)
class EndElement:
    """A pair (alpha, beta) with alpha*f = f*beta."""

    alpha: WeylElement
    beta: WeylElement

    def verify(self, f):
        return _check_twist(self, f, self.alpha * f)


def _check_twist(end, f, product):
    """EndElement.verify against product, which must be end.alpha*f."""
    if product != f * end.beta:
        raise ValueError("alpha*f != f*beta")
    sa = end.alpha.principal_symbol(Filtration.ORDER)
    sb = end.beta.principal_symbol(Filtration.ORDER)
    if sa != sb:
        raise ValueError("twist changed the principal symbol")
    return True


def solve_twist(f, alpha):
    """The unique beta with f*beta = alpha*f, as an EndElement.

    beta is the quotient of the left division of alpha*f by f.  {f} is
    a Groebner basis of its principal ideal, so a nonzero remainder
    proves that alpha*f is not in fD, i.e. alpha's class is not an
    endomorphism.  The pair is then checked as EndElement.verify does,
    against the same product alpha*f: f*beta must equal it, whatever
    the division returned, and alpha and beta must share their
    principal symbol.
    """
    _require_poly(f)
    if alpha.n != f.n:
        raise ValueError("variable count mismatch")
    product = alpha * f
    beta, rest = divide_left(f.terms, product.terms)
    if rest:
        raise NoTwistSolution(f"{alpha} * {f} is not a left multiple of {f}")
    end = EndElement(alpha, WeylElement(f.n, beta))
    _check_twist(end, f, product)
    return end


def end_membership(f, h):
    """The solved twist pair when h*f lies in fD, else None.

    A non-None result witnesses that h represents an endomorphism of
    the canonical module; the result is truthy exactly on membership.
    """
    try:
        return solve_twist(f, h)
    except NoTwistSolution:
        return None


def _class_reducer(module, f, top, start):
    """Reducer of module combinations of degree <= top modulo M*f.

    The engine widens as ext1_levels does for the levels through top,
    from start; the representatives are canonical whenever that
    widening has converged, in particular when every level is exact.
    """
    engine = CokernelEngine(module, f)
    engine.ext1_levels(top, start, DEFAULT_WINDOW)
    return engine.reduce


def _self_reducer(f, through_degree):
    """Class reducer for D/(Df + fD) representatives of degree <= through_degree.

    The node polynomial gets the confluent rewrite normal form (exact
    canonical representatives).  Any other f gets its normal form in
    D/fD reduced by the class reducer of D/fD through through_degree.
    """
    if dict(f.terms) == NODE_POLY_TERMS:
        system = node_system()
        return system.normal_form
    quotient = DXQuotientModule(f)
    reduce = _class_reducer(quotient, f, through_degree, through_degree)
    return lambda elem: WeylElement(f.n, reduce(quotient.reduce_element(elem)))


def action_ext0(f, end_el, e, module):
    """Action of an endomorphism on Ext^0: e maps to e*alpha.

    e is a combination of module basis labels killed by right
    multiplication by f; the result is killed as well, since
    e*alpha*f = e*f*beta = 0.
    """
    if act_word(module, e, f):
        raise ValueError("e is not in the kernel of right multiplication by f")
    return act_word(module, e, end_el.alpha)


def action_ext1(f, end_el, m, module=None):
    """Action of an endomorphism on Ext^1 classes: the class of m*beta.

    Representative independence: changing m by m'*f changes the result
    by m'*alpha*f, which is zero in the cokernel.  With module=None, m
    is a Weyl element representing a class of D/(Df+fD) and the result
    is reduced to its canonical representative; otherwise m is a
    combination over the module's basis reduced modulo M*f.
    """
    if module is None:
        product = m * end_el.beta
        reducer = _self_reducer(f, product.degree() or 0)
        return reducer(product)
    result = act_word(module, m, end_el.beta)
    return _reduce_module_class(module, f, result)


def _reduce_module_class(module, f, comb):
    """Canonical representative of a combination modulo M*f, from the
    class reducer through the combination's degree."""
    if not comb:
        return {}
    top = max(module.degree(lab) for lab in comb)
    return _class_reducer(module, f, top, top + f.degree())(comb)


def action_ext1_on_ext1(f, e, d):
    """The class of e'*d, for e' the canonical representative of e's
    self-Ext^1 class and d as given.

    e is reduced to its canonical representative first; the product of
    that representative with d is then reduced again.  Reducing first
    makes the value depend only on e's class (a raw representative of e
    may differ by fD terms, which do not die on the right against d).
    The value does depend on d's representative: changing d by a*f
    changes the product by e'*a*f, which lies in Df, but changing it by
    f*b adds e'*f*b, which in general lies in neither Df nor fD.  For f
    = x*y, e = dx and d = x*y*dy = f*dy, whose class is zero, the
    result is y*dy, while d = 0 gives 0.  So this is not a product of
    classes.
    """
    reducer = _self_reducer(f, (e.degree() or 0) + (d.degree() or 0))
    return reducer(reducer(e) * d)
