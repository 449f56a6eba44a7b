"""Ext groups of the canonical right module of a hypersurface.

For a nonzero polynomial f the right module D_X = D/fD has the free
resolution 0 -> D -> D -> D_X -> 0 whose first map is left
multiplication by f.  Hom(-, M) turns that map into right
multiplication by f on M, so

  Ext^0(D_X, M) = kernel of .f on M      Ext^1(D_X, M) = M / Mf

and everything above degree one vanishes.  With M = D_X itself the
cokernel is D/(Df + fD), which is where all the subtlety lives: D is
filtered but not graded (dx = xd + 1 mixes Bernstein degrees), so the
part of Df + fD inside a filtration level F_m admits no a-priori
generator-degree bound.  Already for
f = x the element 1 = d*x - x*d lies in F_0 yet needs degree-1
generators.  The self-Ext engine therefore widens the generator degree
until the per-level dimensions are constant over a window and reports
them as stabilized upper bounds; a computed zero, however, is exact,
because the computed value always dominates the true dimension.

For one-sided questions exactness is free: v*f is nonzero of degree
deg v + deg f whenever v is nonzero (degree additivity in a domain),
so kernels of .f per level are exact for every module, and modules
whose mf_level_bound is not None get exact cokernel levels too.

The End(D_X) layer: endomorphisms of D_X are classes of alpha with
alpha*f = f*beta for a (unique) twist beta.  On Ext^0 an endomorphism
acts by right multiplication by alpha, on Ext^1 by right
multiplication by beta, and Ext^1(D_X, D_X) acts on itself through
the plain product of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grading import GradedMonomialIndex, monomials_of_degree
from .linalg import SparseEchelon
from .models import act_word
from .rewrite import node_system
from .tables import EXACT_GRADED, EXACT_ZERO, STABILIZED, TruncationLevel, TruncationTable
from .weyl import Filtration, WeylElement

__all__ = [
    "SelfExtEngine",
    "ext1_self_dims",
    "ModuleIndex",
    "ext_module_dims",
    "EndElement",
    "NoTwistSolution",
    "solve_twist",
    "end_membership",
    "action_ext0",
    "action_ext1",
    "action_ext1_on_ext1",
]

NODE_POLY_TERMS = {((1, 1), (0, 0)): Fraction(1)}


def _require_poly(f):
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if not f.is_polynomial:
        raise ValueError("f must be a polynomial (no differential part)")


class SelfExtEngine:
    """Incremental echelon of span{g*f, f*g} in graded monomial coordinates.

    Products are added degree by degree (width = largest product degree
    included).  Pivots are trailing (largest column), and columns are
    numbered degree-major, so the dimension of the span inside F_m is
    the number of pivots below the size of the degree-m prefix, at
    every widening stage, from one shared elimination.
    """

    def __init__(self, f):
        _require_poly(f)
        self.f = f
        self.n = f.n
        self.fdeg = f.degree()
        self.index = GradedMonomialIndex(f.n)
        self.echelon = SparseEchelon()
        self.width = self.fdeg - 1

    def widen_to(self, width):
        while self.width < width:
            self.width += 1
            gdeg = self.width - self.fdeg
            if gdeg < 0:
                continue
            for xexp, dexp in monomials_of_degree(self.n, gdeg):
                g = WeylElement.monomial(self.n, xexp, dexp)
                self.echelon.add(self.index.vector(g * self.f))
                self.echelon.add(self.index.vector(self.f * g))

    def level_dim(self, m):
        prefix = self.index.prefix_size(m)
        return prefix - self.echelon.pivots_below(prefix)

    def level_dims(self, max_deg):
        self.index.extend_to(max_deg)
        return [self.level_dim(m) for m in range(max_deg + 1)]

    def reduce_class(self, elem):
        """Representative of elem modulo the span built so far.

        Exact modulo Df + fD once the widening has genuinely converged;
        in general it is canonical only for the current width.
        """
        if elem.is_zero:
            return elem
        self.widen_to(elem.degree())
        vec = self.echelon.reduce_fractions(self.index.vector(elem))
        terms = {self.index.monomial(i): c for i, c in vec.items()}
        return WeylElement(self.n, terms)


def ext1_self_dims(f, max_deg, stab_window=3):
    """Per-level dimensions of D/(Df + fD) through Bernstein level max_deg.

    The level-m entry is the dimension of F_m modulo its intersection
    with span{g*f, f*g : deg g <= N}, with N widening until the whole
    vector is constant over stab_window consecutive increments.  Zero
    levels carry an exact certificate (the computed value is an upper
    bound for the true dimension); nonzero levels are stabilized upper
    bounds.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    if stab_window < 1:
        raise ValueError("stab_window must be >= 1")
    engine = SelfExtEngine(f)
    engine.widen_to(max_deg + engine.fdeg)
    dims = engine.level_dims(max_deg)
    stable = 0
    while any(dims) and stable < stab_window:
        engine.widen_to(engine.width + 1)
        new_dims = engine.level_dims(max_deg)
        stable = stable + 1 if new_dims == dims else 0
        dims = new_dims
    levels = [
        TruncationLevel(m, d, EXACT_ZERO if d == 0 else STABILIZED)
        for m, d in enumerate(dims)
    ]
    table = TruncationTable(str(f), "ext1-self", levels, window=stab_window)
    table.notes["generator_width"] = engine.width
    return table


class ModuleIndex:
    """Stable degree-major numbering of a module's basis labels."""

    def __init__(self, module):
        self.module = module
        self._labels = []
        self._pos = {}
        self._counts = []  # labels per exact degree
        self._max_degree = -1

    def extend_to(self, degree):
        if degree <= self._max_degree:
            return
        labels = list(self.module.basis(degree))
        if labels[: len(self._labels)] != self._labels:
            raise ValueError("module basis enumeration is not prefix-stable")
        for lab in labels[len(self._labels):]:
            self._pos[lab] = len(self._labels)
            self._labels.append(lab)
        self._counts = [0] * (degree + 1)
        for lab in self._labels:
            self._counts[self.module.degree(lab)] += 1
        self._max_degree = degree

    def prefix_size(self, m):
        self.extend_to(m)
        return sum(self._counts[: m + 1])

    def labels_of_degree(self, d):
        self.extend_to(d)
        return [lab for lab in self._labels if self.module.degree(lab) == d]

    def position(self, label):
        if label not in self._pos:
            self.extend_to(self.module.degree(label))
        return self._pos[label]

    def vector(self, comb):
        return {self.position(lab): c for lab, c in comb.items() if c}

    def combination(self, vec):
        return {self._labels[i]: c for i, c in vec.items()}


def ext_module_dims(module, f, max_deg, stab_window=3):
    """Levels of Ext^0 and Ext^1 of D_X against the module, as tables.

    Ext^0 levels are exact for every model: the kernel of .f inside the
    span of basis labels of degree <= m only involves rows v*f with
    deg v <= m.  Ext^1 levels are exact whenever the model supplies a
    generator bound (mf_level_bound), and otherwise fall back to the
    same widening-and-stabilization scheme as the self-Ext route.
    """
    _require_poly(f)
    if module.n != f.n:
        raise ValueError("variable count mismatch between module and f")
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    fdeg = f.degree()
    idx = ModuleIndex(module)
    idx.extend_to(max_deg + fdeg)
    echelon = SparseEchelon()

    def add_rows(vdeg):
        for lab in idx.labels_of_degree(vdeg):
            comb = act_word(module, {lab: Fraction(1)}, f)
            echelon.add(idx.vector(comb))

    rank_at = []
    for m in range(max_deg + 1):
        add_rows(m)
        rank_at.append(echelon.rank)
    vdeg_done = max_deg

    ext0_levels = [
        TruncationLevel(m, idx.prefix_size(m) - rank_at[m], EXACT_GRADED)
        for m in range(max_deg + 1)
    ]
    ext0 = TruncationTable(str(f), "ext0-module", ext0_levels)
    ext0.notes["model"] = module.name

    def level_snapshot():
        out = []
        for m in range(max_deg + 1):
            prefix = idx.prefix_size(m)
            out.append(prefix - echelon.pivots_below(prefix))
        return out

    bound = module.mf_level_bound(f, max_deg)
    if bound is not None:
        while vdeg_done < bound:
            vdeg_done += 1
            add_rows(vdeg_done)
        dims1 = level_snapshot()
        levels1 = [TruncationLevel(m, d, EXACT_GRADED) for m, d in enumerate(dims1)]
        ext1 = TruncationTable(str(f), "ext1-module", levels1)
        ext1.notes["generator_degree_bound"] = max(bound, 0)
    else:
        while vdeg_done < max_deg + fdeg:
            vdeg_done += 1
            add_rows(vdeg_done)
        dims1 = level_snapshot()
        stable = 0
        while any(dims1) and stable < stab_window:
            vdeg_done += 1
            add_rows(vdeg_done)
            new_dims = level_snapshot()
            stable = stable + 1 if new_dims == dims1 else 0
            dims1 = new_dims
        levels1 = [
            TruncationLevel(m, d, EXACT_ZERO if d == 0 else STABILIZED)
            for m, d in enumerate(dims1)
        ]
        ext1 = TruncationTable(str(f), "ext1-module", levels1, window=stab_window)
        ext1.notes["generator_width"] = vdeg_done
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
        if self.alpha * f != f * self.beta:
            raise ValueError("alpha*f != f*beta")
        sa = self.alpha.principal_symbol(Filtration.ORDER)
        sb = self.beta.principal_symbol(Filtration.ORDER)
        if sa != sb:
            raise ValueError("twist changed the principal symbol")
        return True


def _leading_term(elem):
    """The (monomial, coefficient) of elem that is largest in graded
    order on the exponent tuple xexp + dexp."""
    return max(elem.terms.items(), key=lambda t: (sum(t[0][0]) + sum(t[0][1]), t[0][0] + t[0][1]))


def solve_twist(f, alpha):
    """The unique beta with f*beta = alpha*f, as an EndElement.

    f has no d terms, so in normal-ordered coordinates f*beta is the
    commutative product of f and beta, and beta is the quotient of
    alpha*f by f.  Division reduces on the leading monomial of f in
    graded order.  {f} is a Groebner basis of its principal ideal, so a
    leading term whose x part lm(f) does not divide proves that alpha*f
    is not in fD, i.e. alpha's class is not an endomorphism.
    """
    _require_poly(f)
    if alpha.n != f.n:
        raise ValueError("variable count mismatch")
    (lead_x, _), lead_c = _leading_term(f)
    rest = alpha * f
    beta = WeylElement.zero(f.n)
    while rest:
        (xexp, dexp), c = _leading_term(rest)
        qx = tuple(a - b for a, b in zip(xexp, lead_x))
        if min(qx) < 0:
            raise NoTwistSolution(f"{alpha} * {f} is not a left multiple of {f}")
        q = WeylElement.monomial(f.n, qx, dexp, c / lead_c)
        beta = beta + q
        rest = rest - f * q
    end = EndElement(alpha, beta)
    end.verify(f)
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


def _self_reducer(f, through_degree):
    """Class reducer for D/(Df + fD) representatives.

    The node polynomial gets the confluent rewrite normal form (exact
    canonical representatives); any other f gets echelon reduction at a
    stabilized width, which is canonical for that width and exact
    whenever the widening has converged.
    """
    if dict(f.terms) == NODE_POLY_TERMS:
        system = node_system()
        return system.normal_form
    engine = SelfExtEngine(f)
    engine.widen_to(through_degree + engine.fdeg + 3)
    return engine.reduce_class


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
    """Canonical representative of a combination modulo M*f."""
    if not comb:
        return {}
    top = max(module.degree(lab) for lab in comb)
    bound = module.mf_level_bound(f, top)
    vbound = bound if bound is not None else top + f.degree() + 3
    idx = ModuleIndex(module)
    idx.extend_to(max(top, vbound + f.degree()))
    echelon = SparseEchelon()
    for d in range(vbound + 1):
        for lab in idx.labels_of_degree(d):
            echelon.add(idx.vector(act_word(module, {lab: Fraction(1)}, f)))
    return idx.combination(echelon.reduce_fractions(idx.vector(comb)))


def action_ext1_on_ext1(f, e, d):
    """Pairing of self-Ext^1 classes: the class of the product e*d.

    e is reduced to its canonical representative first; the product of
    that representative with d is then reduced again.  Reducing first
    makes the value depend only on e's class (a raw representative of e
    may differ by fD terms, which do not die on the right against d).
    """
    reducer = _self_reducer(f, (e.degree() or 0) + (d.degree() or 0))
    return reducer(reducer(e) * d)
