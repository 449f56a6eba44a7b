"""Shipped verification suites.

Each suite re-derives one of the package's headline results from
scratch and checks it against frozen expected values or an independent
oracle.  The command line runs them through the ``verify`` subcommand;
the acceptance tests run the same functions, so a green ``verify all``
and a green test run certify the same facts.

Suites with documented runtime budgets record their wall time and fail
when they exceed it, so a performance regression is a test failure,
not just an annoyance.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .curves import cross_check, planar_model
from .hyperext import (
    action_ext1_on_ext1,
    ext1_self_dims,
    ext_module_dims,
    solve_twist,
)
from .models import (
    DeltaModule,
    DXQuotientModule,
    FreeWeylModule,
    KummerICModule,
    LineICModule,
    check_module_axioms,
)
from .parser import parse
from .quotients import (
    Character,
    DiagonalGroupAction,
    distinct_characters,
    hypersurface_cech_dims,
    isotypic_dims,
    molien_isotypic_dims,
    rend_cohomology_dims,
)
from .rewrite import confluence_check, irreducible_dims, node_system
from .tables import EXACT_ZERO
from .weyl import Filtration, WeylElement

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        word = "PASS" if self.passed else "FAIL"
        return f"{word}  {self.label}: {self.detail} ({self.seconds:.2f}s)"


def _check(label, limit=None):
    """Decorator that runs fn at once, times it and enforces a budget.

    The decorated name is bound to the resulting CheckResult, not to fn.
    """

    def wrap(fn):
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if passed and limit is not None and elapsed > limit:
            passed = False
            detail += f"; exceeded {limit}s budget"
        return CheckResult(label, passed, detail, elapsed)

    return wrap


NODE_DIMS = [1, 3, 7, 13, 21, 31]


def suite_node():
    """Criteria 1 and 2: node dimensions and route agreement."""
    results = []

    @_check("criterion 1: node dimension sequence", limit=10.0)
    def c1():
        table = ext1_self_dims(parse("x*y"), 5)
        return table.dims() == NODE_DIMS, f"dims {table.dims()}"

    results.append(c1)

    @_check("criterion 2: rewrite route agrees with linear algebra", limit=60.0)
    def c2():
        system = node_system()
        conf = confluence_check(system, 6)
        rew = irreducible_dims(system, 6)
        lin = ext1_self_dims(parse("x*y"), 6)
        ok = conf.confluent and rew.dims() == lin.dims()
        return ok, (
            f"confluence violations {len(conf.violations)}, "
            f"rewrite {rew.dims()}, linear {lin.dims()}"
        )

    results.append(c2)
    return results


SMOOTH_POLYS = ["x", "x + y^2", "y - x^2"]


def suite_smooth():
    """Criterion 3: smooth hypersurfaces certify zero up to degree 8."""
    results = []
    for text in SMOOTH_POLYS:

        @_check(f"criterion 3: smooth vanishing for {text}", limit=60.0)
        def c3(text=text):
            table = ext1_self_dims(parse(text, 2), 8)
            certified = all(
                lv.dim == 0 and lv.status == EXACT_ZERO for lv in table.levels
            )
            return certified, f"dims {table.dims()}"

        results.append(c3)
    return results


def suite_cusp():
    """Criterion 4: cuspidal vanishing evidence up to degree 7."""

    @_check("criterion 4: cusp vanishing for y^2 - x^3", limit=300.0)
    def c4():
        table = ext1_self_dims(parse("y^2 - x^3"), 7)
        certified = all(
            lv.dim == 0 and lv.status == EXACT_ZERO for lv in table.levels
        )
        return certified, f"dims {table.dims()}"

    return [c4]


def suite_twist():
    """Criterion 5: twist solutions for the coordinate Euler operators."""

    @_check("criterion 5: twist formulas on the node")
    def c5():
        f = parse("x*y")
        for k in range(1, 6):
            for var, dvar in (("x", "dx"), ("y", "dy")):
                alpha = parse(f"{var}*{dvar}^{k}", 2)
                expected = alpha + WeylElement.scalar(2, k) * parse(
                    f"{dvar}^{k-1}", 2
                )
                el = solve_twist(f, alpha)
                if el.beta != expected:
                    return False, f"solve_twist({alpha}) gave {el.beta}"
        return True, "all ten twists exact"

    return [c5]


def _mono(xexp, dexp, coeff=1):
    return WeylElement.monomial(2, xexp, dexp, Fraction(coeff))


def suite_action():
    """Criterion 6: the four worked action identities on the node."""

    @_check("criterion 6: action identities")
    def c6():
        f = parse("x*y")
        system = node_system()
        for n, i, j in product(range(1, 4), range(4), range(4)):
            beta = solve_twist(f, parse(f"x*dx^{n}", 2)).beta
            m = _mono((0, 0), (i, j))
            prod = beta * m
            middle = _mono((1, 0), (n + i, j)) + _mono((0, 0), (n - 1 + i, j), n)
            final = _mono((0, 0), (n - 1 + i, j), n)
            if prod != middle or system.irreducible_projection(prod) != final:
                return False, f"first identity fails at n={n} i={i} j={j}"
            e = _mono((0, 1), (i, j + 1))
            prod = beta * e
            middle = _mono((1, 1), (n + i, j + 1)) + _mono(
                (0, 1), (n - 1 + i, j + 1), n
            )
            final = _mono((0, 1), (n - 1 + i, j + 1), n)
            if (
                prod != middle
                or system.normal_form(prod) != final
                or system.irreducible_projection(prod) != final
            ):
                return False, f"third identity fails at n={n} i={i} j={j}"
        for m_, i, j in product(range(1, 4), range(4), range(4)):
            beta = solve_twist(f, parse(f"y*dy^{m_}", 2)).beta
            alpha = parse(f"y*dy^{m_}", 2)
            e = _mono((0, 0), (i, j))
            prod = beta * e
            want = _mono((0, 1), (i, m_ + j)) + _mono(
                (0, 0), (i, m_ + j - 1), m_
            )
            if prod != want or system.normal_form(prod) != want:
                return False, f"second identity fails at m={m_} i={i} j={j}"
            e = _mono((0, 1), (i, j + 1))
            prod = alpha * e
            want = _mono((0, 2), (i, m_ + j + 1)) + _mono(
                (0, 1), (i, m_ + j), m_
            )
            if prod != want:
                return False, f"fourth identity fails at m={m_} i={i} j={j}"
        return True, "all four identity families exact for n,m,i,j <= 3"

    return [c6]


def _nlines_basis_count(n, max_deg):
    """Degree-cumulative count of x^i (x) dy^j with i <= n-2."""
    dims = []
    running = 0
    for m in range(max_deg + 1):
        running += sum(1 for i in range(min(n - 1, m + 1)))
        dims.append(running)
    return dims


def suite_nlines():
    """Criterion 7: n-lines intersection-cohomology tables."""
    results = []
    for n in (2, 3, 4):

        @_check(f"criterion 7: trivial IC table for {n} lines")
        def c7(n=n):
            f = planar_model(n)
            _, ext1 = ext_module_dims(LineICModule(n), f, 6)
            expected = _nlines_basis_count(n, 6)
            return ext1.dims() == expected, f"dims {ext1.dims()}"

        results.append(c7)

    @_check("criterion 7: Kummer and delta tables vanish")
    def c7z():
        for n in (2, 3, 4):
            f = planar_model(n)
            _, e1k = ext_module_dims(KummerICModule(Fraction(1, 2), n), f, 6)
            _, e1d = ext_module_dims(DeltaModule(2), f, 6)
            if any(e1k.dims()) or any(e1d.dims()):
                return False, f"nonzero table at n={n}"
        return True, "all six tables identically zero"

    results.append(c7z)
    return results


def suite_predictor():
    """Criterion 8: predictor agrees with computation on the full matrix."""

    @_check("criterion 8: crosscheck matrix agreement")
    def c8():
        for n in (2, 3, 4):
            for model in ("trivial", "kummer:1/2", "delta"):
                report = cross_check(n, model, 6)
                if not report.agree:
                    return False, f"disagreement at n={n} model={model}"
        return True, "9/9 crosschecks agree"

    return [c8]


def _random_element(rng, n=2, max_deg=3, terms=3):
    elem = WeylElement.zero(n)
    for _ in range(terms):
        deg = rng.randrange(max_deg + 1)
        split = rng.randrange(deg + 1)
        xexp = _random_composition(rng, split, n)
        dexp = _random_composition(rng, deg - split, n)
        coeff = Fraction(rng.randrange(-9, 10))
        elem = elem + WeylElement.monomial(n, xexp, dexp, coeff)
    return elem


def _random_composition(rng, total, slots):
    cuts = sorted(rng.randrange(total + 1) for _ in range(slots - 1))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def _random_end_element(rng, f):
    """A random element of the endomorphism algebra for f = xy.

    Sums of products of the coordinate Euler operators lie in it, and
    so do left multiples of f; both closures are used.
    """
    euler_x, euler_y = parse("x*dx", 2), parse("y*dy", 2)
    alpha = WeylElement.zero(2)
    for _ in range(3):
        term = WeylElement.scalar(2, Fraction(rng.randrange(-4, 5)))
        for _ in range(rng.randrange(3)):
            term = term * (euler_x if rng.random() < 0.5 else euler_y)
        alpha = alpha + term
    if rng.random() < 0.5:
        alpha = alpha + f * _random_element(rng, 2, 2, 2)
    return alpha


def suite_properties():
    """Criterion 9: algebraic property checks with fixed seeds."""
    results = []

    @_check("criterion 9: commutation relations")
    def p_comm():
        for n in (1, 2, 3):
            for i in range(n):
                for j in range(n):
                    lhs = WeylElement.d(i, n) * WeylElement.x(j, n)
                    rhs = WeylElement.x(j, n) * WeylElement.d(i, n)
                    delta = WeylElement.one(n) if i == j else WeylElement.zero(n)
                    if lhs - rhs != delta:
                        return False, f"[d_{i}, x_{j}] wrong for n={n}"
        return True, "defining relations hold for n <= 3"

    results.append(p_comm)

    @_check("criterion 9: associativity on 200 random triples")
    def p_assoc():
        rng = random.Random(20240811)
        for k in range(200):
            a, b, c = (_random_element(rng) for _ in range(3))
            if (a * b) * c != a * (b * c):
                return False, f"triple {k} fails"
        return True, "200/200 exact"

    results.append(p_assoc)

    @_check("criterion 9: filtration degree additivity")
    def p_deg():
        rng = random.Random(20240812)
        checked = 0
        while checked < 100:
            a, b = _random_element(rng), _random_element(rng)
            if a.is_zero or b.is_zero or (a * b).is_zero:
                continue
            for kind in (Filtration.BERNSTEIN, Filtration.ORDER):
                if (a * b).degree(kind) != a.degree(kind) + b.degree(kind):
                    return False, f"degree not additive under {kind}"
            checked += 1
        return True, "100/100 pairs additive in both filtrations"

    results.append(p_deg)

    @_check("criterion 9: principal symbols multiply")
    def p_symbol():
        rng = random.Random(20240813)
        checked = 0
        while checked < 100:
            a, b = _random_element(rng), _random_element(rng)
            if a.is_zero or b.is_zero:
                continue
            for kind in (Filtration.BERNSTEIN, Filtration.ORDER):
                prod = a * b
                if prod.is_zero or prod.degree(kind) != a.degree(kind) + b.degree(kind):
                    continue
                lhs = prod.principal_symbol(kind)
                rhs = a.principal_symbol(kind) * b.principal_symbol(kind)
                if lhs != rhs:
                    return False, f"symbol not multiplicative under {kind}"
            checked += 1
        return True, "100/100 pairs multiplicative"

    results.append(p_symbol)

    @_check("criterion 9: module axioms to degree 6, every model")
    def p_axioms():
        models = [
            FreeWeylModule(2),
            DeltaModule(2),
            LineICModule(2),
            LineICModule(3),
            KummerICModule(Fraction(1, 2)),
            DXQuotientModule(parse("x*y")),
        ]
        for model in models:
            report = check_module_axioms(model, 6)
            if not report.ok:
                return False, f"{model.name}: {report.violations[0]}"
        return True, f"{len(models)} models pass"

    results.append(p_axioms)

    @_check("criterion 9: twist preserves the order symbol, 50 samples")
    def p_twist():
        rng = random.Random(20240814)
        f = parse("x*y")
        checked = 0
        while checked < 50:
            alpha = _random_end_element(rng, f)
            if alpha.is_zero:
                continue
            el = solve_twist(f, alpha)
            if not el.verify(f):
                return False, f"verify failed for {alpha}"
            lhs = el.alpha.principal_symbol(Filtration.ORDER)
            rhs = el.beta.principal_symbol(Filtration.ORDER)
            if el.alpha.degree(Filtration.ORDER) != el.beta.degree(
                Filtration.ORDER
            ) or lhs != rhs:
                return False, f"symbol changed for {alpha}"
            checked += 1
        return True, "50/50 twists preserve the order symbol"

    results.append(p_twist)

    @_check("criterion 9: action independent of representative, 50 samples")
    def p_rep():
        rng = random.Random(20240815)
        f = parse("x*y")
        system = node_system()
        checked = 0
        while checked < 50:
            alpha = _random_end_element(rng, f)
            if alpha.is_zero:
                continue
            beta = solve_twist(f, alpha).beta
            m = _random_element(rng, 2, 2, 2)
            g = _random_element(rng, 2, 1, 2)
            h = _random_element(rng, 2, 1, 2)
            shifted = m + g * f + f * h
            if system.normal_form(m * beta) != system.normal_form(
                shifted * beta
            ):
                return False, f"representatives disagree for {alpha}"
            checked += 1
        return True, "50/50 pairs agree"

    results.append(p_rep)

    @_check("criterion 9: class action drops to normal forms")
    def p_class():
        f = parse("x*y")
        cases = [
            ("1", "dy", "dy"),
            ("dx", "dy", "dx*dy"),
            ("x", "dy", "0"),
        ]
        for e, d, want in cases:
            got = action_ext1_on_ext1(f, parse(e, 2), parse(d, 2))
            if str(got) != want:
                return False, f"{e} * {d} gave {got}"
        return True, "worked examples match"

    results.append(p_class)
    return results


def _brute_rend_pairs(order, weights, m):
    """Independent enumeration for the degree-m correction dimension."""
    n = len(weights[0]) if weights else 0
    count = 0
    for exps in product(range(m + 1), repeat=2 * n):
        if sum(exps) != m:
            continue
        b, c = exps[:n], exps[n:]
        nontrivial = any(
            sum(w * e for w, e in zip(weight, b)) % order != 0
            for weight in weights
        )
        invariant = all(
            sum(w * (e + g) for w, (e, g) in zip(weight, zip(b, c))) % order
            == 0
            for weight in weights
        )
        if nontrivial and invariant:
            count += 1
    return count


def suite_quotient():
    """Criterion 10: quotient-singularity counting formulas."""
    results = []
    actions = {
        "Z/2": DiagonalGroupAction(2, ((1, 1),), 2),
        "Z/3": DiagonalGroupAction(3, ((1, 2),), 2),
        "Z/4": DiagonalGroupAction(4, ((1, 3),), 2),
    }

    @_check("criterion 10: isotypic partition of unity to degree 10")
    def q_partition():
        for name, action in actions.items():
            chars = distinct_characters(action)
            if len(chars) != action.group_size:
                return False, f"{name}: character count mismatch"
            for m in range(11):
                total = sum(isotypic_dims(action, chi, m)[m] for chi in chars)
                if total != comb(m + action.n - 1, action.n - 1):
                    return False, f"{name}: partition fails at degree {m}"
        return True, "Z/2, Z/3, Z/4 partitions exact"

    results.append(q_partition)

    @_check("criterion 10: Molien oracle agreement")
    def q_molien():
        for name, action in actions.items():
            for chi in distinct_characters(action):
                direct = isotypic_dims(action, chi, 8)
                oracle = molien_isotypic_dims(action, chi, 8)
                if direct.dims != oracle.dims:
                    return False, f"{name}, chi={chi.exponents}: disagree"
        return True, "all characters of Z/2, Z/3, Z/4 agree"

    results.append(q_molien)

    @_check("criterion 10: correction-term dimensions for Z/2 on C^2")
    def q_rend():
        action = actions["Z/2"]
        table = rend_cohomology_dims(action, 6)
        if not any(table.dims):
            return False, "table unexpectedly zero"
        if table[2] != 4 or table[4] != 16:
            return False, f"degree 2/4 entries {table[2]}, {table[4]}"
        for m in range(7):
            brute = _brute_rend_pairs(2, [(1, 1)], m)
            if table[m] != brute:
                return False, f"brute force disagrees at degree {m}"
        return True, f"dims {list(table.dims)} match brute force"

    results.append(q_rend)

    @_check("criterion 10: inverse-monomial parity counts")
    def q_cech():
        action = actions["Z/2"]
        frozen = {
            (0, 0): [1, 0, 3, 0, 5],
            (1, 0): [0, 2, 0, 4, 0],
        }
        for exps, prefix in frozen.items():
            chi = Character(exps)
            table = hypersurface_cech_dims(action, chi, 8)
            if list(table.dims[:5]) != prefix:
                return False, f"chi={exps}: prefix {list(table.dims[:5])}"
            for m in range(9):
                # direct lattice walk: c1 >= 1, c2 = m+2-c1 >= 1, even pairing
                brute = sum(
                    1
                    for c1 in range(1, m + 2)
                    if (c1 + (m + 2 - c1) + sum(exps)) % 2 == 0
                )
                if table[m] != brute:
                    return False, f"chi={exps}: disagree at degree {m}"
        return True, "parity counts match lattice enumeration"

    results.append(q_cech)
    return results


SUITES = {
    "node": suite_node,
    "smooth": suite_smooth,
    "cusp": suite_cusp,
    "twist": suite_twist,
    "action": suite_action,
    "nlines": suite_nlines,
    "predictor": suite_predictor,
    "properties": suite_properties,
    "quotient": suite_quotient,
}

SUITE_NAMES = list(SUITES) + ["all"]


def run_suite(name):
    """Run one suite (or all of them) and return ordered CheckResults."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()
