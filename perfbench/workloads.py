"""The three benchmark workloads, built from a freshly imported dxext.

A workload is a list of Ops.  Each op calls the library through the
package's public names, looked up when the op runs so that trace hooks
see the call.  Its check turns the result into an (observed, expected)
pair; the op fails when they differ or when the call raises.  Only
proven values are expected: exact-zero and exact-graded levels, node
dimensions the confluent rewrite route confirms, twist pairs re-checked
as alpha*f == f*beta, membership answers known by construction, and
the Molien oracle.  Paths whose output is not proven yet (non-node
action_ext1 at the +3 width, plateau-prone inputs such as x^3 + y^4)
are left out, so fixing them later is not scored as a failure.
"""

import random
from dataclasses import dataclass
from math import comb


@dataclass
class Op:
    label: str
    call: object  # () -> result
    check: object  # result -> (observed, expected)


def _node_dims(max_deg):
    """1, 3, 7, 13, ...: irreducible monomials of the confluent node system."""
    return [m * m + m + 1 for m in range(max_deg + 1)]


def _free_quotient_dims(n, fdeg, max_deg):
    """dim F_m - dim F_(m - deg f) for D/Df, by degree additivity."""

    def through(d):
        return comb(d + 2 * n, 2 * n) if d >= 0 else 0

    return [through(m) - through(m - fdeg) for m in range(max_deg + 1)]


def _nlines_dims(n, max_deg):
    """Cumulative count of x^i dy^j with i <= n - 2 (trivial IC table)."""
    out, running = [], 0
    for m in range(max_deg + 1):
        running += min(n - 1, m + 1)
        out.append(running)
    return out


def _levels(table):
    return [lv.dim for lv in table.levels], [lv.status for lv in table.levels]


# -- cusp-certify -------------------------------------------------------------

CUSP_LEVEL = 4
CUSP_WIDTH = 31


def cusp_certify(dx, seed):
    """ext1_self_dims(y^2 - x^3, 4): exact-zero at levels 0..4, width 31.

    The seed does not change the input; the certificate is fixed.
    """
    cusp = dx.parse("y^2 - x^3")

    def check(table):
        dims, statuses = _levels(table)
        return (
            (dims, statuses, table.notes.get("generator_width")),
            ([0] * (CUSP_LEVEL + 1), [dx.EXACT_ZERO] * (CUSP_LEVEL + 1), CUSP_WIDTH),
        )

    return [Op("ext1_self_dims(cusp,4)", lambda: dx.ext1_self_dims(cusp, CUSP_LEVEL), check)]


# -- model-tables -------------------------------------------------------------

CROSS_LEVEL = 16
NODE_DXQ_LEVEL = 7
NODE_FREE_LEVEL = 10
REWRITE_DEGREE = 8


def model_tables(dx, seed):
    """About 14 module-route and rewrite-route calls; the seed is unused."""
    cusp = dx.parse("y^2 - x^3")
    node = dx.parse("x*y")
    ops = []

    def cusp_check(tables):
        dims, statuses = _levels(tables[1])
        return (dims, statuses), ([0] * 4, [dx.EXACT_ZERO] * 4)

    ops.append(Op(
        "ext_module_dims(dx:cusp,3)",
        lambda: dx.ext_module_dims(dx.DXQuotientModule(cusp), cusp, 3),
        cusp_check,
    ))

    def node_dxq_check(tables):
        return tables[1].dims(), _node_dims(NODE_DXQ_LEVEL)

    ops.append(Op(
        f"ext_module_dims(dx:node,{NODE_DXQ_LEVEL})",
        lambda: dx.ext_module_dims(dx.DXQuotientModule(node), node, NODE_DXQ_LEVEL),
        node_dxq_check,
    ))

    def node_free_check(tables):
        ext0, ext1 = tables
        return (
            (ext0.dims(), _levels(ext1)),
            (
                [0] * (NODE_FREE_LEVEL + 1),
                (_free_quotient_dims(2, 2, NODE_FREE_LEVEL), [dx.EXACT_GRADED] * (NODE_FREE_LEVEL + 1)),
            ),
        )

    ops.append(Op(
        f"ext_module_dims(free:2,node,{NODE_FREE_LEVEL})",
        lambda: dx.ext_module_dims(dx.FreeWeylModule(2), node, NODE_FREE_LEVEL),
        node_free_check,
    ))

    for n in (2, 3, 4):
        for model in ("trivial", "kummer:1/2", "delta"):
            dims = _nlines_dims(n, CROSS_LEVEL) if model == "trivial" else [0] * (CROSS_LEVEL + 1)

            def cross_check(report, dims=dims):
                return (
                    (report.agree, _levels(report.ext1)),
                    (True, (dims, [dx.EXACT_GRADED] * (CROSS_LEVEL + 1))),
                )

            ops.append(Op(
                f"cross_check({n},{model},{CROSS_LEVEL})",
                lambda n=n, model=model: dx.cross_check(n, model, CROSS_LEVEL),
                cross_check,
            ))

    ops.append(Op(
        f"confluence_check(node,{REWRITE_DEGREE})",
        lambda: dx.confluence_check(dx.node_system(), REWRITE_DEGREE),
        lambda report: ((report.confluent, len(report.violations)), (True, 0)),
    ))
    ops.append(Op(
        f"irreducible_dims(node,{REWRITE_DEGREE})",
        lambda: dx.irreducible_dims(dx.node_system(), REWRITE_DEGREE),
        lambda table: (
            (table.dims(), table.notes.get("certified")),
            (_node_dims(REWRITE_DEGREE), True),
        ),
    ))
    return ops


# -- endo-batch ---------------------------------------------------------------

TWISTS_PER_TARGET = 40
NON_MEMBERS_PER_TARGET = 15
NODE_ACTIONS = 40
ISOTYPIC = 20


class _Gen:
    """Seeded random Weyl elements, endomorphisms and group actions.

    Structural choices (term counts, degrees, group orders) come from a
    fixed stream, so every seed gets the same mix of op sizes; the seed
    draws coefficients, variables, weights and characters.  This keeps
    a batch's cost close to the same from seed to seed.
    """

    SHAPE_SEED = 20211006

    def __init__(self, dx, seed):
        self.dx = dx
        self.rng = random.Random(seed)
        self.shape = random.Random(self.SHAPE_SEED)

    def coeff(self, bound):
        return self.rng.choice([c for c in range(-bound, bound + 1) if c])

    def composition(self, total, slots):
        cuts = sorted(self.rng.randrange(total + 1) for _ in range(slots - 1))
        out, prev = [], 0
        for c in cuts + [total]:
            out.append(c - prev)
            prev = c
        return tuple(out)

    def element(self, n, max_deg, terms):
        W = self.dx.WeylElement
        elem = W.zero(n)
        for _ in range(terms):
            deg = self.shape.randrange(max_deg + 1)
            split = self.rng.randrange(deg + 1)
            elem = elem + W.monomial(
                n, self.composition(split, n), self.composition(deg - split, n), self.coeff(9)
            )
        return elem

    def endomorphism(self, f, eulers):
        """A random element of End(D/fD): sums of products of Euler-type
        operators (theta*f = f*(theta + c)) and polynomials, plus a left
        multiple of f."""
        W, shape, n = self.dx.WeylElement, self.shape, f.n
        alpha = W.zero(n)
        for _ in range(shape.randrange(1, 4)):
            term = W.scalar(n, self.coeff(4))
            for _ in range(shape.randrange(3)):
                term = term * self.rng.choice(eulers)
            if shape.random() < 0.3:
                term = term * W.monomial(n, self.composition(shape.randrange(1, 3), n), (0,) * n)
            alpha = alpha + term
        if shape.random() < 0.5:
            alpha = alpha + f * self.element(n, 2, 2)
        return alpha

    def node_end(self, theta_x, theta_y):
        """A polynomial p(theta_x, theta_y) and its twist p(theta_x+1, theta_y+1);
        for f = x*y, theta*f = f*(theta + 1) for either Euler operator."""
        W, shape = self.dx.WeylElement, self.shape
        one = W.one(2)
        alpha = beta = W.zero(2)
        for _ in range(shape.randrange(1, 4)):
            a, b = shape.randrange(3), shape.randrange(3)
            c = W.scalar(2, self.coeff(3))
            alpha = alpha + c * theta_x ** a * theta_y ** b
            beta = beta + c * (theta_x + one) ** a * (theta_y + one) ** b
        return self.dx.EndElement(alpha, beta)

    def action(self):
        rng, shape = self.rng, self.shape
        n = shape.choice([2, 3])
        order = shape.randrange(2, 7)
        weights = tuple(rng.randrange(1, order) for _ in range(n))
        chi = self.dx.Character(tuple(rng.randrange(order) for _ in range(n)))
        return self.dx.DiagonalGroupAction(order, (weights,), n), chi, shape.randrange(8, 15)


def endo_batch(dx, seed):
    """About 280 short twist, membership, action and isotypic calls."""
    gen = _Gen(dx, seed)
    P = dx.parse
    targets = [
        ("node", P("x*y"), [P("x*dx", 2), P("y*dy", 2)]),
        ("lines3", dx.planar_model(3), [P("x*dx + y*dy", 2)]),
        ("cusp", P("y^2 - x^3"), [P("2*x*dx + 3*y*dy", 2)]),
        ("xyz", P("x*y*z"), [P("x*dx", 3), P("y*dy", 3), P("z*dz", 3)]),
    ]
    ops = []

    def twist_check(f, alpha):
        return lambda end: ((end.alpha == alpha, alpha * f == f * end.beta), (True, True))

    for name, f, eulers in targets:
        dxvar = dx.WeylElement.d(0, f.n)
        for _ in range(TWISTS_PER_TARGET):
            alpha = gen.endomorphism(f, eulers)
            ops.append(Op(f"solve_twist({name})", lambda f=f, a=alpha: dx.solve_twist(f, a), twist_check(f, alpha)))
        for _ in range(NON_MEMBERS_PER_TARGET):
            # h*f = alpha*f + f*dx + df/dx with alpha*f in fD, and the
            # nonzero df/dx has degree below deg f, so it is not in fD:
            # h is never a member.
            h = gen.endomorphism(f, eulers) + dxvar
            ops.append(Op(f"end_membership({name})", lambda f=f, h=h: dx.end_membership(f, h),
                          lambda res: (res is None, True)))

    node = targets[0][1]
    theta_x, theta_y = targets[0][2]
    nf_system = None  # built at the first check, so set-up does not pay for it

    def node_nf(elem):
        nonlocal nf_system
        if nf_system is None:
            nf_system = dx.node_system()
        return nf_system.normal_form(elem)

    for _ in range(NODE_ACTIONS):
        end = gen.node_end(theta_x, theta_y)
        m = gen.element(2, 3, 3)

        def action_check(res, end=end, m=m):
            pair_ok = end.alpha * node == node * end.beta
            return (pair_ok, str(res)), (True, str(node_nf(m * end.beta)))

        ops.append(Op("action_ext1(node)", lambda end=end, m=m: dx.action_ext1(node, end, m), action_check))

    for _ in range(ISOTYPIC):
        action, chi, deg = gen.action()
        ops.append(Op(
            f"isotypic_dims(Z/{action.order})",
            lambda a=action, c=chi, d=deg: dx.isotypic_dims(a, c, d),
            lambda res, a=action, c=chi, d=deg: (res.dims, dx.molien_isotypic_dims(a, c, d).dims),
        ))

    gen.rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cusp-certify": cusp_certify,
    "model-tables": model_tables,
    "endo-batch": endo_batch,
}
