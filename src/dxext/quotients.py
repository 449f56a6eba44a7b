"""Isotypic dimension counting for finite abelian diagonal group actions.

A finite abelian group acts diagonally on C^n through a fixed primitive
N-th root of unity: a generator with exponent vector v sends x_i to
zeta^{v_i} x_i.  Every computation here reduces to exact lattice-point
counting, so the whole module is integer arithmetic.

Conventions.  A monomial d^b in the delta-module C[d_1..d_n] has weight
exponent <w, b> mod N on the group element with exponent vector w, and
the character with exponent vector c takes the value zeta^{<w, c>}
there.  So d^b lies in the chi-isotypic component exactly when
<w, b - c> = 0 mod N for every generator w.  An inverse monomial
1/x^c has weight exponent -<w, c>, giving the matching condition
<w, c + e> = 0 for a character with exponents e.  Dimensions are
unchanged by swapping a character with its inverse in every shipped
example (the characters there are real), but the convention above is
the one implemented throughout.

The Molien-series oracle recomputes isotypic dimensions by a second
route: expand (1/|G|) sum_g chi(g)^{-1} prod_i 1/(1 - zeta^{w_i} t) as
a power series with coefficients in the group ring of Z/N, then reduce
each coefficient modulo the N-th cyclotomic polynomial and check it is
a rational integer.  Each geometric factor is expanded directly, so no
series inversion is involved.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .grading import compositions, require_variables

__all__ = [
    "MAX_ORDER",
    "DiagonalGroupAction",
    "Character",
    "GradedDims",
    "isotypic_dims",
    "distinct_characters",
    "ic_local_system_ext_dims",
    "rend_cohomology_dims",
    "one_minus_g_span_dims",
    "hypersurface_cech_dims",
    "molien_isotypic_dims",
    "cyclotomic_polynomial",
    "parse_group",
    "parse_character",
]


# The largest N, and the largest generated subgroup, a group may have:
# the Molien oracle's work grows with N times the group size.
MAX_ORDER = 256


@dataclass(frozen=True)
class DiagonalGroupAction:
    """A finite abelian group acting diagonally on C^n.

    ``order`` is the common modulus N; each generator is an exponent
    vector in (Z/N)^n, acting on x_i by zeta_N^{v_i}.  N and the size of
    the generated subgroup are at most MAX_ORDER, and n is at most
    grading.MAX_VARIABLES.
    """

    order: int
    generators: tuple
    n: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("group order must be positive")
        if self.order > MAX_ORDER:
            raise ValueError(f"group order {self.order} is above MAX_ORDER = {MAX_ORDER}")
        if self.n < 1:
            raise ValueError("need at least one variable")
        require_variables(self.n)
        gens = []
        for g in self.generators:
            g = tuple(int(e) % self.order for e in g)
            if len(g) != self.n:
                raise ValueError(
                    f"generator {g} has length {len(g)}, expected {self.n}"
                )
            gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))
        seen = {(0,) * self.n}
        frontier = [(0,) * self.n]
        while frontier:
            w = frontier.pop()
            for g in self.generators:
                nxt = tuple((a + b) % self.order for a, b in zip(w, g))
                if nxt not in seen:
                    if len(seen) == MAX_ORDER:
                        raise ValueError(f"the generated subgroup exceeds MAX_ORDER = {MAX_ORDER}")
                    seen.add(nxt)
                    frontier.append(nxt)
        object.__setattr__(self, "_elements", sorted(seen))  # enumerated once

    def elements(self):
        """All exponent vectors of the generated subgroup of (Z/N)^n."""
        return list(self._elements)

    @property
    def group_size(self):
        return len(self._elements)

    @property
    def is_trivial(self):
        return self.group_size == 1

    def is_free_away_from_origin(self):
        """True when no nontrivial element fixes a nonzero vector.

        A diagonal element fixes the x_i-axis exactly when its i-th
        weight entry vanishes, so freeness means every nontrivial
        element has all entries nonzero.
        """
        return all(
            all(e != 0 for e in w)
            for w in self.elements()
            if any(w)
        )

    def pseudo_reflections(self):
        """Nontrivial elements fixing a hyperplane: one nonzero entry."""
        return [
            w for w in self.elements()
            if sum(1 for e in w if e != 0) == 1
        ]

    def has_pseudo_reflection(self):
        return bool(self.pseudo_reflections())


@dataclass(frozen=True)
class Character:
    """A character of the ambient torus (Z/N)^n, given by exponents.

    Its value on a group element with weight vector w is
    zeta^{<exponents, w>}; the restriction to the generated subgroup is
    what matters, and two exponent vectors agreeing on all generators
    restrict to the same character.
    """

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "exponents", tuple(int(e) for e in self.exponents)
        )

    def pairing(self, weight, order):
        if len(weight) != len(self.exponents):
            raise ValueError("character length does not match the action")
        return sum(c * w for c, w in zip(self.exponents, weight)) % order

    def restriction_signature(self, action):
        return tuple(
            self.pairing(g, action.order) for g in action.generators
        )

    def is_trivial_on(self, action):
        return all(v == 0 for v in self.restriction_signature(action))


@dataclass(frozen=True)
class GradedDims:
    """Per-degree dimensions with a short description of what they count."""

    dims: tuple
    meaning: str

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def __getitem__(self, m):
        return self.dims[m]

    def __len__(self):
        return len(self.dims)

    def to_json_dict(self):
        return {"meaning": self.meaning, "dims": list(self.dims)}

    def to_csv(self):
        lines = ["degree,dim"]
        lines.extend(f"{m},{d}" for m, d in enumerate(self.dims))
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = [self.meaning]
        lines.extend(f"  degree {m}: {d}" for m, d in enumerate(self.dims))
        return "\n".join(lines)

    def gf_string(self, var="t"):
        """The dimensions as a generating-function expression in var."""
        terms = []
        for m, d in enumerate(self.dims):
            if d == 0:
                continue
            if m == 0:
                terms.append(str(d))
            else:
                power = var if m == 1 else f"{var}^{m}"
                terms.append(power if d == 1 else f"{d}*{power}")
        return " + ".join(terms) if terms else "0"


def _matches(action, delta):
    """Whether <w, delta> = 0 mod N for every generator w."""
    return all(
        sum(v * d for v, d in zip(g, delta)) % action.order == 0
        for g in action.generators
    )


def isotypic_dims(action, chi, max_deg):
    """Count monomials d^b of each degree with G-weight equal to chi."""
    if len(chi.exponents) != action.n:
        raise ValueError("character length does not match the action")
    dims = []
    for m in range(max_deg + 1):
        count = 0
        for b in compositions(m, action.n):
            delta = tuple(x - c for x, c in zip(b, chi.exponents))
            if _matches(action, delta):
                count += 1
        dims.append(count)
    return GradedDims(
        tuple(dims),
        f"isotypic dimensions of C[d] for character {list(chi.exponents)}",
    )


def distinct_characters(action):
    """One representative per character of the generated subgroup.

    Exponent vectors are classed by their values on the generators, the
    restriction signature; the number of classes equals the group size.
    Each class is represented by its lexicographically first exponent
    vector, and the list is in lexicographic order, as a walk over every
    exponent vector would find them.  The signature is additive in the
    exponents, so the signatures reach[i] of the exponents i..n-1 form
    a subgroup, built coset by coset from reach[i + 1]; each exponent of
    a class's representative is then the least value that leaves the
    rest of its signature in reach of the exponents after it.
    """
    order, gens = action.order, action.generators
    cols = [tuple(g[i] for g in gens) for i in range(action.n)]

    def plus(sig, col, e=1):
        return tuple((s + e * c) % order for s, c in zip(sig, col))

    reach = [{tuple(0 for _ in gens)}]
    for col in reversed(cols):
        sub, grown, step = reach[-1], set(reach[-1]), col
        while step not in sub:  # one coset per multiple of col outside sub
            grown.update(plus(sig, step) for sig in sub)
            step = plus(step, col)
        reach.append(grown)
    reach.reverse()
    chars = []
    for sig in reach[0]:
        exps = []
        for col, rest in zip(cols, reach[1:]):
            e = next(e for e in range(order) if plus(sig, col, -e) in rest)
            sig = plus(sig, col, -e)
            exps.append(e)
        chars.append(Character(exps))
    return sorted(chars, key=lambda chi: chi.exponents)


def _require_isolated(action):
    if action.has_pseudo_reflection():
        raise ValueError("the action contains pseudo-reflections")
    if not action.is_free_away_from_origin():
        raise ValueError(
            "the action has nonzero fixed vectors, so the singularity "
            "is not isolated"
        )


def ic_local_system_ext_dims(action, chi, max_deg):
    """Ext dimensions against the intersection-cohomology module of chi.

    Returns (n - 1, dims): the single cohomological degree where the
    answer lives and its graded dimensions, which are the chi-isotypic
    dimensions of the delta-module.  The trivial character gives zero.
    Requires a nontrivial action, free away from the origin and with
    no pseudo-reflections.
    """
    _require_isolated(action)
    if action.is_trivial:
        raise ValueError(
            "the trivial group gives a smooth quotient, not an "
            "isolated singularity"
        )
    if chi.is_trivial_on(action):
        dims = GradedDims(
            (0,) * (max_deg + 1),
            "higher Ext vanishes for the trivial local system",
        )
        return action.n - 1, dims
    return action.n - 1, isotypic_dims(action, chi, max_deg)


def rend_cohomology_dims(action, max_deg):
    """Total-degree dimensions of the degree-(1-n) correction term.

    Counts pairs of monomials (d^b, d^c) with |b| + |c| equal to the
    total degree, d^b in a nontrivial isotypic component and the
    combined weight trivial.  For abelian groups the span of the
    (1-g)-images is exactly the sum of the nontrivial isotypic parts,
    so this is the invariant part of that span tensored with C[d].
    """
    _require_isolated(action)
    dims = []
    for m in range(max_deg + 1):
        count = 0
        for total_b in range(m + 1):
            for b in compositions(total_b, action.n):
                if _matches(action, b):
                    continue
                for c in compositions(m - total_b, action.n):
                    combined = tuple(x + y for x, y in zip(b, c))
                    if _matches(action, combined):
                        count += 1
        dims.append(count)
    return GradedDims(
        tuple(dims),
        "invariants of (nontrivial isotypic part of C[d]) tensor C[d], "
        "by total degree",
    )


def one_minus_g_span_dims(action, max_deg):
    """Per-degree dimension of the span of all (1 - g)-images in C[d].

    Computed the explicit way: for each degree, each pair (g, d^b)
    contributes (1 - zeta^{<w,b>}) d^b, so the span collects the
    monomials whose coefficient is nonzero, i.e. those with
    <w,b> != 0 mod N for some g.  Equals total minus invariant
    dimensions.
    """
    elements = action.elements()
    dims = []
    for m in range(max_deg + 1):
        touched = 0
        for b in compositions(m, action.n):
            if any(sum(v * e for v, e in zip(w, b)) % action.order for w in elements):
                touched += 1
        dims.append(touched)
    return GradedDims(
        tuple(dims), "span of the (1-g)-images inside C[d], by degree"
    )


def hypersurface_cech_dims(action, chi, max_deg):
    """Count inverse monomials 1/x^c with weight matching chi.

    The degree-m entry counts exponent vectors c with every c_i >= 1,
    |c| = m + n, and <w, c + e> = 0 mod N on every generator w, where
    e is the character's exponent vector.
    """
    if len(chi.exponents) != action.n:
        raise ValueError("character length does not match the action")
    dims = []
    for m in range(max_deg + 1):
        total = m + action.n
        count = 0
        # c_i >= 1 everywhere: shift to a free composition of total - n
        for b in compositions(total - action.n, action.n):
            c = tuple(x + 1 for x in b)
            delta = tuple(x + e for x, e in zip(c, chi.exponents))
            if _matches(action, delta):
                count += 1
        dims.append(count)
    return GradedDims(
        tuple(dims),
        f"inverse monomials matching character {list(chi.exponents)}, "
        "by total inverse degree minus n",
    )


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    """Quotient of num by den in Q[t], asserting zero remainder."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        q[i] = coeff
        if coeff:
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    if any(num):
        raise ValueError("division was not exact")
    return q


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(order):
    """Coefficients of the N-th cyclotomic polynomial, low degree first."""
    if order < 1:
        raise ValueError("order must be positive")
    if order not in _CYCLOTOMIC_CACHE:
        # t^N - 1 = product of Phi_d over divisors d of N
        num = [0] * (order + 1)
        num[0], num[order] = -1, 1
        den = [1]
        for d in range(1, order):
            if order % d == 0:
                den = _poly_mul(den, cyclotomic_polynomial(d))
        q = _poly_div_exact(num, den)
        assert all(c.denominator == 1 for c in q)
        _CYCLOTOMIC_CACHE[order] = tuple(int(c) for c in q)
    return list(_CYCLOTOMIC_CACHE[order])


def _reduce_mod(vec, phi):
    """Reduce sum(vec[k] z^k) modulo phi over Q; returns the remainder."""
    rem = [Fraction(v) for v in vec]
    deg = len(phi) - 1
    lead = Fraction(phi[-1])
    for i in range(len(rem) - 1, deg - 1, -1):
        coeff = rem[i] / lead
        if coeff:
            for j in range(len(phi)):
                rem[i - deg + j] -= coeff * phi[j]
    rem = rem[:deg]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def molien_isotypic_dims(action, chi, max_deg):
    """Isotypic dimensions recomputed through the Molien series.

    Expands (1/|G|) sum_g zeta^{-<w,c>} prod_i 1/(1 - zeta^{w_i} t) to
    the requested degree.  Series coefficients are carried as integer
    vectors over the powers of zeta (the group ring of Z/N); each
    geometric factor contributes zeta^{w_i k} at t^k, so products are
    cyclic convolutions and no inversion happens.  At the end every
    coefficient must reduce to a rational integer multiple of 1/|G|.
    """
    order = action.order
    elements = action.elements()
    phi = cyclotomic_polynomial(order)
    total = [[0] * order for _ in range(max_deg + 1)]
    for w in elements:
        # series for this element: product of n geometric series
        series = [[0] * order for _ in range(max_deg + 1)]
        series[0][0] = 1
        for wi in w:
            nxt = [[0] * order for _ in range(max_deg + 1)]
            for k in range(max_deg + 1):
                base = (wi * k) % order
                for m in range(max_deg + 1 - k):
                    row = series[m]
                    dst = nxt[m + k]
                    for r, val in enumerate(row):
                        if val:
                            dst[(r + base) % order] += val
            series = nxt
        shift = (-chi.pairing(w, order)) % order
        for m in range(max_deg + 1):
            row = series[m]
            dst = total[m]
            for r, val in enumerate(row):
                if val:
                    dst[(r + shift) % order] += val
    size = len(elements)
    dims = []
    for m in range(max_deg + 1):
        rem = _reduce_mod(total[m], phi)
        if len(rem) > 1:
            raise ArithmeticError(
                f"Molien coefficient at degree {m} is not rational: {rem}"
            )
        value = rem[0] if rem else Fraction(0)
        value /= size
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(
                f"Molien coefficient at degree {m} is not a count: {value}"
            )
        dims.append(int(value))
    return GradedDims(
        tuple(dims),
        f"Molien-series coefficients for character {list(chi.exponents)}",
    )


def parse_group(text):
    """Parse `cyclic:N:v1,...,vn` or a JSON object with order/generators.

    Malformed text, JSON of the wrong shape included, is a ValueError.
    """
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
        if "order" not in data or "generators" not in data:
            raise ValueError("JSON group needs both order and generators")
        order, gens = data["order"], data["generators"]
        if type(order) is not int:
            raise ValueError(f"order must be an integer, got {json.dumps(order)}")
        if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(type(e) is int for e in g) for g in gens
        ):
            raise ValueError(
                f"generators must be a list of integer lists, got {json.dumps(gens)}"
            )
        if not gens:
            raise ValueError("need at least one generator vector")
        return DiagonalGroupAction(order, tuple(map(tuple, gens)), len(gens[0]))
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "cyclic":
        raise ValueError(
            f"expected cyclic:N:v1,...,vn or a JSON object, got {text!r}"
        )
    try:
        order = int(parts[1])
        vec = tuple(int(v) for v in parts[2].split(","))
    except ValueError:
        raise ValueError(f"bad cyclic group serialization {text!r}") from None
    return DiagonalGroupAction(order, (vec,), len(vec))


def parse_character(text):
    """Parse `chi:c1,...,cn` into a Character."""
    text = text.strip()
    if not text.startswith("chi:"):
        raise ValueError(f"expected chi:c1,...,cn, got {text!r}")
    return Character(tuple(int(v) for v in text[4:].split(",")))
