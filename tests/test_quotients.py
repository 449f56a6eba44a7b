"""Cyclic quotient singularities: isotypic counts and oracles."""

import itertools

import pytest

from dxext.quotients import (
    MAX_ORDER,
    Character,
    DiagonalGroupAction,
    GradedDims,
    cyclotomic_polynomial,
    distinct_characters,
    hypersurface_cech_dims,
    ic_local_system_ext_dims,
    isotypic_dims,
    molien_isotypic_dims,
    one_minus_g_span_dims,
    parse_character,
    parse_group,
    rend_cohomology_dims,
)


def cyclic(order, *gen):
    return DiagonalGroupAction(order=order, generators=(gen,), n=len(gen))


def brute_isotypic(action, chi, max_deg):
    """Count monomials d^b of each degree with the chi-weight, directly."""
    elements = action.elements()
    dims = []
    for m in range(max_deg + 1):
        count = 0
        for b in itertools.product(range(m + 1), repeat=action.n):
            if sum(b) != m:
                continue
            ok = all(
                sum(bi * wi for bi, wi in zip(b, w)) % action.order
                == chi.pairing(w, action.order)
                for w in action.generators
            )
            if ok:
                count += 1
        dims.append(count)
    return dims


def test_group_basics():
    g = cyclic(4, 1, 3)
    assert g.group_size == 4
    assert len(g.elements()) == 4
    assert not g.is_trivial
    assert g.is_free_away_from_origin()
    assert not g.has_pseudo_reflection()
    trivial = DiagonalGroupAction(order=1, generators=((0, 0),), n=2)
    assert trivial.is_trivial and trivial.group_size == 1


def test_group_size_bounded_by_max_order():
    # N and the generated subgroup may each reach MAX_ORDER, not exceed it
    assert MAX_ORDER == 256
    assert cyclic(MAX_ORDER, 1, 1).group_size == MAX_ORDER
    assert DiagonalGroupAction(16, ((1, 0), (0, 1)), 2).group_size == MAX_ORDER
    with pytest.raises(ValueError, match="group order 257 is above MAX_ORDER"):
        cyclic(MAX_ORDER + 1, 1, 1)
    with pytest.raises(ValueError, match="generated subgroup exceeds MAX_ORDER"):
        DiagonalGroupAction(17, ((1, 0), (0, 1)), 2)


def test_pseudo_reflection_detection():
    refl = cyclic(2, 1, 0)
    assert refl.has_pseudo_reflection()
    assert refl.pseudo_reflections() == [(1, 0)]
    assert not refl.is_free_away_from_origin()
    with pytest.raises(ValueError):
        ic_local_system_ext_dims(refl, Character((1, 0)), 4)


def test_non_free_action_rejected():
    # (0, 1, 1) modulo 2 fixes the first axis pointwise but moves two
    # coordinates, so it is non-free without being a pseudo-reflection.
    g = cyclic(2, 0, 1, 1)
    assert not g.is_free_away_from_origin()
    assert not g.has_pseudo_reflection()
    with pytest.raises(ValueError):
        rend_cohomology_dims(g, 4)


def test_isotypic_matches_brute_force():
    for g, order in ((cyclic(2, 1, 1), 2), (cyclic(3, 1, 2), 3), (cyclic(4, 1, 3), 4)):
        for exps in itertools.product(range(order), repeat=2):
            chi = Character(exps)
            table = isotypic_dims(g, chi, 8)
            assert list(table.dims) == brute_isotypic(g, chi, 8)


def test_partition_of_unity():
    # Summing over all distinct characters of the group recovers the
    # full monomial count in every degree.
    for g in (cyclic(2, 1, 1), cyclic(3, 1, 2), cyclic(4, 1, 3)):
        chars = distinct_characters(g)
        assert len(chars) == g.group_size
        totals = [0] * 11
        for chi in chars:
            dims = isotypic_dims(g, chi, 10)
            for m in range(11):
                totals[m] += dims[m]
        assert totals == [m + 1 for m in range(11)]


def brute_characters(action):
    """distinct_characters by walking every exponent vector in order."""
    seen = {}
    for exps in itertools.product(range(action.order), repeat=action.n):
        chi = Character(exps)
        seen.setdefault(chi.restriction_signature(action), chi)
    return list(seen.values())


@pytest.mark.parametrize("action", [
    # the actions of the tests here and of `verify` (Z/2, Z/3, Z/4)
    cyclic(2, 1, 1), cyclic(3, 1, 2), cyclic(4, 1, 3), cyclic(6, 1, 5), cyclic(2, 1, 0),
    cyclic(2, 0, 1, 1), cyclic(MAX_ORDER, 1, 1),
    DiagonalGroupAction(order=1, generators=((0, 0),), n=2),
    DiagonalGroupAction(16, ((1, 0), (0, 1)), 2),
    parse_group("cyclic:4:1,3"), parse_group('{"order": 2, "generators": [[1, 1]]}'),
    # two generators whose signatures do not reach every pair of values
    DiagonalGroupAction(12, ((2, 3, 4), (6, 0, 6)), 3),
], ids=lambda g: f"{g.order}:{g.generators}")
def test_distinct_characters_match_brute_force(action):
    # the lexicographically first representative of each class, in order
    chars = distinct_characters(action)
    assert chars == brute_characters(action)
    assert len(chars) == action.group_size


def test_molien_oracle_agrees():
    for g in (cyclic(2, 1, 1), cyclic(3, 1, 2), cyclic(4, 1, 3), cyclic(6, 1, 5)):
        for chi in distinct_characters(g):
            lattice = isotypic_dims(g, chi, 8)
            molien = molien_isotypic_dims(g, chi, 8)
            assert list(lattice.dims) == list(molien.dims), (g.order, chi.exponents)


def test_ic_dims_and_trivial_character():
    g = cyclic(2, 1, 1)
    deg, dims = ic_local_system_ext_dims(g, Character((1, 0)), 6)
    assert deg == 1
    assert list(dims.dims) == brute_isotypic(g, Character((1, 0)), 6)
    deg, zeros = ic_local_system_ext_dims(g, Character((0, 0)), 6)
    assert all(d == 0 for d in zeros.dims)


def test_ic_requires_nontrivial_group():
    trivial = DiagonalGroupAction(order=1, generators=((0, 0),), n=2)
    with pytest.raises(ValueError):
        ic_local_system_ext_dims(trivial, Character((0, 0)), 4)


def brute_rend(action, max_deg):
    dims = []
    for m in range(max_deg + 1):
        count = 0
        for b in itertools.product(range(m + 1), repeat=action.n):
            for c in itertools.product(range(m + 1), repeat=action.n):
                if sum(b) + sum(c) != m:
                    continue
                b_invariant = all(
                    sum(bi * wi for bi, wi in zip(b, w)) % action.order == 0
                    for w in action.generators
                )
                both = tuple(x + y for x, y in zip(b, c))
                total_invariant = all(
                    sum(bi * wi for bi, wi in zip(both, w)) % action.order == 0
                    for w in action.generators
                )
                if (not b_invariant) and total_invariant:
                    count += 1
        dims.append(count)
    return dims


def test_rend_dims_frozen_and_brute():
    g = cyclic(2, 1, 1)
    table = rend_cohomology_dims(g, 6)
    assert table[2] == 4
    assert table[4] == 16
    assert list(table.dims) == brute_rend(g, 6)
    g3 = cyclic(3, 1, 2)
    assert list(rend_cohomology_dims(g3, 6).dims) == brute_rend(g3, 6)


def test_one_minus_g_span_matches_nontrivial_isotypics():
    # For an abelian action the (1-g)-span is the sum of all nontrivial
    # isotypic components.
    for g in (cyclic(2, 1, 1), cyclic(3, 1, 2), cyclic(4, 1, 3)):
        span = one_minus_g_span_dims(g, 8)
        total = [0] * 9
        for chi in distinct_characters(g):
            if chi.is_trivial_on(g):
                continue
            dims = isotypic_dims(g, chi, 8)
            for m in range(9):
                total[m] += dims[m]
        assert list(span.dims) == total


def test_cech_dims_parity():
    g = cyclic(2, 1, 1)
    assert list(hypersurface_cech_dims(g, Character((0, 0)), 4).dims) == [1, 0, 3, 0, 5]
    assert list(hypersurface_cech_dims(g, Character((1, 0)), 4).dims) == [0, 2, 0, 4, 0]


def brute_cech(action, chi, max_deg):
    # Inverse monomials d^-c with every c_i >= 1; degree of d^-c taken
    # as |c| - n so the least one sits in degree 0.
    dims = []
    n = action.n
    for m in range(max_deg + 1):
        total = m + n
        count = 0
        for c in itertools.product(range(1, total + 1), repeat=n):
            if sum(c) != total:
                continue
            ok = all(
                (chi.pairing(w, action.order) + sum(ci * wi for ci, wi in zip(c, w)))
                % action.order == 0
                for w in action.generators
            )
            if ok:
                count += 1
        dims.append(count)
    return dims


def test_cech_dims_brute_force():
    for g in (cyclic(2, 1, 1), cyclic(3, 1, 2), cyclic(4, 1, 3)):
        for chi in distinct_characters(g):
            got = hypersurface_cech_dims(g, chi, 7)
            assert list(got.dims) == brute_cech(g, chi, 7), (g.order, chi.exponents)


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_graded_dims_serialization():
    d = GradedDims((1, 0, 2), "demo")
    assert d.to_csv() == "degree,dim\n0,1\n1,0\n2,2\n"
    assert d.to_json_dict() == {"meaning": "demo", "dims": [1, 0, 2]}
    assert d.gf_string() == "1 + 2*t^2"
    assert GradedDims((), "empty").gf_string() == "0"
    assert len(d) == 3 and d[2] == 2


def test_parse_group_and_character():
    g = parse_group("cyclic:4:1,3")
    assert g.order == 4 and g.generators == ((1, 3),) and g.n == 2
    g2 = parse_group('{"order": 2, "generators": [[1, 1]]}')
    assert g2.group_size == 2
    chi = parse_character("chi:1,2")
    assert chi.exponents == (1, 2)
    for bad in ("cyclic:", "cyclic:x:1", "cyclic:4", "nope", '{"order": 2}'):
        with pytest.raises(ValueError):
            parse_group(bad)
    with pytest.raises(ValueError):
        parse_character("1,2")


def test_rend_trivial_group_counts_nothing():
    trivial = DiagonalGroupAction(order=1, generators=((0, 0),), n=2)
    assert all(d == 0 for d in rend_cohomology_dims(trivial, 5).dims)
    full = hypersurface_cech_dims(trivial, Character((0, 0)), 4)
    # Every inverse monomial is invariant under the trivial group.
    assert list(full.dims) == [m + 1 for m in range(5)]
