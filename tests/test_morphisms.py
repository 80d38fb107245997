import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfl.catalog import enumerate_lattices, named_lattices
from cfl.lattices import CapExceeded, JoinMap, NotJoinPreserving, chain, join_maps
import cfl.morphisms as morphisms_mod
from cfl.morphisms import (ChainTuple, Family, LinMorphism, TermNotInBasis, _distinct_rows,
                           adjoint_op, beta, compose_families, compose_pairs, e_t,
                           first_product_mismatch, j_of_tuple, lambda_of_tuple, max_tuple_size,
                           p_tuples, pi_of_tuple, rho_y, stack_families, tot_basis, unit_block,
                           y_tuples)
from cfl.suite import _units


@pytest.fixture(scope="module")
def named():
    return named_lattices()


def test_check_join_map(named):
    b2 = named["b2"]
    assert JoinMap(b2, b2, range(4)) == JoinMap.identity(b2)
    JoinMap(b2, b2, [0, 0, 0, 0])
    with pytest.raises(NotJoinPreserving) as err:
        JoinMap(b2, b2, [0, 1, 2, 2])
    assert err.value.pair == (1, 2)


def test_lin_morphism_algebra():
    ident = LinMorphism.identity(chain(1))
    drop = LinMorphism.of_map(rho_y(1, []))
    assert ident @ drop == drop
    assert 2 * ident @ (3 * drop) == 6 * (ident @ drop)
    assert ident - ident == LinMorphism.zero(chain(1), chain(1))
    assert (ident + drop).terms[rho_y(1, [])] == Fraction(1)


def test_lin_morphism_merges_terms():
    drop = LinMorphism.of_map(rho_y(1, []))
    total = drop + drop
    assert total == 2 * drop
    assert (total - 2 * drop).is_zero()


def test_adjoint_example():
    f = JoinMap(chain(2), chain(1), [0, 1, 1])
    g = adjoint_op(f)
    assert g.images == (0, 2)
    assert g.src == chain(1).opposite() and g.dst == chain(2).opposite()
    assert adjoint_op(JoinMap.identity(chain(2))) == JoinMap.identity(chain(2).opposite())


def test_adjoint_adjunction_and_reversal(named):
    lats = [chain(1), chain(2), named["b2"]]
    for src in lats:
        for dst in lats:
            for f in join_maps(src, dst):
                g = adjoint_op(f)
                for t1 in range(src.n):
                    for t2 in range(dst.n):
                        assert dst.le(f(t1), t2) == src.le(t1, g(t2))
                assert adjoint_op(g) == f
    b2 = named["b2"]
    maps = join_maps(b2, b2)
    for f in maps[:8]:
        for g in maps[:8]:
            assert adjoint_op(g @ f) == adjoint_op(f) @ adjoint_op(g)


def test_chain_tuples(named):
    b2 = named["b2"]
    assert [t.entries for t in p_tuples(b2, 0)] == [()]
    assert [t.entries for t in p_tuples(b2, 1)] == [(0,), (1,), (2,)]
    assert [t.entries for t in p_tuples(b2, 2)] == [(0, 1), (0, 2)]
    assert [t.entries for t in y_tuples(b2, 2)] == [(1, 3), (2, 3)]
    assert max_tuple_size(b2) == 2
    assert max_tuple_size(chain(3)) == 3
    with pytest.raises(ValueError):
        ChainTuple(b2, (3,), "P")  # contains the top
    with pytest.raises(ValueError):
        ChainTuple(b2, (1, 2), "P")  # not a chain
    with pytest.raises(ValueError):
        ChainTuple(b2, (0,), "Y")  # contains the bottom


def test_pi_of_tuple_examples(named):
    b2 = named["b2"]
    pi = pi_of_tuple(ChainTuple(b2, (1,), "P"))
    assert pi.images == (0, 0, 1, 1)
    for n in range(4):
        full = ChainTuple(chain(n), tuple(range(n)), "P")
        assert pi_of_tuple(full) == JoinMap.identity(chain(n))
        empty = ChainTuple(chain(n), (), "P")
        assert pi_of_tuple(empty).images == (0,) * (n + 1)
        assert pi_of_tuple(full).is_surjective()


def test_j_of_tuple_two_chain():
    j = j_of_tuple(ChainTuple(chain(2), (0,), "P"))
    want = {JoinMap(chain(1), chain(2), (0, 1)): Fraction(1),
            JoinMap(chain(1), chain(2), (0, 0)): Fraction(-1)}
    assert j.terms == want  # the Mobius-zero image at the top is dropped


def test_j_of_tuple_empty():
    j = j_of_tuple(ChainTuple(chain(2), (), "P"))
    assert j.terms == {JoinMap(chain(0), chain(2), (0,)): Fraction(1)}


def _revalidated(m):
    return JoinMap(m.src, m.dst, m.images) == m


def test_j_of_tuple_terms_pass_the_validating_constructor(named):
    # j_of_tuple builds its terms unchecked; each must be a real join-map
    for lat in named.values():
        for n in range(min(3, max_tuple_size(lat)) + 1):
            for b in p_tuples(lat, n):
                assert all(_revalidated(m) for m in j_of_tuple(b).terms)


def test_unchecked_chain_maps_pass_the_validating_constructor(named):
    for lat in named.values():
        for n in range(min(3, max_tuple_size(lat)) + 1):
            assert all(_revalidated(pi_of_tuple(b)) for b in p_tuples(lat, n))
            assert all(_revalidated(lambda_of_tuple(v)) for v in y_tuples(lat, n))
    for n in range(5):
        for k in range(n + 1):
            for ys in itertools.combinations(range(1, n + 1), k):
                assert _revalidated(rho_y(n, ys))


def test_j_of_full_chain_tuple_is_the_top_idempotent():
    for n in range(4):
        full = ChainTuple(chain(n), tuple(range(n)), "P")
        assert j_of_tuple(full) == beta(n, n)


def test_rho_y():
    assert rho_y(3, [1, 2, 3]) == JoinMap.identity(chain(3))
    assert rho_y(1, []).images == (0, 0)
    assert rho_y(3, [2]).images == (0, 0, 2, 2)
    with pytest.raises(ValueError):
        rho_y(2, [3])


def test_quotient_after_section_formula(named):
    for lat in (named["b2"], named["m3"], chain(3)):
        for n in range(min(3, max_tuple_size(lat)) + 1):
            for b in p_tuples(lat, n):
                left = LinMorphism.of_map(pi_of_tuple(b)) @ j_of_tuple(b)
                sign = -1 if n % 2 else 1
                want = LinMorphism.zero(chain(n), chain(n))
                for k in range(n + 1):
                    for ys in itertools.combinations(range(1, n + 1), k):
                        want = want + (sign * (-1) ** k) * LinMorphism.of_map(rho_y(n, ys))
                assert left == want


def _reindexed_unit(d, c):
    """The matrix unit ``j_of_tuple(d) @ pi_of_tuple(c)`` with each term of
    the section composed with the quotient, one by one: the quotient is onto,
    so nothing merges.  The oracle for the units built from blocks."""
    pi = pi_of_tuple(c)
    return LinMorphism(d.lattice, d.lattice,
                       {g.compose(pi): coeff for g, coeff in j_of_tuple(d).terms.items()})


def test_block_units_idempotents_and_products(named):
    m3 = named["m3"]
    for n in range(3):
        tuples, sections, quotients = unit_block(m3, n)
        units = compose_families(sections, quotients)
        diagonal = compose_pairs(sections, quotients)
        for i in range(len(tuples)):
            fbb = units.member(i * (len(tuples) + 1))
            assert diagonal.member(i) == fbb and fbb @ fbb == fbb
    d, c = p_tuples(m3, 1)[:2]
    assert _reindexed_unit(d, c) @ _reindexed_unit(c, d) == _reindexed_unit(d, d)


def test_stacked_units_equal_section_after_quotient(named):
    # member k of the stacked units is f_dc for the k-th pair (d, c) of one size
    counts = {}
    for name, lat in named.items():
        if lat.n > 6:
            continue
        tuples, (d, c), family = _units(lat, 3)
        counts[name] = len(family)
        assert len(d) == len(family) and family.dens == [1] * len(family)
        for k, (i, j) in enumerate(zip(d.tolist(), c.tolist())):
            want = j_of_tuple(tuples[i]) @ pi_of_tuple(tuples[j])
            assert family.member(k) == want == _reindexed_unit(tuples[i], tuples[j])
    assert counts["chain5"] == 226 and len(counts) == 10


def test_paired_diagonal_units_are_the_reindexed_ones(named):
    for lat in named.values():
        for n in range(min(3, max_tuple_size(lat)) + 1):
            tuples, sections, quotients = unit_block(lat, n)
            diagonal = compose_pairs(sections, quotients)
            assert [diagonal.member(i) for i in range(len(tuples))] == [
                _reindexed_unit(b, b) for b in tuples]


def test_beta_and_e_t_are_sums_of_diagonal_units(named):
    # the sums of f_bb that beta and e_t were defined by, over the reindexed units
    def diagonal_sum(lat, sizes):
        return sum((_reindexed_unit(b, b) for n in sizes for b in p_tuples(lat, n)),
                   LinMorphism.zero(lat, lat))

    for n in range(5):
        for m in range(n + 1):
            assert beta(n, m) == diagonal_sum(chain(n), [m])
    for lat in list(named.values()) + [chain(8)]:
        assert e_t(lat) == diagonal_sum(lat, range(max_tuple_size(lat) + 1))


def test_unit_block_is_built_once_per_lattice_and_size(named):
    b2 = named["b2"]
    assert unit_block(b2, 1) is unit_block(b2, 1)
    tuples, sections, quotients = unit_block(b2, 1)
    assert list(tuples) == p_tuples(b2, 1)
    assert not sections.nums.flags.writeable and not quotients.images.flags.writeable
    assert [sections.member(i) for i in range(3)] == [j_of_tuple(b) for b in tuples]
    assert [quotients.member(i) for i in range(3)] == [
        LinMorphism.of_map(pi_of_tuple(b)) for b in tuples]


def test_compose_pairs_refuses_mismatched_families(named):
    b2 = named["b2"]
    _, sections, quotients = unit_block(b2, 1)
    with pytest.raises(ValueError, match="different lengths"):
        compose_pairs(sections, Family(b2, chain(1), []))
    with pytest.raises(ValueError, match="middle lattice mismatch"):
        compose_pairs(sections, sections)


def test_beta_partition_of_identity():
    for n in range(5):
        blocks = [beta(n, m) for m in range(n + 1)]
        total = LinMorphism.zero(chain(n), chain(n))
        for b in blocks:
            total = total + b
        assert total == LinMorphism.identity(chain(n))
        for l, bl in enumerate(blocks):
            for m, bm in enumerate(blocks):
                expect = bl if l == m else LinMorphism.zero(chain(n), chain(n))
                assert bl @ bm == expect


def test_epsilon_examples():
    assert beta(1, 1) == (LinMorphism.identity(chain(1))
                          - LinMorphism.of_map(rho_y(1, [])))
    assert beta(0, 0) == LinMorphism.identity(chain(0))


def test_top_idempotent_spans_a_line():
    # right multiples of the top block stay on the line it spans
    for n in range(1, 4):
        eps = beta(n, n)
        ref_map, ref_coeff = next(iter(eps.terms.items()))
        for m in tot_basis(chain(n)):
            prod = eps @ LinMorphism.of_map(m)
            if prod.is_zero():
                continue
            c = prod.terms.get(ref_map, Fraction(0)) / ref_coeff
            assert prod == c * eps


def test_e_t_is_the_identity_on_chains():
    for n in range(4):
        assert e_t(chain(n)) == LinMorphism.identity(chain(n))


def test_e_t_idempotent_and_one_point(named):
    one = chain(0)
    assert e_t(one) == LinMorphism.identity(one)
    for lat in (named["b2"], named["m3"]):
        unit = e_t(lat)
        assert unit @ unit == unit


def test_max_tuple_size_is_the_longest_top_avoiding_chain(named):
    lats = list(named.values()) + list(enumerate_lattices(5))
    for lat in lats:
        longest = max(n for n in range(lat.n) if n == 0 or p_tuples(lat, n))
        assert max_tuple_size(lat) == longest
    assert max_tuple_size(chain(40)) == 40  # no subset walk


def test_chain_expansions_refuse_oversized_inputs():
    with pytest.raises(CapExceeded, match="chain scan"):
        p_tuples(chain(29), 4)
    with pytest.raises(CapExceeded, match="chain tuples"):
        tot_basis(chain(10))
    with pytest.raises(CapExceeded, match="chain tuples"):
        e_t(chain(10))
    assert len(tot_basis(chain(9))) == math.comb(18, 9)


def test_tot_basis_counts(named):
    for n in range(5):
        basis = tot_basis(chain(n))
        assert len(basis) == math.comb(2 * n, n)
        assert len(set(basis)) == len(basis)
    b2 = named["b2"]
    sizes = [len(p_tuples(b2, n)) for n in range(max_tuple_size(b2) + 1)]
    assert sizes == [1, 3, 2]
    assert [len(y_tuples(b2, n)) for n in range(3)] == sizes
    assert len(tot_basis(b2)) == sum(s * s for s in sizes)


def test_tot_basis_is_exactly_the_chain_image_endos(named):
    for lat in (chain(2), named["b2"], named["m3"]):
        brute = {m for m in join_maps(lat, lat)
                 if all(lat.le(a, b) or lat.le(b, a)
                        for a in m.image_set() for b in m.image_set())}
        assert set(tot_basis(lat)) == brute


def test_lambda_of_tuple(named):
    b2 = named["b2"]
    lam = lambda_of_tuple(ChainTuple(b2, (1, 3), "Y"))
    assert lam.images == (0, 1, 3)
    with pytest.raises(ValueError):
        lambda_of_tuple(ChainTuple(b2, (1,), "P"))


def test_family_over(named):
    b2 = named["b2"]
    basis = tot_basis(b2)
    tuples = [b for n in range(max_tuple_size(b2) + 1) for b in p_tuples(b2, n)]
    units = [j_of_tuple(d) @ pi_of_tuple(c) for d in tuples for c in tuples if len(d) == len(c)]
    family = Family(b2, b2, units)
    assert family.dens == [1] * len(units)
    position = {m: k for k, m in enumerate(basis)}
    want = np.zeros((len(units), len(basis)), np.int64)
    for i, unit in enumerate(units):
        for m, c in unit.terms.items():
            want[i, position[m]] = c
    assert np.array_equal(family.over(basis), want)
    table = Family(b2, b2, [units[0], LinMorphism.zero(b2, b2)]).over(basis)
    assert np.array_equal(table[0], want[0]) and not table[1].any()
    with pytest.raises(TermNotInBasis) as err:  # the identity's image is no chain
        Family(b2, b2, units[:1] + [LinMorphism.identity(b2)]).over(basis)
    assert err.value.images == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Family(chain(1), chain(1), [LinMorphism.identity(chain(1))]).over(basis)


def test_adjoint_of_chain_image_factorization(named):
    for lat in (chain(2), named["b2"], named["n5"]):
        op = lat.opposite()
        for n in range(max_tuple_size(lat) + 1):
            for u in p_tuples(lat, n):
                for v in y_tuples(lat, n):
                    m = lambda_of_tuple(v) @ pi_of_tuple(u)
                    urev = ChainTuple(op, tuple(reversed(u.entries)), "Y")
                    vrev = ChainTuple(op, tuple(reversed(v.entries)), "P")
                    assert adjoint_op(m) == lambda_of_tuple(urev) @ pi_of_tuple(vrev)


# --- the trusted composition path against validated references --------------

SMALL = [lat for lat in named_lattices().values() if lat.n <= 5]
coefficients = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@functools.cache
def _maps(src, dst):
    return join_maps(src, dst)


@st.composite
def composable(draw):
    a, b, c = (draw(st.sampled_from(SMALL)) for _ in range(3))
    return draw(st.sampled_from(_maps(a, b))), draw(st.sampled_from(_maps(b, c)))


@settings(max_examples=60, deadline=None)
@given(composable())
def test_trusted_compose_matches_validated_join_map(pair):
    f, g = pair
    assert g.compose(f) == JoinMap(f.src, g.dst, [g(f(t)) for t in range(f.src.n)])


@st.composite
def lin_composable(draw):
    a, b, c = (draw(st.sampled_from(SMALL)) for _ in range(3))
    fs, gs = _maps(a, b), _maps(b, c)
    inner = draw(st.lists(st.tuples(st.sampled_from(fs), coefficients), max_size=4))
    outer = draw(st.lists(st.tuples(st.sampled_from(gs), coefficients), max_size=4))
    if inner:
        # g1 and g2 agree on the image of an inner map, so with opposite
        # coefficients their products with it cancel.
        f = inner[0][0]
        g1 = draw(st.sampled_from(gs))
        twins = [g for g in gs if g != g1 and all(g(v) == g1(v) for v in f.images)]
        g2 = draw(st.sampled_from(twins or [g1]))
        coeff = draw(coefficients)
        outer += [(g1, coeff), (g2, -coeff)]
    return LinMorphism(b, c, outer), LinMorphism(a, b, inner)


def _naive_compose(alpha, beta):
    total = {}
    for g, cg in alpha.terms.items():
        for f, cf in beta.terms.items():
            m = JoinMap(f.src, g.dst, [g(f(t)) for t in range(f.src.n)])
            total[m] = total.get(m, Fraction(0)) + cg * cf
    return {m: c for m, c in total.items() if c}


@settings(max_examples=80, deadline=None)
@given(lin_composable())
def test_lin_compose_matches_naive_bilinear_sum(pair):
    alpha, beta = pair
    product, want = alpha.compose(beta), _naive_compose(alpha, beta)
    assert (product.src, product.dst) == (beta.src, alpha.dst)
    assert product.terms == want
    assert all(type(c) is Fraction and c for c in product.terms.values())
    assert product == LinMorphism(beta.src, alpha.dst, want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_rejects_mismatched_middle_lattice(data):
    a, b, c, d = (data.draw(st.sampled_from(SMALL)) for _ in range(4))
    assume(b != c)
    f = data.draw(st.sampled_from(_maps(a, b)))
    g = data.draw(st.sampled_from(_maps(c, d)))
    with pytest.raises(ValueError, match="middle lattice mismatch"):
        g.compose(f)
    with pytest.raises(ValueError, match="middle lattice mismatch"):
        LinMorphism.of_map(g).compose(LinMorphism.of_map(f))
    with pytest.raises(ValueError, match="middle lattice mismatch"):
        compose_families(Family(c, d, [LinMorphism.of_map(g)]), Family(a, b, []))


# --- the family product -------------------------------------------------------


@st.composite
def family_composable(draw):
    """Two families of 0-3 members of up to 4 drawn terms (denominators
    1/2/3); the first outer member also gets a cancelling twin pair."""
    a, b, c = (draw(st.sampled_from(SMALL)) for _ in range(3))
    fs, gs = _maps(a, b), _maps(b, c)

    def members(maps):
        return [draw(st.lists(st.tuples(st.sampled_from(maps), coefficients), max_size=4))
                for _ in range(draw(st.integers(0, 3)))]

    inner, outer = members(fs), members(gs)
    if outer and inner and inner[0]:
        f = inner[0][0][0]
        g1 = draw(st.sampled_from(gs))
        twins = [g for g in gs if g != g1 and all(g(v) == g1(v) for v in f.images)]
        g2 = draw(st.sampled_from(twins or [g1]))
        coeff = draw(coefficients)
        outer[0] += [(g1, coeff), (g2, -coeff)]
    return (a, b, c, [LinMorphism(b, c, terms) for terms in outer],
            [LinMorphism(a, b, terms) for terms in inner])


@settings(max_examples=80, deadline=None)
@given(family_composable())
def test_family_product_matches_naive_compose_pairwise(case):
    a, b, c, outer, inner = case
    products = compose_families(Family(b, c, outer), Family(a, b, inner))
    assert len(products) == products.nums.shape[0] == len(outer) * len(inner)
    for i, g in enumerate(outer):
        for j, f in enumerate(inner):
            got = products.member(i * len(inner) + j)
            assert (got.src, got.dst) == (a, c)
            assert got.terms == _naive_compose(g, f)
            assert all(type(x) is Fraction and x for x in got.terms.values())


@settings(max_examples=80, deadline=None)
@given(family_composable())
def test_paired_product_matches_naive_compose_member_by_member(case):
    a, b, c, outer, inner = case
    outer, inner = outer[:len(inner)], inner[:len(outer)]
    products = compose_pairs(Family(b, c, outer), Family(a, b, inner))
    assert len(products) == len(outer)
    for i, (g, f) in enumerate(zip(outer, inner)):
        got = products.member(i)
        assert (got.src, got.dst) == (a, c)
        assert got.terms == _naive_compose(g, f)


@settings(max_examples=60, deadline=None)
@given(family_composable())
def test_stacked_families_keep_every_member(case):
    a, b, c, outer, inner = case
    parts = [Family(b, c, outer), Family(b, c, inner and [LinMorphism.zero(b, c)]),
             Family(b, c, outer[::-1])]
    stacked = stack_families(parts)
    members = outer + (inner and [LinMorphism.zero(b, c)]) + outer[::-1]
    assert [stacked.member(k) for k in range(len(stacked))] == members
    assert len({tuple(row) for row in stacked.images.tolist()}) == len(stacked.images)


def test_compose_stays_exact_past_int64(named):
    # every product of two coefficients is near 2^80, far past int64
    b2 = named["b2"]
    maps = _maps(b2, b2)
    big = 2 ** 40
    outer = LinMorphism(b2, b2, [(m, Fraction(big + 7 * k, 1 + k % 2))
                                 for k, m in enumerate(maps[:6])])
    inner = LinMorphism(b2, b2, [(m, -(big - 3 * k)) for k, m in enumerate(maps[1:7])])
    assert (outer @ inner).terms == _naive_compose(outer, inner)
    assert (inner @ outer).terms == _naive_compose(inner, outer)
    paired = compose_pairs(Family(b2, b2, [outer, inner]), Family(b2, b2, [inner, outer]))
    assert [paired.member(i).terms for i in range(2)] == [
        _naive_compose(outer, inner), _naive_compose(inner, outer)]


def _flat(picks, m, k):
    """``picks`` for ``first_product_mismatch`` from one flat pick per
    product of ``m`` outer and ``k`` inner members."""
    table = np.array(picks, np.intp).reshape(m, k)
    return lambda rows: table[rows]


def test_zero_operands_past_int64(named):
    # a zero operand has weight 0, so the bound on the products alone would
    # pick int64 and narrow the other operand's Python ints
    b2 = named["b2"]
    big, zero = 2 ** 70 * LinMorphism.identity(b2), LinMorphism.zero(b2, b2)
    assert (big @ zero).is_zero() and (zero @ big).is_zero()
    # a zero product keeps the denominator 2^70, which int64 cannot hold
    tiny = Family(b2, b2, [Fraction(1, 2 ** 70) * LinMorphism.identity(b2)])
    product = compose_families(tiny, Family(b2, b2, [zero]))
    assert product.dens == [2 ** 70]
    assert first_product_mismatch(tiny, Family(b2, b2, [zero]), product, _flat([-1], 1, 1)) is None


def test_first_mismatch_cross_multiplies_denominators(named):
    b2 = named["b2"]
    one = LinMorphism.identity(b2)
    drop = LinMorphism.of_map(JoinMap.constant_bottom(b2, b2))
    family = Family(b2, b2, [Fraction(1, 3) * one, Fraction(2, 3) * drop])
    halves = Family(b2, b2, [Fraction(1, 2) * one])
    doubled = Family(b2, b2, [2 * one])
    # (1/2 one) after (1/3 one) is 1/6 one, member 0 scaled by 1/2: no match
    assert first_product_mismatch(halves, family, family, _flat([0, 1], 1, 2)) == 0
    # (2 one) after the family: 2/3 one and 4/3 drop
    assert first_product_mismatch(doubled, family, family, _flat([0, 1], 1, 2)) == 0
    thirds = Family(b2, b2, [one])
    assert first_product_mismatch(thirds, family, family, _flat([0, 1], 1, 2)) is None
    assert first_product_mismatch(family, thirds, family, _flat([0, 1], 2, 1)) is None
    assert first_product_mismatch(thirds, family, family, _flat([0, -1], 1, 2)) == 1
    with pytest.raises(ValueError, match="one pick per member"):
        first_product_mismatch(thirds, family, family, lambda rows: np.array([[0]]))


@st.composite
def mismatch_case(draw):
    """Two drawn families, and a family to compare their products with.

    The family holds most of the products (over reduced denominators, where
    the products keep ``den(outer) * den(inner)``), near misses (a product
    scaled and plus a map drawn from the whole Hom-set, which no product
    need produce) and drawn morphisms.  Each product's pick is mostly -1
    (zero), a member equal to it or its near miss."""
    a, b, c, outer, inner = draw(family_composable())
    outer, inner = Family(b, c, outer), Family(a, b, inner)
    products = compose_families(outer, inner)
    exact = [products.member(t) for t in range(len(products))]
    maps = st.sampled_from(_maps(a, c))
    near = [draw(st.sampled_from([1, Fraction(1, 2), 2])) * alpha
            + draw(coefficients) * LinMorphism.of_map(draw(maps)) for alpha in exact]
    members = [alpha for alpha in exact if draw(st.integers(0, 3))]
    members += [miss for miss in near if draw(st.booleans())]
    members += [LinMorphism(a, c, terms) for terms in draw(st.lists(
        st.lists(st.tuples(maps, coefficients), max_size=4), max_size=3))]
    members = draw(st.permutations(members))
    picks = []
    for alpha, miss in zip(exact, near):
        likely = [-1] + [p for p, other in enumerate(members) if other in (alpha, miss)]
        anything = st.integers(-1, len(members) - 1)
        picks.append(draw(st.sampled_from(likely) if draw(st.integers(0, 3)) else anything))
    return a, c, outer, inner, products, members, picks


@settings(max_examples=150, deadline=None)
@given(mismatch_case())
def test_first_mismatch_is_the_first_differing_product(case):
    a, c, outer, inner, products, members, picks = case
    zero = LinMorphism.zero(a, c)
    want = next((t for t, p in enumerate(picks)
                 if products.member(t) != (members[p] if p >= 0 else zero)),
                None)
    got = first_product_mismatch(outer, inner, Family(a, c, members),
                                 _flat(picks, len(outer), len(inner)))
    assert got == want


# --- the fused comparison against LinMorphism.compose, member by member -------


def _reference_mismatch(outer, inner, expected, picks):
    """The first ``i * len(inner) + j`` where ``outer[i] @ inner[j]`` is not
    ``expected[picks[i][j]]`` (zero for a negative pick), one product at a time."""
    for i, g in enumerate(outer):
        for j, f in enumerate(inner):
            p = picks[i][j]
            want = expected[p] if p >= 0 else LinMorphism.zero(f.src, g.dst)
            if g @ f != want:
                return i * len(inner) + j
    return None


def _random_member(rng, src, dst, scale=1, dens=(1, 2, 3, 4)):
    maps = _maps(src, dst)
    return LinMorphism(src, dst, [(rng.choice(maps), Fraction(rng.randint(-3, 3) * scale,
                                                             rng.choice(dens)))
                                  for _ in range(rng.randint(0, 4))])


def _random_case(seed, scale=1, spoil=0.1, most=5):
    """Seeded families over the named lattices of at most five elements:
    ``outer`` (up to ``most`` members), ``inner``, a shuffled ``expected``
    holding the products (a share ``spoil`` of them spoiled) and a few
    strays, and the picks: -1 for half the zero products, else the member
    holding the product."""
    rng = random.Random(seed)
    a, b, c = (rng.choice(SMALL) for _ in range(3))
    outer = [_random_member(rng, b, c, scale) for _ in range(rng.randint(1, most))]
    inner = [_random_member(rng, a, b, scale) for _ in range(rng.randint(1, 5))]
    expected, picks = [], []
    for g in outer:
        picks.append([])
        for f in inner:
            product = g @ f
            if rng.random() < spoil:
                product = product + _random_member(rng, a, c, dens=(1, 5))
            if product.is_zero() and rng.random() < 0.5:
                picks[-1].append(-1)
            else:
                picks[-1].append(len(expected))
                expected.append(product)
    expected += [_random_member(rng, a, c) for _ in range(rng.randint(0, 2))]
    order = list(range(len(expected)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    picks = [[where[p] if p >= 0 else -1 for p in row] for row in picks]
    return outer, inner, [expected[old] for old in order], picks


def _fused(outer, inner, expected, picks):
    """``first_product_mismatch`` on the three lists as families."""
    (a, b), c = (inner[0].src, inner[0].dst), outer[0].dst
    table = np.array(picks, np.intp)
    return first_product_mismatch(Family(b, c, outer), Family(a, b, inner),
                                  Family(a, c, expected), lambda rows: table[rows])


@pytest.mark.parametrize("seed", range(60))
def test_fused_comparison_matches_compose_member_by_member(seed):
    outer, inner, expected, picks = _random_case(seed)
    assert _fused(outer, inner, expected, picks) == _reference_mismatch(outer, inner,
                                                                         expected, picks)


@pytest.mark.parametrize("seed", range(10))
def test_fused_comparison_finds_a_mismatch_in_the_last_member(seed):
    outer, inner, expected, picks = _random_case(seed, spoil=0)
    assert _fused(outer, inner, expected, picks) is None
    last = len(outer) * len(inner) - 1
    product = outer[-1] @ inner[-1]
    stray = LinMorphism.of_map(JoinMap.identity(product.src)) if product.src == product.dst \
        else LinMorphism.of_map(JoinMap.constant_bottom(product.src, product.dst))
    spoiled = expected + [product + Fraction(1, 7) * stray]
    picks[-1][-1] = len(expected)
    assert _fused(outer, inner, spoiled, picks) == last
    if not product.is_zero():       # a negative pick wants zero
        picks[-1][-1] = -1
        assert _fused(outer, inner, expected, picks) == last


def _dtypes(monkeypatch):
    """The dtypes ``first_product_mismatch`` picks, with their bounds."""
    seen, real = [], morphisms_mod._int_dtype

    def spy(bound, least=np.int64):
        out = real(bound, least)
        if least is np.int8:
            seen.append((bound, out))
        return out

    monkeypatch.setattr(morphisms_mod, "_int_dtype", spy)
    return seen


def test_fused_comparison_takes_python_ints_past_int64(monkeypatch):
    # coefficients near 2^62, so products near 2^124: no int64 holds them
    seen = _dtypes(monkeypatch)
    wide = 0
    for seed in range(20):
        outer, inner, expected, picks = _random_case(seed, scale=2 ** 62, spoil=0.05)
        got = _fused(outer, inner, expected, picks)
        assert got == _reference_mismatch(outer, inner, expected, picks)
        if any(g.terms for g in outer) and any(f.terms for f in inner):
            assert seen[-1][1] is object
            wide += 1
    assert wide >= 10


@pytest.mark.parametrize("bound, dtype", [(127, np.int8), (128, np.int16)])
def test_fused_comparison_at_the_int8_int16_boundary(monkeypatch, named, bound, dtype):
    # Denominators 1: the bound is weight(outer) * weight(inner) plus
    # weight(expected), here 3 * 4 plus a stray of weight bound - 12.  The
    # product 12 one against the stray -(bound - 12) one differs by bound.
    seen = _dtypes(monkeypatch)
    b2 = named["b2"]
    one = LinMorphism.identity(b2)
    drop = LinMorphism.of_map(JoinMap.constant_bottom(b2, b2))
    outer, inner = [3 * one, 2 * one - drop], [4 * one, -4 * drop]
    rest = bound - 12
    expected = [g @ f for g in outer for f in inner] + [(rest - 1) * one + drop, -rest * one]
    assert _fused(outer, inner, expected, [[0, 1], [2, 3]]) is None
    for t, spoiled in ((0, 5), (0, 4), (3, 5)):
        picks = [[0, 1], [2, 3]]
        picks[t // 2][t % 2] = spoiled
        assert _fused(outer, inner, expected, picks) == t
        assert _reference_mismatch(outer, inner, expected, picks) == t
    assert seen and all(pair == (bound, dtype) for pair in seen)


@pytest.mark.parametrize("budget", [1, 8, 24])
def test_fused_comparison_in_blocks_split_mid_lattice(monkeypatch, budget):
    # a budget of a few bytes splits the outer members of one product into
    # blocks of at most ``budget`` members; the first mismatch is the same
    # at any split
    monkeypatch.setattr(morphisms_mod, "_TABLE_BYTES", budget)
    splits = 0
    for seed in range(30):
        outer, inner, expected, picks = _random_case(seed, spoil=0.02, most=30)
        table, blocks = np.array(picks, np.intp), []

        def seen(rows):
            blocks.append(rows.stop - rows.start)
            return table[rows]

        (a, b), c = (inner[0].src, inner[0].dst), outer[0].dst
        got = first_product_mismatch(Family(b, c, outer), Family(a, b, inner),
                                     Family(a, c, expected), seen)
        assert got == _reference_mismatch(outer, inner, expected, picks)
        assert max(blocks) <= budget
        splits += len(blocks) > 1
    assert splits >= 10


def _void_unique(rows):
    """Rows keyed by their bytes through ``np.unique``, the old keying."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


@st.composite
def image_rows(draw):
    """Image arrays of 0 to 40 rows, often repeated, up to 12 columns wide."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    width = draw(st.integers(1, 12))
    top = draw(st.sampled_from([1, 3, np.iinfo(dtype).max]))
    row = st.lists(st.integers(0, top), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[p] for p in picks], dtype).reshape(-1, width)


@settings(max_examples=200, deadline=None)
@given(image_rows())
@example(np.zeros((0, 3), np.uint8))
@example(np.array([[2, 0, 1]], np.uint16))
def test_distinct_rows_partitions_like_unique_over_bytes(rows):
    first, key = _distinct_rows(rows.T, len(rows))
    old_first, old_key = _void_unique(rows)
    assert len(first) == len(old_first)
    assert sorted(first.tolist()) == sorted(old_first.tolist())
    # each row goes to the first occurrence of its value, on both sides
    assert first[key].tolist() == old_first[old_key].tolist()
    assert (rows[first[key]] == rows).all()
    # the distinct rows come in strictly increasing lexicographic order
    distinct = [tuple(r) for r in rows[first].tolist()]
    assert all(a < b for a, b in zip(distinct, distinct[1:]))
