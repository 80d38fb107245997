import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfl.catalog import enumerate_lattices, named_lattices
from cfl.lattices import CapExceeded, JoinMap, NotJoinPreserving, chain, join_maps, mobius
from cfl.morphisms import (ChainTuple, Family, LinMorphism, TermNotInBasis, adjoint_op,
                           beta, compose_families, e_t, epsilon, f_dc, j_of_tuple,
                           lambda_of_tuple, lin_to_vector, max_tuple_size, p_tuples,
                           pi_of_tuple, rho_y, tot_basis, y_tuples)


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
        assert j_of_tuple(full) == epsilon(n)


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


def test_f_dc_idempotents_and_products(named):
    m3 = named["m3"]
    tuples = [t for n in range(3) for t in p_tuples(m3, n)]
    for b in tuples:
        fbb = f_dc(b, b)
        assert fbb @ fbb == fbb
    d, c = tuples[1], tuples[2]
    assert f_dc(d, c) @ f_dc(c, d) == f_dc(d, d)
    with pytest.raises(ValueError):
        f_dc(tuples[0], tuples[1])


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
    assert epsilon(1) == (LinMorphism.identity(chain(1))
                          - LinMorphism.of_map(rho_y(1, [])))
    assert epsilon(0) == LinMorphism.identity(chain(0))


def test_top_idempotent_spans_a_line():
    # right multiples of the top block stay on the line it spans
    for n in range(1, 4):
        eps = epsilon(n)
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


def test_lin_to_vector(named):
    b2 = named["b2"]
    basis = tot_basis(b2)
    mob = mobius(b2)
    for b in p_tuples(b2, 1):
        vec = lin_to_vector(f_dc(b, b), basis)
        assert all(v.denominator == 1 for v in vec)
        assert any(v != 0 for v in vec)
        values = sorted({abs(v) for v in vec if v})
        assert values == [1] or values == [1, 2]
    zero = LinMorphism.zero(b2, b2)
    assert lin_to_vector(zero, basis) == [0] * len(basis)
    stranger = LinMorphism.identity(chain(1))
    with pytest.raises(TermNotInBasis):
        lin_to_vector(stranger, basis)


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
    assert products.nums.shape[:2] == (len(outer), len(inner))
    for i, g in enumerate(outer):
        for j, f in enumerate(inner):
            got = products.member(i, j)
            assert (got.src, got.dst) == (a, c)
            assert got.terms == _naive_compose(g, f)
            assert all(type(x) is Fraction and x for x in got.terms.values())


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


def test_first_mismatch_cross_multiplies_denominators(named):
    b2 = named["b2"]
    one = LinMorphism.identity(b2)
    drop = LinMorphism.of_map(JoinMap.constant_bottom(b2, b2))
    family = Family(b2, b2, [Fraction(1, 3) * one, Fraction(2, 3) * drop])
    halves = Family(b2, b2, [Fraction(1, 2) * one])
    doubled = Family(b2, b2, [2 * one])
    # (1/2 one) after (1/3 one) is 1/6 one, member 0 scaled by 1/2: no match
    assert compose_families(halves, family).first_mismatch(family, [0, 1]) == (0, 0)
    # (2 one) after the family: 2/3 one and 4/3 drop
    assert compose_families(doubled, family).first_mismatch(family, [0, 1]) == (0, 0)
    thirds = Family(b2, b2, [one])
    assert compose_families(thirds, family).first_mismatch(family, [0, 1]) is None
    assert compose_families(family, thirds).first_mismatch(family, [0, 1]) is None
    assert compose_families(thirds, family).first_mismatch(family, [0, -1]) == (0, 1)
    with pytest.raises(ValueError, match="one pick per product"):
        compose_families(thirds, family).first_mismatch(family, [0])


@st.composite
def mismatch_case(draw):
    """Products of two drawn families and a family to compare them with.

    The family holds most of the products (over reduced denominators, where
    the products keep ``den(outer) * den(inner)``), near misses (a product
    scaled and plus a map drawn from the whole Hom-set, which no product
    need produce) and drawn morphisms.  Each product's pick is mostly -1
    (zero), a member equal to it or its near miss."""
    a, b, c, outer, inner = draw(family_composable())
    products = compose_families(Family(b, c, outer), Family(a, b, inner))
    exact = [products.member(i, j) for i in range(len(outer)) for j in range(len(inner))]
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
    return a, c, products, members, picks


@settings(max_examples=150, deadline=None)
@given(mismatch_case())
def test_first_mismatch_is_the_first_differing_product(case):
    a, c, products, members, picks = case
    k = products.nums.shape[1]
    zero = LinMorphism.zero(a, c)
    want = next((divmod(t, k) for t, p in enumerate(picks)
                 if products.member(*divmod(t, k)) != (members[p] if p >= 0 else zero)),
                None)
    assert products.first_mismatch(Family(a, c, members), picks) == want
