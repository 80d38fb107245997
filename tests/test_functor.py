import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfl.functor as functor
from cfl.catalog import enumerate_lattices, enumerate_posets, named_lattices
from cfl.exact import (ExactMatrix, PrimeField, RATIONALS, RankStats, _Entries,
                       bareiss_rank_int, subspace_equal)
from cfl.functor import (LatticeFunction, _digits, act, action_index,
                         all_functions, dual_star, fixed_rank,
                         fund_act, gamma_corr, gamma_span_rank, gamma_t,
                         h_quotient_basis, irr_data, orth_check, pairing,
                         pairing_matrix, perm_basis, retraction_exists,
                         star_act, theta_condition_tables,
                         theta_conditions, theta_matrix, theta_rank, total_rank_formula)
from cfl.lattices import (CACHE_SIZE, CapExceeded, LatticeError, Poset, _bits, chain,
                          ideal_lattice, irreducibles, join_maps, lattice_from_json,
                          mobius)
from cfl.relations import Correspondence


@pytest.fixture(scope="module")
def named():
    return named_lattices()


def fn(lat, *values):
    return LatticeFunction(lat, values)


def test_act_identity_and_empty_join(named):
    m3 = named["m3"]
    phi = fn(m3, 1, 4)
    assert act(Correspondence.identity(2), phi) == phi
    none_at_0 = Correspondence.from_pairs(2, 2, [(1, 0), (1, 1)])
    out = act(none_at_0, phi)
    assert out.values == (m3.bottom, m3.join[1][4])


def test_act_composition_law(named):
    rng = random.Random(5)
    for lat in named.values():
        for _ in range(40):
            x, y, z = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            r = Correspondence(y, x, [rng.getrandbits(x) for _ in range(y)])
            s = Correspondence(z, y, [rng.getrandbits(y) for _ in range(z)])
            phi = fn(lat, *[rng.randrange(lat.n) for _ in range(x)])
            assert act(s @ r, phi) == act(s, act(r, phi))


def test_act_shape_mismatch():
    with pytest.raises(ValueError):
        act(Correspondence.identity(3), fn(chain(1), 0, 1))


def test_star_act_examples():
    two = chain(2)
    q = Correspondence.from_pairs(1, 2, [(0, 0), (0, 1)])
    assert star_act(q, fn(two, 1, 2)).values == (1,)
    empty = Correspondence.empty(1, 2)
    assert star_act(empty, fn(two, 1, 2)).values == (two.top,)


def test_function_indexing_round_trip(named):
    for lat in (lat for lat in named.values() if lat.n <= 6):
        for points in range(4):
            funcs = list(all_functions(lat, points))
            assert len(funcs) == lat.n ** points
            for i, f in enumerate(funcs):
                assert f.index == i
                assert tuple(_digits(lat.n, points)[i].tolist()) == f.values


def pushed(r, lat, v):
    """The module element ``v`` acted on by ``r``, through ``action_index``."""
    out = np.zeros(lat.n ** r.dst_size, dtype=np.int64)
    np.add.at(out, action_index(r, lat), v)
    return out


def test_mod_vectors_are_linear():
    two = chain(2)
    v = np.zeros(9, dtype=np.int64)
    v[fn(two, 1, 0).index] += 1
    v[fn(two, 2, 2).index] += 2
    r = Correspondence.from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)])
    expect = np.zeros(9, dtype=np.int64)
    expect[act(r, fn(two, 1, 0)).index] += 1
    expect[act(r, fn(two, 2, 2)).index] += 2
    assert pushed(r, two, v).tolist() == expect.tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_action_index_is_the_scalar_action(data):
    names = sorted(named_lattices())
    lat = named_lattices()[data.draw(st.sampled_from(names))]
    src, dst = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rows = data.draw(st.lists(st.integers(0, (1 << src) - 1), min_size=dst, max_size=dst))
    star = data.draw(st.booleans())
    r = Correspondence(dst, src, rows)
    scalar = star_act if star else act
    image = action_index(r, lat.opposite() if star else lat)
    assert image.dtype == np.int64
    assert image.tolist() == [scalar(r, f).index for f in all_functions(lat, src)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_action_index_composes_as_the_relations_do(data):
    """The image map of a composite is the composite of the image maps, and
    the diagonal's is the identity; over an opposite lattice, for the meet
    action."""
    lat = named_lattices()[data.draw(st.sampled_from(sorted(named_lattices())))]
    if data.draw(st.booleans()):
        lat = lat.opposite()
    x, y, z = (data.draw(st.integers(0, 3)) for _ in range(3))
    r, s = (Correspondence(dst, src, data.draw(st.lists(st.integers(0, (1 << src) - 1),
                                                        min_size=dst, max_size=dst)))
            for dst, src in ((y, x), (z, y)))
    assert np.array_equal(action_index(s @ r, lat), action_index(s, lat)[action_index(r, lat)])
    assert np.array_equal(action_index(Correspondence.identity(x), lat), np.arange(lat.n ** x))


def test_module_elements_share_the_function_cap():
    one = chain(1)
    with pytest.raises(CapExceeded):
        dual_star(LatticeFunction(one, [1] * 15))  # 2^15 functions
    with pytest.raises(CapExceeded):
        gamma_t(chain(6))  # 7^6 functions on its six irreducibles
    for dst, src in ((1, 15), (15, 1)):
        with pytest.raises(CapExceeded):
            action_index(Correspondence.full(dst, src), one)
    # a product past int64 is refused, not wrapped
    with pytest.raises(OverflowError):
        functor._tensor(one, [[2 ** 40, 0], [2 ** 40, 0]])


def test_functions_must_lie_on_the_lattice(named):
    phi = LatticeFunction(named["b2"], [3, 1])
    on_chain3 = LatticeFunction(chain(3), [3, 1])
    with pytest.raises(ValueError, match="upper-ideal lattice"):
        theta_conditions(phi, on_chain3)


def test_gamma_corr_examples(named):
    two = chain(2)
    g = gamma_corr(fn(two, 2))
    assert sorted(g.pairs()) == [(0, 0), (0, 1)]  # both irreducibles sit below 2
    for lat in named.values():
        data = irr_data(lat)
        iota = LatticeFunction(lat, data.elems)
        rop = Correspondence(len(data.elems), len(data.elems), data.sub.down)
        assert gamma_corr(iota) == rop
        for f in all_functions(lat, 1):
            g = gamma_corr(f)
            assert g @ rop == g
            assert act(g, iota) == f


def test_gamma_corr_natural_for_distributive(named):
    b2 = named["b2"]
    for s_rows in itertools.product(range(4), repeat=2):
        s = Correspondence(2, 2, s_rows)
        for f in all_functions(b2, 2):
            assert gamma_corr(act(s, f)) == s @ gamma_corr(f)


def test_gamma_corr_naturality_fails_on_the_diamond(named):
    m3 = named["m3"]
    s = Correspondence.from_pairs(1, 2, [(0, 0), (0, 1)])
    phi = fn(m3, 1, 2)  # two distinct atoms
    assert gamma_corr(act(s, phi)) != s @ gamma_corr(phi)


def test_h_quotient_basis_examples(named):
    assert len(h_quotient_basis(chain(1), 2)) == 3
    for lat in named.values():
        k = len(irreducibles(lat)[0])
        if k >= 1:
            assert h_quotient_basis(lat, k - 1) == []
        if k <= 3 and lat.n ** k <= 20000:
            assert len(h_quotient_basis(lat, k)) == math.factorial(k)


def test_retraction_examples():
    anti2 = enumerate_posets(2)[0]
    assert sorted(anti2.leq.pairs()) == [(0, 0), (1, 1)]
    assert retraction_exists(anti2, anti2.leq)  # S = R retracts via U = R
    full_column = Correspondence.full(1, 2)
    assert not retraction_exists(anti2, full_column)
    chain_p = chain(1).poset
    with pytest.raises(ValueError):
        retraction_exists(chain_p, Correspondence.from_pairs(1, 2, [(0, 0)]))
    s = Correspondence.from_pairs(1, 2, [(0, 0), (0, 1)])
    assert retraction_exists(chain_p, s) is False
    # rows {0,1} and {1}: both principal upper ideals appear
    s_good = Correspondence(2, 2, [0b11, 0b10])
    assert retraction_exists(chain_p, s_good)


def test_retraction_matches_brute_force():
    for p in enumerate_posets(2):
        iup, enc = ideal_lattice(p, "upper")
        for x in (1, 2):
            for f in all_functions(iup, x):
                s = Correspondence(x, 2, [enc[v] for v in f.values])
                brute = any(Correspondence(2, x, rows) @ s == p.leq
                            for rows in itertools.product(range(1 << x), repeat=2))
                assert retraction_exists(p, s) == brute


def test_theta_rank_on_chains():
    for n in range(4):
        for x in range(4):
            assert theta_rank(chain(n), x) == total_rank_formula(n, x)


def test_theta_rank_equals_full_matrix_rank(named):
    for name in ("chain2", "b2", "m3", "n5"):
        lat = named[name]
        for x in range(3):
            assert bareiss_rank_int(theta_matrix(lat, x).tolist()) == theta_rank(lat, x)


def test_theta_rank_prime_field(named):
    b2 = named["b2"]
    assert theta_rank(b2, 2, PrimeField(1000003)) == theta_rank(b2, 2)


def test_theta_rank_invariance(named):
    for x in range(3):
        assert theta_rank(named["m3"], x) == theta_rank(named["b3"], x)


def test_theta_cap():
    with pytest.raises(CapExceeded):
        theta_rank(named_lattices()["b3"], 5)


def test_theta_conditions_all_true_example():
    one = chain(1)
    data = irr_data(one)
    phi = fn(one, 1)
    psi_values = [data.iup_enc.index(data.sub.up[0])]
    psi = LatticeFunction(data.iup, psi_values)
    assert theta_conditions(phi, psi) == (True,) * 6


def test_theta_conditions_empty_ideal_function(named):
    for name in ("chain1", "b2", "m3"):
        lat = named[name]
        data = irr_data(lat)
        empty_idx = data.iup_enc.index(0)
        phi = LatticeFunction(lat, [lat.top])
        psi = LatticeFunction(data.iup, [empty_idx])
        assert theta_conditions(phi, psi) == (False,) * 6


def test_theta_conditions_agree_randomized(named):
    rng = random.Random(11)
    for lat in named.values():
        data = irr_data(lat)
        for _ in range(300):
            x = rng.randint(1, 3)
            phi = LatticeFunction(lat, [rng.randrange(lat.n) for _ in range(x)])
            psi = LatticeFunction(data.iup, [rng.randrange(data.iup.n) for _ in range(x)])
            assert len(set(theta_conditions(phi, psi))) == 1


@pytest.mark.parametrize("points", [0, 1, 2])
def test_condition_tables_match_the_scalar_conditions(named, points):
    """Each table equals ``theta_conditions`` on every pair, including the
    single pair of empty functions at zero points."""
    for name, lat in named.items():
        data = irr_data(lat)
        rows, cols = data.iup.n ** points, lat.n ** points
        want = np.zeros((6, rows, cols), dtype=bool)
        for r, psi in enumerate(_digits(data.iup.n, points).tolist()):
            for c, phi in enumerate(_digits(lat.n, points).tolist()):
                want[:, r, c] = theta_conditions(LatticeFunction(lat, phi),
                                                 LatticeFunction(data.iup, psi))
        tables = list(theta_condition_tables(lat, points))
        assert len(tables) == 6
        for letter, table, expected in zip("abcdef", tables, want):
            assert table.dtype == bool and table.shape == (rows, cols), (name, letter)
            assert np.array_equal(table, expected), (name, points, letter)


def test_condition_tables_equal_the_kernel_system_at_three_points(named):
    """Dropping the pointwise order from (e) or (f) first shows at three
    points (on chain2 and b2)."""
    for lat in named.values():
        system = theta_matrix(lat, 3)
        for table in theta_condition_tables(lat, 3):
            assert np.array_equal(table, system)


def test_condition_tables_share_the_cap():
    one = {"size": 1, "leq": []}
    with pytest.raises(CapExceeded):
        next(theta_condition_tables(lattice_from_json(one), 34))


@pytest.mark.parametrize("build", [theta_matrix,
                                   lambda lat, x: next(theta_condition_tables(lat, x))],
                         ids=["theta_matrix", "theta_condition_tables"])
def test_dense_builders_cap_their_cells_before_allocating(build):
    # chain2 at nine points has 3^9 functions on each side, within the
    # function cap; the 19683 x 19683 table is refused before it is built.
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="19683 x 19683"):
        build(chain(2), 9)
    assert time.perf_counter() - start < 1


def test_pairing_examples():
    one = chain(1)
    assert pairing(fn(one, 1, 0), fn(one, 1, 0)) == 1
    assert pairing(fn(one, 1), fn(one, 0)) == 0
    m = pairing_matrix(one, 1)
    assert m.tolist() == [[1, 1], [0, 1]]


def test_pairing_matrix_is_invertible(named):
    for name in ("chain1", "chain2", "b2"):
        lat = named[name]
        m = pairing_matrix(lat, 2)
        assert bareiss_rank_int(m.tolist()) == lat.n ** 2


def test_dual_star_examples():
    one = chain(1)
    star = dual_star(fn(one, 1))
    assert star.dtype == np.int64
    assert {tuple(_digits(2, 1)[i].tolist()): int(star[i]) for i in np.flatnonzero(star)} == {
        (1,): 1, (0,): -1}
    m3 = named_lattices()["m3"]  # mu(0, top) = 2: three atoms below the top
    star = dual_star(fn(m3, 4, 1))
    assert {tuple(_digits(5, 2)[i].tolist()): int(star[i]) for i in np.flatnonzero(star)} == {
        (4, 1): 1, (1, 1): -1, (2, 1): -1, (3, 1): -1, (0, 1): 2,
        (4, 0): -1, (1, 0): 1, (2, 0): 1, (3, 0): 1, (0, 0): -2}
    bottom = fn(one, 0, 0)
    basis = np.zeros(4, dtype=np.int64)
    basis[bottom.index] = 1
    assert np.array_equal(dual_star(bottom), basis)


def test_dual_basis_property(named):
    for name, points in itertools.product(("chain2", "b2"), (1, 2)):
        lat = named[name]
        funcs = list(all_functions(lat, points))
        for phi in funcs:
            star = dual_star(phi)
            for lam in funcs:
                value = sum(star[rho.index] for rho in funcs if pairing(lam, rho))
                assert value == (1 if lam == phi else 0)


def test_gamma_t_examples(named):
    two = chain(2)
    g = gamma_t(two)
    coeffs = {tuple(_digits(two.n, 2)[i].tolist()): int(g[i]) for i in np.flatnonzero(g)}
    assert coeffs == {(1, 2): 1, (0, 2): -1, (1, 1): -1, (0, 1): 1}
    for lat in named.values():
        data = irr_data(lat)
        if lat.n ** len(data.elems) > 20000:
            continue
        g = gamma_t(lat)
        assert np.array_equal(g, dual_star(LatticeFunction(lat, data.elems)))
        assert np.array_equal(pushed(data.sub.leq, lat.opposite(), g), g)


def test_gamma_span_rank_on_chains():
    for n in range(3):
        for x in range(3):
            assert gamma_span_rank(chain(n), x) == total_rank_formula(n, x)


def test_gamma_span_rank_invariance(named):
    for x in range(3):
        assert gamma_span_rank(named["m3"], x) == gamma_span_rank(named["b3"], x)


def test_orth_check_small(named):
    assert orth_check(chain(1), 1) and orth_check(chain(1), 2)
    assert orth_check(named["b2"], 2)
    assert orth_check(named["m3"], 1)


def _orth_reference(lattice, points, ring):
    """``orth_check`` by its definition: the nullspace of the generators
    paired with every function (an explicit loop over the order) against the
    nullspace of the kernel system, both by exact row reduction."""
    size = lattice.n ** points
    gens = functor.gamma_entries(lattice, points).dense().tolist()
    values = _digits(lattice.n, points).tolist()
    func_rows = []
    for g in gens:
        row = []
        for v in values:
            acc = 0
            for j, c in enumerate(g):
                if c and all(lattice.le(a, b) for a, b in zip(v, values[j])):
                    acc += c
            row.append(acc)
        func_rows.append(row)
    complement = ExactMatrix(func_rows, cols=size, ring=ring).nullspace()
    kernel = ExactMatrix(theta_matrix(lattice, points).tolist(), cols=size,
                         ring=ring).nullspace()
    return subspace_equal(complement, kernel, size, ring)


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(1000003)], ids=["rat", "p"])
def test_orth_check_matches_the_nullspace_reference(named, ring):
    for lat in named.values():
        for x in (1, 2):
            want = _orth_reference(lat, x, ring)
            assert want
            assert orth_check(lat, x, ring) == want


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(1000003)], ids=["rat", "p"])
def test_orth_check_fails_without_the_dual_copy(monkeypatch, ring):
    def no_generators(lattice, points):
        nowhere = np.zeros(0, dtype=np.int64)
        return _Entries((0, lattice.n ** points), nowhere, nowhere, np.zeros(0, dtype=np.int8))

    monkeypatch.setattr(functor, "gamma_entries", no_generators)
    assert not _orth_reference(chain(1), 1, ring)
    assert not orth_check(chain(1), 1, ring)


def test_fund_act_examples():
    ident = Correspondence.identity(2)
    r_delta = Poset.antichain(2)
    assert fund_act(ident, (0, 1), r_delta) == (0, 1)
    full = Correspondence.full(2, 2)
    assert fund_act(full, (0, 1), r_delta) is None
    swap = Correspondence.from_pairs(2, 2, [(1, 0), (0, 1)])
    assert fund_act(swap, (0, 1), r_delta) == (1, 0)


def test_fund_act_respects_composition():
    rng = random.Random(3)
    posets = enumerate_posets(3)
    for _ in range(200):
        p = rng.choice(posets)
        q1 = Correspondence(3, 3, [rng.getrandbits(3) for _ in range(3)])
        q2 = Correspondence(3, 3, [rng.getrandbits(3) for _ in range(3)])
        sigma = rng.choice(perm_basis(3))
        image = fund_act(q2, sigma, p)
        after = None if image is None else fund_act(q1, image, p)
        assert fund_act(q1 @ q2, sigma, p) == after


def _graph(tau):
    """The graph ``{(tau(x), x)}`` of a permutation, as a relation."""
    return Correspondence.from_pairs(len(tau), len(tau), ((y, x) for x, y in enumerate(tau)))


def _squeezed_image(q, sigma, p):
    """The action read off the relations layer: ``tau sigma`` for the unique
    ``tau`` with ``delta(tau) <= q <= delta(tau sigma) leq delta(sigma)^op``,
    ``delta`` being ``_graph``, or None when there is no such ``tau``."""
    images = []
    for tau in perm_basis(p.n):
        tau_sigma = tuple(tau[s] for s in sigma)
        if _graph(tau) <= q <= _graph(tau_sigma) @ p.leq @ _graph(sigma).opposite():
            images.append(tau_sigma)
    return images[0] if len(images) == 1 else None


def test_fund_act_matches_the_squeeze_at_two_points():
    for p in enumerate_posets(2):
        for rows in itertools.product(range(4), repeat=2):
            q = Correspondence(2, 2, rows)
            for sigma in perm_basis(2):
                assert fund_act(q, sigma, p) == _squeezed_image(q, sigma, p)


def test_fund_act_matches_the_squeeze_at_three_points():
    rng = random.Random(19)
    posets = enumerate_posets(3)
    for _ in range(600):
        p = rng.choice(posets)
        q = Correspondence(3, 3, [rng.getrandbits(3) for _ in range(3)])
        sigma = rng.choice(perm_basis(3))
        assert fund_act(q, sigma, p) == _squeezed_image(q, sigma, p)


def _searched_image(q, sigma, p):
    """The action found by trying every basis permutation ``tau`` against the
    squeeze, one row of ``q`` at a time; the squeezing ``tau`` is unique."""
    inverse = {tau: tuple(sorted(range(p.n), key=tau.__getitem__)) for tau in perm_basis(p.n)}
    sigma_inv = inverse[tuple(sigma)]
    found = [tau for tau, tau_inv in inverse.items()
             if all(q.rows[tau[x]] >> x & 1 for x in range(p.n))
             and all(p.up[sigma_inv[tau_inv[y]]] >> sigma_inv[x] & 1
                     for y in range(p.n) for x in _bits(q.rows[y]))]
    assert len(found) <= 1
    return tuple(found[0][x] for x in sigma) if found else None


def test_fund_act_matches_the_search_up_to_three_points():
    for e in range(4):
        basis = perm_basis(e)
        for p in enumerate_posets(e):
            for rows in itertools.product(range(1 << e), repeat=e):
                q = Correspondence(e, e, rows)
                for sigma in basis:
                    assert fund_act(q, sigma, p) == _searched_image(q, sigma, p)


def test_fund_act_matches_the_search_at_four_points():
    rng = random.Random(28)
    posets, basis = enumerate_posets(4), perm_basis(4)
    images = set()
    for _ in range(3000):
        p = rng.choice(posets)
        # rows of one or two bits, so that a fair share of the samples survive
        q = Correspondence(4, 4, [1 << rng.randrange(4) | 1 << rng.randrange(4)
                                  for _ in range(4)])
        sigma = rng.choice(basis)
        image = fund_act(q, sigma, p)
        assert image == _searched_image(q, sigma, p)
        images.add(image)
    assert None in images and len(images) > 2


def test_fund_act_on_the_empty_order():
    empty = enumerate_posets(0)[0]
    assert fund_act(Correspondence.identity(0), (), empty) == ()


@pytest.mark.parametrize("sigma", [(0,), (0, 1, 2), (0, 0), (1, 2)])
def test_fund_act_rejects_a_basis_outside_the_module(sigma):
    with pytest.raises(ValueError):
        fund_act(Correspondence.identity(2), sigma, Poset.antichain(2))


def test_fund_act_requires_an_order():
    # fund_act takes a Poset, and only an order makes one
    with pytest.raises(LatticeError):
        Poset(Correspondence.full(2, 2))


def test_fixed_rank_examples():
    one_point = enumerate_posets(1)[0]
    assert fixed_rank(chain(1), one_point) == 2
    assert fixed_rank(chain(2), one_point) == 3


def test_fixed_rank_counts_join_maps(named):
    targets = [chain(1), chain(2), named["b2"]]
    for p in enumerate_posets(2):
        idl, _ = ideal_lattice(p, "lower")
        for target in targets:
            assert fixed_rank(target, p) == len(join_maps(idl, target))


def test_total_rank_formula_examples():
    assert total_rank_formula(2, 2) == 2
    assert total_rank_formula(1, 2) == 3
    assert total_rank_formula(0, 5) == 1
    assert total_rank_formula(3, 2) == 0  # fewer points than irreducibles


def test_one_point_lattice_rank_is_one():
    for x in range(4):
        assert theta_rank(chain(0), x) == 1
        assert gamma_span_rank(chain(0), x) == 1


@pytest.mark.parametrize("name, rank_fn, points, cap, want", [
    ("chain3", theta_rank, 6, 20000, 2100),
    ("b2", gamma_span_rank, 6, 20000, 2702),
    ("m3", theta_rank, 5, 40000, 750),
    ("n5", gamma_span_rank, 5, 20000, 750),
])
def test_large_ranks_are_certified_mod_p(named, name, rank_fn, points, cap, want):
    # The largest systems cfl ranks routinely; each one is full rank after
    # pruning.  chain3's has no singleton line, so elimination must settle
    # it, and it is full rank already mod 2; the others peel to nothing.
    stats = RankStats()
    assert rank_fn(named[name], points, cap=cap, stats=stats) == want
    if name == "chain3":
        assert stats.path == "modp-certified" and stats.peeled == 0 and stats.prime == 2
    else:
        assert stats.path == "structural" and stats.peeled == want and stats.prime is None


def test_b2_theta_seven_is_settled_by_peeling(named):
    # A 12138 x 12138 system, which mod-p elimination alone took minutes to
    # rank: every pivot is a singleton line, found in about a second.
    stats = RankStats()
    assert theta_rank(named["b2"], 7, stats=stats) == 12138
    assert stats.path == "structural" and stats.peeled == 12138
    assert stats.shape == (12138, 12138)


def test_per_lattice_caches_stay_bounded():
    lattices = list(enumerate_lattices(5))
    assert len(lattices) > CACHE_SIZE
    for lat in lattices:
        irr_data(lat)
        mobius(lat)
        functor._order_table(lat)
    for cached in (irr_data, mobius, chain, functor._order_table):
        info = cached.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize <= CACHE_SIZE


def test_tables_are_cached_read_only():
    digits = _digits(3, 2)
    assert _digits(3, 2) is digits and not digits.flags.writeable
    assert functor._covering_digits(3, 2, ()) is digits  # no target: the one cached table
    order = functor._order_table(chain(2))
    assert functor._order_table(chain(2)) is order and not order.flags.writeable
    for table in (digits, order):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_digits_match_the_closed_form():
    # Digit x of index i is i // n^x % n, on every table of at most 20000
    # rows.
    for n in range(1, 7):
        for points in range(6):
            if n ** points > 20000:
                continue
            index = np.arange(n ** points, dtype=np.int64)
            want = index[:, None] // n ** np.arange(points, dtype=np.int64) % n
            got = _digits(n, points)
            assert got.shape == (n ** points, points) and got.dtype == np.int64
            assert np.array_equal(got, want)


def test_subset_ors_match_the_recurrence(named):
    # The recurrence the naturality search ran on its own, in int64: row m
    # extends row m without its top point by that point's down-masks.
    for lat in named.values():
        down = np.array(irr_data(lat).down_irr, dtype=np.int64)
        for points in range(4):
            phi = _digits(lat.n, points)
            want = np.zeros((1 << points, len(phi)), dtype=np.int64)
            for u in range(points):
                want[1 << u:2 << u] = want[:1 << u] | down[phi[:, u]]
            got = functor._subset_ors(lat, phi)
            assert got.dtype.kind == "u" and np.array_equal(got, want)
