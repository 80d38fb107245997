import itertools
import json
import random

import pytest

from cfl.catalog import (enumerate_lattices, enumerate_posets, named_lattices,
                         product_lattice)
from cfl.functor import irr_data, theta_rank
from cfl.lattices import (BottomNotPreserved, CapExceeded, JoinMap, Lattice,
                          LatticeError, NoJoin, NoMeet, NotAntisymmetric,
                          NotJoinPreserving,
                          Poset, canonical_surjection, chain, derived_lattices,
                          ideal_lattice, irreducibles, is_distributive,
                          join_maps, lattice_from_json, lattice_from_leq,
                          lattice_to_json, lattices_isomorphic, mobius,
                          poset_from_json, posets_isomorphic, principal_embed,
                          r_of)
from cfl.relations import Correspondence, reflexive_transitive_closure


@pytest.fixture(scope="module")
def named():
    return named_lattices()


def test_two_chain():
    lat = lattice_from_leq(2, [(0, 1)])
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join[0][1] == 1 and lat.meet[0][1] == 0


def test_square_lattice():
    lat = lattice_from_leq(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert lat.join[1][2] == 3 and lat.meet[1][2] == 0
    assert is_distributive(lat)


def test_bowtie_has_no_join():
    with pytest.raises(NoJoin) as err:
        lattice_from_leq(4, [(0, 1), (0, 2)])
    assert err.value.pair == (1, 2)


def test_no_meet_reported():
    # two minimal elements below a common top
    with pytest.raises(NoMeet) as err:
        lattice_from_leq(3, [(0, 2), (1, 2)])
    assert err.value.pair == (0, 1)


def test_antisymmetry_failure_named():
    with pytest.raises(NotAntisymmetric) as err:
        lattice_from_leq(3, [(0, 1), (1, 0), (0, 2)])
    assert err.value.pair == (0, 1)


# Every path from generating pairs to an order, each ending in Poset(leq).
_ORDER_BUILDERS = {
    "Poset": lambda n, pairs: Poset(reflexive_transitive_closure(
        Correspondence.from_pairs(n, n, pairs))),
    "Poset.from_pairs": Poset.from_pairs,
    "lattice_from_leq": lattice_from_leq,
    "poset_from_json": lambda n, pairs: poset_from_json(
        {"size": n, "leq": [list(p) for p in pairs]}),
}


@pytest.mark.parametrize("build", _ORDER_BUILDERS.values(), ids=_ORDER_BUILDERS.keys())
@pytest.mark.parametrize("n, pairs, first", [
    (2, [(0, 1), (1, 0)], (0, 1)),
    (3, [(0, 1), (1, 2), (2, 0)], (0, 1)),
    (4, [(0, 1), (2, 3), (3, 2)], (2, 3)),
    (4, [(3, 1), (1, 3), (2, 1), (0, 2)], (1, 3)),
    (5, [(4, 2), (2, 0), (0, 4), (1, 3)], (0, 2)),
], ids=["two-cycle", "three-cycle", "upper-two-cycle", "cycle-above-a-chain", "late-cycle"])
def test_every_constructor_reports_the_same_antisymmetry_pair(build, n, pairs, first):
    with pytest.raises(NotAntisymmetric) as err:
        build(n, pairs)
    a, b = first
    assert err.value.pair == first
    assert str(err.value) == f"not antisymmetric: {a} <= {b} and {b} <= {a}"


def test_the_antisymmetry_pair_is_the_first_two_cycle_on_three_points():
    for rows in itertools.product(range(8), repeat=3):
        pairs = list(Correspondence(3, 3, rows).pairs())
        closed = reflexive_transitive_closure(Correspondence(3, 3, rows))
        cycles = [(a, b) for a in range(3) for b in range(a + 1, 3)
                  if (a, b) in closed and (b, a) in closed]
        for build in _ORDER_BUILDERS.values():
            try:
                build(3, pairs)
                found = None
            except NotAntisymmetric as err:
                found = err.pair
            except (NoJoin, NoMeet):  # an order that is not a lattice
                found = None
            assert found == (cycles[0] if cycles else None)


@pytest.mark.parametrize("pairs, flags", [
    ([(0, 1)], "reflexive=False, transitive=True, antisymmetric=True"),
    ([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)],
     "reflexive=True, transitive=False, antisymmetric=True"),
    ([(0, 1), (1, 0)], "reflexive=False, transitive=False, antisymmetric=False"),
], ids=["not-reflexive", "not-transitive", "not-a-preorder"])
def test_a_relation_that_is_not_a_preorder_names_its_flags(pairs, flags):
    with pytest.raises(LatticeError) as err:
        Poset(Correspondence.from_pairs(3, 3, pairs))
    assert type(err.value) is LatticeError
    assert str(err.value) == f"relation is not a partial order: OrderFlags({flags})"


def test_join_meet_laws(named):
    for lat in named.values():
        for a in range(lat.n):
            assert lat.join[a][a] == a and lat.meet[a][a] == a
            assert lat.join[a][lat.bottom] == a
            assert lat.meet[a][lat.top] == a
            for b in range(lat.n):
                assert lat.join[a][b] == lat.join[b][a]
                assert lat.meet[a][lat.join[a][b]] == a  # absorption
                assert lat.join[a][lat.meet[a][b]] == a
                for c in range(lat.n):
                    assert lat.join[lat.join[a][b]][c] == lat.join[a][lat.join[b][c]]


def test_irreducibles_of_chain():
    for n in range(5):
        elems, sub = irreducibles(chain(n))
        assert elems == list(range(1, n + 1))
        assert all(sub.le(a, b) for a in range(n) for b in range(a, n))


def test_irreducibles_of_square_and_diamond(named):
    elems, sub = irreducibles(named["b2"])
    assert elems == [1, 2]
    assert not sub.le(0, 1) and not sub.le(1, 0)
    elems, sub = irreducibles(named["m3"])
    assert elems == [1, 2, 3]
    assert all(not sub.le(a, b) for a in range(3) for b in range(3) if a != b)


def test_r_of_examples():
    two = chain(2)
    assert r_of(two, 2) == 1 and r_of(two, 1) == 0 and r_of(two, 0) == 0
    b2 = named_lattices()["b2"]
    assert r_of(b2, 1) == 0 and r_of(b2, 2) == 0
    assert r_of(b2, 3) == 3  # the top is the join of the two atoms


def test_ideal_lattice_of_antichains():
    lat, enc = ideal_lattice(Poset.antichain(2))
    assert lat.n == 4 and list(enc) == [0, 1, 2, 3]
    assert lattices_isomorphic(lat, named_lattices()["b2"])
    lat3, enc3 = ideal_lattice(Poset.antichain(3))
    assert lat3.n == 8


def test_ideal_lattice_of_chain():
    lat, enc = ideal_lattice(chain(1).poset)
    assert lat.n == 3
    assert lattices_isomorphic(lat, chain(2))
    assert list(enc) == [0b00, 0b01, 0b11]


def test_ideal_lattice_direction():
    p = Poset.from_pairs(2, [(0, 1)])
    up_lat, up_enc = ideal_lattice(p, "upper")
    dn_lat, dn_enc = ideal_lattice(p.opposite(), "lower")
    assert up_enc == dn_enc and up_lat == dn_lat
    with pytest.raises(ValueError):
        ideal_lattice(p, "sideways")


def _assert_same_poset(trusted, validated):
    assert trusted == validated and hash(trusted) == hash(validated)
    assert (trusted.n, trusted.up, trusted.down) == (validated.n, validated.up,
                                                    validated.down)


def test_trusted_builds_equal_validated_ones():
    for n in range(5):
        _assert_same_poset(Poset.antichain(n), Poset(Correspondence.identity(n)))
    for p in enumerate_posets(4):
        _assert_same_poset(p.opposite(), Poset(p.leq.opposite()))
        strict = [(a, b) for a, b in p.leq.pairs() if a != b]
        _assert_same_poset(Poset.from_pairs(4, strict), Poset(p.leq))
        for elements in ([3, 1, 0, 2], [2, 0], [1], []):
            pairs = [(i, j) for i, a in enumerate(elements)
                     for j, b in enumerate(elements) if p.le(a, b)]
            k = len(elements)
            _assert_same_poset(p.restrict(elements),
                               Poset(Correspondence.from_pairs(k, k, pairs)))
        for direction in ("lower", "upper"):
            ideals = ideal_lattice(p, direction)[0].poset
            _assert_same_poset(ideals, Poset(ideals.leq))


def _scan_lattice(p):
    """The oracle: each join and meet by scanning the masked subset for the
    member whose up-set (down-set) covers it, in the constructor's pair
    order.  Returns (join, meet, bottom, top), or the failure's (class,
    message, pair)."""
    def least(rows, mask):
        return next((u for u in range(p.n) if mask >> u & 1 and mask & ~rows[u] == 0), None)

    if p.n == 0:
        return LatticeError, "a lattice needs at least one element", None
    join = [[0] * p.n for _ in range(p.n)]
    meet = [[0] * p.n for _ in range(p.n)]
    for b in range(p.n):
        for a in range(b + 1):
            j = least(p.up, p.up[a] & p.up[b])
            if j is None:
                return NoJoin, str(NoJoin(a, b)), (a, b)
            m = least(p.down, p.down[a] & p.down[b])
            if m is None:
                return NoMeet, str(NoMeet(a, b)), (a, b)
            join[a][b] = join[b][a] = j
            meet[a][b] = meet[b][a] = m
    bottom = next(e for e in range(p.n) if all(meet[e][x] == e for x in range(p.n)))
    top = next(e for e in range(p.n) if all(join[e][x] == e for x in range(p.n)))
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), bottom, top


def _random_orders(count, max_points, seed):
    """Seeded random orders on 1..max_points points, every other one bounded
    (first label below and last label above all), so that many are lattices."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, max_points)
        labels = rng.sample(range(n), n)
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4 or t % 2 and (i == 0 or j == n - 1)]
        yield Poset.from_pairs(n, pairs)


def test_lattice_tables_match_the_subset_scan():
    posets = [p for k in range(6) for p in enumerate_posets(k)]
    posets += _random_orders(2600, 7, seed=34)
    for p in posets:
        expected = _scan_lattice(p)
        try:
            lat = Lattice(p)
        except LatticeError as err:
            assert (type(err), str(err), err.pair) == expected
        else:
            assert (lat.join, lat.meet, lat.bottom, lat.top) == expected


def test_derived_posets_carry_their_down_rows():
    def check(p):
        assert type(p.down) is tuple and type(p.up) is tuple
        assert p.down == p.leq.opposite().rows
        assert p == Poset(p.leq)

    for k in range(6):
        for p in enumerate_posets(k):
            check(p)
            check(p.opposite())
            for direction in ("lower", "upper"):
                check(ideal_lattice(p, direction)[0].poset)
            if k == 5:
                check(p.restrict([4, 1, 3]))
    for lat in enumerate_lattices(5):
        check(lat.poset)


def test_restrict_refuses_a_repeated_element():
    with pytest.raises(ValueError, match="repeated"):
        chain(2).poset.restrict([0, 0])


@pytest.mark.parametrize("elements, outside", [([0, 5], 5), ([-1], -1)])
def test_restrict_refuses_an_element_outside_the_poset(elements, outside):
    with pytest.raises(ValueError, match=f"element {outside} is not one of the poset's 2 elements"):
        Poset.antichain(2).restrict(elements)


def test_ideal_masks_match_the_subset_scan():
    for n in range(5):
        for p in enumerate_posets(n):
            for direction, down in (("lower", p.down), ("upper", p.up)):
                scan = [m for m in range(1 << n)
                        if all(down[e] & ~m == 0 for e in range(n) if m >> e & 1)]
                assert list(ideal_lattice(p, direction)[1]) == scan


def test_ideal_scan_stops_past_the_lattice_limit():
    # All 2^12 subsets of a 12-point antichain are ideals.  The scan must
    # stop listing them past 64, and still count them for the message.
    reads = []

    class Counted(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    anti = Poset.antichain(12)
    anti.down, anti.up = Counted(anti.down), Counted(anti.up)
    with pytest.raises(CapExceeded, match="4096 ideals exceed the 64-element lattice limit"):
        ideal_lattice(anti)
    assert len(reads) < 200


def test_principal_embed_examples():
    p = Poset.from_pairs(2, [(0, 1)])
    lat, enc = ideal_lattice(p)
    embed = principal_embed(p)
    assert [enc[i] for i in embed] == [0b01, 0b11]
    anti = Poset.antichain(3)
    lat, enc = ideal_lattice(anti)
    assert [enc[i] for i in principal_embed(anti)] == [1, 2, 4]


def test_principal_embed_hits_the_irreducibles():
    for p in enumerate_posets(4):
        lat, _ = ideal_lattice(p)
        elems, sub = irreducibles(lat)
        assert sorted(principal_embed(p)) == elems
        assert posets_isomorphic(sub, p)


def test_distributivity(named):
    assert is_distributive(named["b3"])
    assert not is_distributive(named["m3"])
    assert not is_distributive(named["n5"])


def test_mobius_chain_and_square(named):
    two = mobius(chain(2))
    assert two[0, 1] == -1 and two[0, 2] == 0 and two[0, 0] == 1
    assert mobius(named["b2"])[0, 3] == 1
    assert (0, 3) in mobius(named["b2"]) and (3, 0) not in mobius(named["b2"])


def test_mobius_recursion_sums_to_zero(named):
    for lat in named.values():
        mob = mobius(lat)
        for a in range(lat.n):
            for b in range(lat.n):
                if a != b and lat.le(a, b):
                    total = sum(mob[a, c] for c in range(lat.n)
                                if lat.le(a, c) and lat.le(c, b))
                    assert total == 0


def test_canonical_surjection_on_distributive(named):
    srj = canonical_surjection(named["b2"])
    assert srj.is_surjective() and srj.src.n == named["b2"].n
    assert lattices_isomorphic(srj.src, named["b2"])


def test_canonical_surjection_on_diamond(named):
    srj = canonical_surjection(named["m3"])
    assert srj.src.n == 8 and srj.dst.n == 5
    assert srj.is_surjective()
    hits_top = [i for i in range(8) if srj.images[i] == named["m3"].top]
    assert len(hits_top) == 4  # the three two-subsets and the full set


def test_canonical_surjection_trivial():
    srj = canonical_surjection(chain(0))
    assert srj.src.n == 1 and srj.images == (0,)


def test_derived_lattices(named):
    der = derived_lattices(chain(1))
    assert der.boolean.n == 4
    assert der.upsilon.images == (0, 0, 1, 1)  # {}, {0}, {1}, {0,1}
    assert lattices_isomorphic(chain(3).opposite(), chain(3))
    assert lattices_isomorphic(named["m3"].opposite(), named["m3"])
    with pytest.raises(CapExceeded):
        derived_lattices(named_lattices()["chain6"])


def test_join_map_validation(named):
    b2 = named["b2"]
    JoinMap.identity(b2)
    JoinMap.constant_bottom(b2, b2)
    JoinMap(b2, b2, [0, 2, 1, 3])  # swap the atoms
    with pytest.raises(NotJoinPreserving):
        JoinMap(b2, b2, [0, 1, 2, 1])  # top to an atom, atoms fixed
    with pytest.raises(BottomNotPreserved):
        JoinMap(b2, b2, [1, 1, 3, 3])


def test_join_map_composition_and_image(named):
    b2 = named["b2"]
    swap = JoinMap(b2, b2, [0, 2, 1, 3])
    assert swap @ swap == JoinMap.identity(b2)
    assert swap.image_set() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        swap.compose(JoinMap.identity(chain(1)))


def test_join_maps_enumeration_matches_filter():
    maps = join_maps(chain(1), chain(2))
    assert len(maps) == 3  # the generator can go to 0, 1 or 2


def _brute_join_maps(src, dst):
    """Every image tuple in lexicographic order, kept when ``JoinMap``
    accepts it: the scan ``join_maps`` replaced, kept as its oracle."""
    out = []
    for images in itertools.product(range(dst.n), repeat=src.n):
        try:
            out.append(JoinMap(src, dst, images))
        except LatticeError:
            pass
    return out


def test_join_maps_extend_the_irreducibles_as_the_brute_scan_finds(named):
    # b2 with its top labelled 1, so a join is listed before the atoms it joins
    top_first = lattice_from_leq(4, [(0, 2), (0, 3), (2, 1), (3, 1)])
    lattices = list(named.values()) + [chain(0), chain(1), top_first]
    for src in lattices:
        for dst in lattices:
            if dst.n ** src.n <= 2 ** 12:
                assert join_maps(src, dst) == _brute_join_maps(src, dst)


def _monotone_maps_of_irreducibles(src, dst):
    """The maps from ``src``'s irreducibles to ``dst`` that keep their order:
    as many as the join-maps out of a distributive ``src``, each the
    extension of one by joins."""
    elems, _ = irreducibles(src)
    return sum(all(dst.le(f[i], f[j]) for i, a in enumerate(elems)
                   for j, b in enumerate(elems) if src.le(a, b))
               for f in itertools.product(range(dst.n), repeat=len(elems)))


def test_join_maps_scan_the_choices_for_the_irreducibles(named):
    # 8^8 maps each, but only 8^3 and 8^4 choices to scan
    grid = product_lattice(chain(1), chain(3))
    for lat, count in ((named["b3"], 512), (grid, 640)):
        assert len(join_maps(lat, lat)) == count == _monotone_maps_of_irreducibles(lat, lat)
    for src in (named["b3"], grid):
        for dst in (chain(1), chain(2)):
            assert join_maps(src, dst) == _brute_join_maps(src, dst)
            assert len(join_maps(src, dst)) == _monotone_maps_of_irreducibles(src, dst)


def test_join_maps_refuses_oversized_scans():
    # chain(7) has 7 irreducibles, so 8^7 choices; refused before any is tried
    with pytest.raises(CapExceeded, match="8\\^7"):
        join_maps(chain(7), chain(7))


def test_opposite_swaps_tables(named):
    m3 = named["m3"]
    op = m3.opposite()
    assert op.bottom == m3.top and op.top == m3.bottom
    assert op.join == m3.meet and op.meet == m3.join
    assert op.opposite() == m3


def test_opposite_is_built_once_and_never_points_back(named):
    # The cache points one way: the opposite of the opposite is computed,
    # so involution checks compare two lattices that were built.
    for name, lat in named.items():
        op = lat.opposite()
        assert lat.opposite() is op, name
        assert op.opposite() == lat, name
        assert op.opposite() is not lat, name


def test_lattice_isomorphism_rejects(named):
    assert not lattices_isomorphic(named["m3"], named["n5"])
    assert not lattices_isomorphic(chain(2), chain(3))


def test_json_round_trip(named):
    for name, lat in named.items():
        blob = lattice_to_json(lat, names=[f"e{i}" for i in range(lat.n)])
        again = lattice_from_json(json.loads(json.dumps(blob)))
        assert again == lat
        assert blob["bottom"] == lat.bottom and blob["top"] == lat.top
        assert blob["distributive"] == is_distributive(lat)
        assert blob["irreducibles"] == irreducibles(lat)[0]


def test_json_reflexive_pairs_optional():
    a = lattice_from_json({"size": 2, "leq": [[0, 1]]})
    b = lattice_from_json({"size": 2, "leq": [[0, 0], [0, 1], [1, 1]]})
    assert a == b


def test_json_errors():
    with pytest.raises(LatticeError):
        lattice_from_json({"leq": []})
    with pytest.raises(LatticeError):
        lattice_from_json({"size": 2, "leq": [[0, 5]]})
    with pytest.raises(LatticeError):
        lattice_from_json({"size": 2, "leq": [[0, 1]], "names": ["only-one"]})
    with pytest.raises(LatticeError):
        lattice_from_json({"size": 2, "leq": [0, 1]})


def test_empty_poset_is_rejected_as_lattice():
    with pytest.raises(LatticeError):
        Lattice(Poset.antichain(0))


def test_outside_tables_cannot_poison_the_per_lattice_caches():
    # Lattice equality and the caches read only the poset.  Tables taken
    # unchecked from outside made a lattice equal to chain(2) whose irr_data
    # entry then served chain(2): theta_rank(chain(2), 2) answered 3.
    with pytest.raises(TypeError):
        irr_data(Lattice(chain(2).poset, [[2] * 3] * 3, [[0] * 3] * 3, 0, 2))
    assert theta_rank(chain(2), 2) == 2
    rebuilt = Lattice(chain(2).poset)
    assert (rebuilt.join, rebuilt.meet, rebuilt.bottom, rebuilt.top) == \
        (chain(2).join, chain(2).meet, 0, 2)


def test_mobius_duality(named):
    for lat in named.values():
        mob = mobius(lat)
        mob_op = mobius(lat.opposite())
        assert all(mob_op[b, a] == v for (a, b), v in mob.items())
