import hashlib
import itertools

import pytest

import cfl.catalog as catalog
from cfl.catalog import (catalog_entries, enumerate_lattices, enumerate_posets,
                         named_lattices, product_lattice)
from cfl.lattices import (CapExceeded, Lattice, LatticeError, Poset, chain,
                          is_distributive, lattices_isomorphic)
from cfl.relations import Correspondence

# (entries, sha256 of their (name, size, leq rows) reprs) of
# catalog_entries(exhaustive_max=6): the x<n>.<i> names and the lattices
# behind them must not shift.
EXHAUSTIVE_CATALOG = (
    6827, "1241620ac8123e6043a4d67466bd30ccb631589151d2a80639af1e53fc8abf22")


def _scan_posets(k):
    """The oracle: every vector of strict down-sets, in ``itertools.product``
    order, kept when it is transitive; the closure condition also rules out
    two-cycles.  Returns the order relations."""
    if k == 0:
        return [Correspondence.identity(0)]
    choices = []
    for i in range(k):
        others = [j for j in range(k) if j != i]
        subsets = []
        for picks in itertools.chain.from_iterable(
                itertools.combinations(others, r) for r in range(k)):
            subsets.append(sum(1 << j for j in picks))
        choices.append(sorted(subsets))
    out = []
    for down in itertools.product(*choices):
        if all(down[j] & ~down[i] == 0
               for i in range(k) for j in range(k) if down[i] >> j & 1):
            rows = [(1 << a) | sum(1 << b for b in range(k) if down[b] >> a & 1)
                    for a in range(k)]
            out.append(Correspondence(k, k, rows))
    return out


def test_named_catalog_shapes():
    named = named_lattices()
    assert named["chain0"].n == 1 and named["chain6"].n == 7
    assert named["b2"].n == 4 and named["b3"].n == 8
    assert named["m3"].n == 5 and named["n5"].n == 5
    assert named["grid2x3"].n == 6
    assert is_distributive(named["grid2x3"])
    assert not is_distributive(named["m3"]) and not is_distributive(named["n5"])


def test_named_catalog_is_interned():
    first, second = named_lattices(), named_lattices()
    assert first is not second
    assert first.keys() == second.keys()
    assert all(first[name] is second[name] for name in first)
    first.pop("m3")
    assert "m3" in named_lattices()


def test_product_lattice():
    grid = product_lattice(chain(1), chain(2))
    assert grid.n == 6
    assert lattices_isomorphic(grid, product_lattice(chain(2), chain(1)))
    assert lattices_isomorphic(product_lattice(chain(0), chain(2)), chain(2))


def test_poset_counts():
    assert [len(enumerate_posets(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_enumerate_posets_matches_the_scan():
    for k in range(6):
        posets = enumerate_posets(k)
        assert [p.leq for p in posets] == _scan_posets(k)
        assert all(p == Poset(p.leq) and p.down == Poset(p.leq).down for p in posets)


def test_enumerate_smallest():
    found = list(enumerate_lattices(1))
    assert len(found) == 1 and found[0].n == 1
    two = [lat for lat in enumerate_lattices(2) if lat.n == 2]
    # the 2-antichain is not a lattice; both labelings of the chain are
    assert len(two) == 2
    assert all(lattices_isomorphic(lat, chain(1)) for lat in two)


def test_enumerate_counts_small():
    assert sum(1 for lat in enumerate_lattices(3) if lat.n == 3) == 6
    assert sum(1 for lat in enumerate_lattices(4) if lat.n == 4) == 36


def test_enumerate_no_duplicates():
    seen = set()
    for lat in enumerate_lattices(4):
        key = (lat.n, lat.poset.leq.rows)
        assert key not in seen
        seen.add(key)


def test_enumeration_recount_at_five():
    # independent oracle: scan every labeled poset and keep the lattices
    posets = enumerate_posets(5)
    assert len(posets) == 4231
    brute = 0
    for p in posets:
        try:
            Lattice(p)
            brute += 1
        except LatticeError:
            pass
    fast = sum(1 for lat in enumerate_lattices(5) if lat.n == 5)
    assert fast == brute


def test_exhaustive_catalog_is_pinned():
    entries = catalog_entries(exhaustive_max=6)
    blob = "\n".join(repr((name, lat.n, lat.poset.leq.rows))
                      for name, lat in entries).encode()
    assert (len(entries), hashlib.sha256(blob).hexdigest()) == EXHAUSTIVE_CATALOG


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_lattices(7))


def test_poset_enumeration_refuses_past_the_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the recursion started")

    monkeypatch.setattr(catalog, "_lower_ideal_masks", no_work)
    with pytest.raises(CapExceeded, match=f"capped at {catalog.ENUMERATION_CAP} points"):
        enumerate_posets(catalog.ENUMERATION_CAP + 1)


def test_poset_enumeration_refuses_a_negative_size_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the recursion started")

    monkeypatch.setattr(catalog, "_lower_ideal_masks", no_work)
    with pytest.raises(ValueError, match="needs k >= 0 points, got -1"):
        enumerate_posets(-1)


def test_catalog_entries_filters():
    small = catalog_entries(max_size=5)
    names = [name for name, _ in small]
    assert "m3" in names and "b3" not in names and "grid2x3" not in names
    assert all(lat.n <= 5 for _, lat in small)
    extended = catalog_entries(max_size=3, exhaustive_max=3)
    xnames = [name for name, _ in extended if name.startswith("x")]
    assert len(xnames) == 1 + 2 + 6
    assert "x3.5" in xnames
