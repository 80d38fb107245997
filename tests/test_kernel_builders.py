"""The vectorised kernel-system builders against per-cell reference loops.

``_theta_reference`` and ``_gamma_reference`` are the cell-by-cell
constructions the numpy builders replaced: the theta cell is condition (d)
of ``theta_conditions`` tested irreducible by irreducible, and a gamma row
expands the acted alternating generator one sign mask at a time.  The
builders must reproduce them entry for entry, in the same row and column
order, on every named lattice at 0 to 3 points.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cfl.catalog import named_lattices
from cfl.exact import RATIONALS, PrimeField, RankStats, _reduces_to_itself, fast_int_rank
from cfl.functor import (LatticeFunction, _digits, _in_linear_order, _theta_system,
                         function_space_size, gamma_entries, gamma_span_rank,
                         h_quotient_basis, irr_data, theta_matrix, theta_rank)
from cfl.lattices import (CapExceeded, _bits, chain, lattice_from_json, lattice_to_json,
                          r_of)

POINTS = range(4)


def _product_rows_equal(enc_psi, down_phi, rop_rows, n_irr):
    for e in range(n_irr):
        acc = 0
        bit = 1 << e
        for mask, down in zip(enc_psi, down_phi):
            if mask & bit:
                acc |= down
        if acc != rop_rows[e]:
            return False
    return True


def _theta_reference(lattice, points):
    data = irr_data(lattice)
    k = len(data.elems)
    cols_down = [[data.down_irr[v] for v in values]
                 for values in _digits(lattice.n, points).tolist()]
    rows = []
    for values in _digits(data.iup.n, points).tolist():
        enc_psi = [data.iup_enc[v] for v in values]
        rows.append([1 if _product_rows_equal(enc_psi, down, data.sub.down, k) else 0
                     for down in cols_down])
    return rows


def _gamma_reference(lattice, points):
    data = irr_data(lattice)
    size = lattice.n ** points
    k = len(data.elems)
    lowered = [r_of(lattice, e) for e in data.elems]
    eta = []
    for mask in range(1 << k):
        values = tuple(lowered[i] if mask >> i & 1 else data.elems[i] for i in range(k))
        eta.append((values, -1 if mask.bit_count() % 2 else 1))
    seen = set()
    out = []
    for psi in _digits(data.iup.n, points).tolist():
        rows = tuple(data.iup_enc[v] for v in psi)
        if rows in seen:
            continue
        seen.add(rows)
        vec = [0] * size
        for values, sign in eta:
            acted = tuple(lattice.meet_many(values[e] for e in _bits(row))
                          for row in rows)
            vec[LatticeFunction(lattice, acted).index] += sign
        out.append(vec)
    return out


def _inputs():
    for name, lat in named_lattices().items():
        for x in POINTS:
            yield pytest.param(lat, x, id=f"{name}-{x}")


@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_theta_builder_matches_the_per_cell_loop(lat, points):
    assert theta_matrix(lat, points).tolist() == _theta_reference(lat, points)


@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_gamma_builder_matches_the_per_mask_loop(lat, points):
    gens = gamma_entries(lat, points).dense()
    assert gens.dtype.kind == "i"
    assert gens.tolist() == _gamma_reference(lat, points)
    with mock.patch("cfl.functor._GAMMA_BLOCK_CELLS", 1):  # one row to a block
        assert np.array_equal(gamma_entries(lat, points).dense(), gens)


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(1000003)],
                         ids=lambda ring: ring.name)
@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_gamma_rank_from_entries_matches_the_dense_system(lat, points, ring):
    # gamma_span_rank ranks the entries the builder emits; the dense system
    # through the array path is the oracle, down to how the rank was settled.
    entries, dense = RankStats(), RankStats()
    got = gamma_span_rank(lat, points, ring, stats=entries)
    assert got == fast_int_rank(gamma_entries(lat, points).dense(), ring, dense)
    assert ((entries.shape, entries.peeled, entries.path, entries.prime)
            == (dense.shape, dense.peeled, dense.path, dense.prime))


def _theta_rank_inputs():
    for name, lat in named_lattices().items():
        for x in range(7):
            try:
                _theta_system(lat, x, 20000, pruned=True)
            except CapExceeded:
                continue
            yield pytest.param(lat, x, id=f"{name}-{x}")


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(1000003)],
                         ids=lambda ring: ring.name)
@pytest.mark.parametrize("lat, points", list(_theta_rank_inputs()))
def test_theta_rank_from_bits_matches_the_dense_system(lat, points, ring):
    # theta_rank ranks the packed system the builder emits; the pruned
    # system unpacked, through the array path, is the oracle, down to how
    # the rank was settled.
    packed, dense = RankStats(), RankStats()
    got = theta_rank(lat, points, ring, stats=packed)
    system = _theta_system(lat, points, 20000, pruned=True).dense()
    assert got == fast_int_rank(system, ring, dense)
    assert ((packed.shape, packed.peeled, packed.path, packed.prime)
            == (dense.shape, dense.peeled, dense.path, dense.prime))


@pytest.mark.parametrize("points", POINTS)
def test_theta_without_irreducibles_is_one_cell(points):
    # The one-element lattice has no irreducible, so the packed AND over
    # its conditions is empty: one function, one ideal function, a one in
    # the top bit and zero padding bits.
    lat = chain(0)
    for pruned in (False, True):
        system = _theta_system(lat, points, 20000, pruned)
        assert system.shape == (1, 1) and system.packed.tolist() == [[0x80]]
    assert theta_matrix(lat, points).tolist() == [[1]]
    assert theta_rank(lat, points) == 1


@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_theta_equals_gamma(lat, points):
    assert theta_rank(lat, points) == gamma_span_rank(lat, points)


@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_h_quotient_basis_is_the_covering_filter(lat, points):
    data = irr_data(lat)
    want = [i for i, values in enumerate(_digits(lat.n, points).tolist())
            if set(data.elems) <= set(values)]
    assert h_quotient_basis(lat, points) == want


@pytest.mark.parametrize("lat, points", list(_inputs()))
def test_pruning_keeps_the_covering_rows_and_columns(lat, points):
    # rows of ideal functions hitting every principal upper ideal and
    # columns of functions hitting every irreducible, in index order
    data = irr_data(lat)
    ups = {data.iup_enc.index(m) for m in data.sub.up}
    rows = [i for i, values in enumerate(_digits(data.iup.n, points).tolist())
            if ups <= set(values)]
    cols = [i for i, values in enumerate(_digits(lat.n, points).tolist())
            if set(data.elems) <= set(values)]
    pruned = _theta_system(lat, points, 20000, pruned=True).dense()
    assert np.array_equal(pruned, theta_matrix(lat, points)[np.ix_(rows, cols)])


def test_rank_stats_report_the_pruned_system():
    stats = RankStats()
    assert theta_rank(chain(2), 3, stats=stats) == 12
    assert stats.path == "modp-certified" and stats.shape == (12, 12)
    assert stats.peeled == 0
    assert stats.build_s >= 0 and stats.eliminate_s >= 0
    stats = RankStats()
    assert gamma_span_rank(chain(2), 3, PrimeField(7), stats=stats) == 12
    assert stats.path == "prime-field" and stats.peeled == 12
    stats = RankStats()
    deficient = np.array([[1, 2, 3, 0], [2, 4, 6, 0], [1, 1, 1, 0], [1, 1, 1, 0]])
    assert fast_int_rank(deficient, stats=stats) == 2
    assert stats.path == "bareiss" and stats.shape == (3, 3) and stats.peeled == 0


def test_chain3_theta_rank_does_not_depend_on_the_labels():
    # chain3.theta.6 is the one benchmark system that peeling cannot settle;
    # the benchmark ranks it under random relabelings, which reorder its rows
    # and columns.  Each of the 24 must be certified mod 2 at A01's rank.
    leq = lattice_to_json(chain(3))["leq"]
    for perm in itertools.permutations(range(4)):
        lat = lattice_from_json({"size": 4, "leq": [[perm[a], perm[b]] for a, b in leq]})
        stats = RankStats()
        assert theta_rank(lat, 6, stats=stats) == 2100, perm
        got = (stats.shape, stats.peeled, stats.path, stats.prime)
        assert got == ((2100, 2100), 0, "modp-certified", 2), (perm, got)


def _relabelings(lat):
    """``lat`` under every permutation of its labels, built from its pairs by
    the validating ``lattice_from_json``."""
    leq = lattice_to_json(lat)["leq"]
    for perm in itertools.permutations(range(lat.n)):
        yield lattice_from_json({"size": lat.n, "leq": [[perm[a], perm[b]] for a, b in leq]})


@pytest.mark.parametrize("n", [2, 3])
def test_every_labeling_of_a_chain_is_ranked_as_the_chain(n):
    # A chain has one linear extension, so every labeling's copy is chain(n)
    # itself, tables included, and theta_rank eliminates the same packed
    # bytes: the same mod-2 work, whatever the labels.
    want = _theta_system(chain(n), 6, 20000, pruned=True).packed.tobytes()
    for lat in _relabelings(chain(n)):
        copy = _in_linear_order(lat)
        assert copy == chain(n)
        assert (copy.join, copy.meet, copy.bottom, copy.top, copy.poset.down) == (
            chain(n).join, chain(n).meet, chain(n).bottom, chain(n).top, chain(n).poset.down)
        with mock.patch("cfl.functor.fast_int_rank") as rank:
            theta_rank(lat, 6)
        assert rank.call_args.args[0].packed.tobytes() == want


@pytest.mark.parametrize("name", ["m3", "n5", "b2", "grid2x3"])
def test_the_linear_order_copy_is_the_relabeled_lattice(name):
    # The copy's labels follow its order, and it is the lattice the
    # validating constructor builds from the relabeled pairs, tables included.
    for lat in _relabelings(named_lattices()[name]):
        copy = _in_linear_order(lat)
        assert all(a <= b for a in range(lat.n) for b in range(lat.n) if copy.le(a, b))
        order = sorted(range(lat.n), key=lambda a: (lat.poset.down[a].bit_count(), a))
        label = {a: i for i, a in enumerate(order)}
        ref = lattice_from_json({"size": lat.n, "leq": [[label[a], label[b]]
                                                        for a, b in lat.poset.leq.pairs()]})
        assert copy == ref
        assert (copy.join, copy.meet, copy.bottom, copy.top, copy.poset.down) == (
            ref.join, ref.meet, ref.bottom, ref.top, ref.poset.down)
        assert (_in_linear_order(copy) is copy) and (_in_linear_order(ref) is ref)


@pytest.mark.parametrize("name", ["m3", "n5", "b2", "grid2x3"])
def test_rank_stats_do_not_depend_on_the_labels(name):
    # Rank, pruned shape, peeled pivots, path and prime are isomorphism
    # invariants: every labeling reports what the catalog's labels report.
    rings = [RATIONALS, PrimeField(2), PrimeField(1000003)]

    def report(lat):
        out = []
        for rank_fn, ring, points in itertools.product((theta_rank, gamma_span_rank), rings,
                                                       range(5)):
            stats = RankStats()
            rank = rank_fn(lat, points, ring, stats=stats)
            out.append((rank, stats.shape, stats.peeled, stats.path, stats.prime))
        return out

    want = report(named_lattices()[name])
    for lat in _relabelings(named_lattices()[name]):
        assert report(lat) == want


@pytest.mark.parametrize("name, method", [("chain3", "theta"), ("b2", "gamma")])
def test_f2_rank_peak_memory_stays_near_the_system_size(name, method):
    # Liveness mod 2 is read from the nonzero values only, so no int64 copy
    # of the int8 gamma system is made; the theta system is ranked from its
    # packed bytes and never unpacked whole.  The traced peak stays below 3x
    # the bytes of the system as it is held.
    lat = named_lattices()[name]
    if method == "theta":
        system = _theta_system(lat, 6, 20000, pruned=True)
        size = system.packed.nbytes
    else:
        system = gamma_entries(lat, 6).dense()
        size = system.nbytes
    tracemalloc.start()
    try:
        fast_int_rank(system, PrimeField(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


@pytest.mark.parametrize("name, points", [("chain3", 6), ("chain2", 8)])
def test_reduces_to_itself_peak_memory_stays_near_the_packed_system(name, points):
    # The column counts are folded in place on two arrays of half the
    # system, after the row-bytes set of the repeat test is freed; that set
    # makes the peak, 2.36x and 2.16x the packed bytes of these systems.
    system = _theta_system(_in_linear_order(named_lattices()[name]), points, 100000,
                           pruned=True)
    tracemalloc.start()
    try:
        assert _reduces_to_itself(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * system.packed.nbytes


@pytest.mark.parametrize("name, points, bound_mb", [("chain3", 6, 4), ("b2", 7, 128)])
def test_theta_rank_peak_memory_stays_near_the_packed_system(name, points, bound_mb):
    # Build included.  The packed systems take 0.53 and 17.6 MiB; the dense
    # int8 ones took 4.2 and 140.5 MiB, beside bool temporaries of their size,
    # and traced peaks of 13.1 and 426 MiB.
    lat = named_lattices()[name]
    tracemalloc.start()
    try:
        theta_rank(lat, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20


@pytest.mark.parametrize("name, points", [("n5", 5), ("b2", 6)])
def test_gamma_rank_peak_memory_scales_with_the_nonzeros(name, points):
    # The generators are ranked from their 9,840 and 10,808 nonzero entries;
    # their dense systems would take 23.2 and 16.0 MB.
    lat = named_lattices()[name]
    tracemalloc.start()
    try:
        gamma_span_rank(lat, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_gamma_entries_never_overflow_the_build_dtype():
    # chain(7) has 7 irreducibles: 2^7 = 128 signed terms, one past int8.
    lat = chain(7)
    gens = gamma_entries(lat, 1).dense()
    assert np.iinfo(gens.dtype).max >= 2 ** 7
    assert gens.tolist() == _gamma_reference(lat, 1)
    assert fast_int_rank(gens) == fast_int_rank(gens.tolist())


def test_gamma_refuses_too_many_signed_terms():
    # A generator expands 2^k signed terms for k irreducibles: 2^15 for the
    # 16-element chain, whose 16 functions at one point are within the cap.
    lat = chain(15)
    function_space_size(lat, 1)
    with pytest.raises(CapExceeded, match="signed terms"):
        gamma_entries(lat, 1)
