import itertools
import random
import time
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfl.exact import (DEFAULT_PRIME, ExactMatrix, PrimeField, RATIONALS, RankStats, _Bits,
                       _Entries, _coerced, _f2_rank, _modp_echelon, _reduced, _reduces_to_itself,
                       bareiss_rank_int, det_int, fast_int_rank, modp_rank, parse_ring, subspace_equal)
from cfl.functor import _theta_system
from cfl.lattices import chain


def test_rank_examples():
    ident = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ident.rank() == 3
    assert ExactMatrix([[0, 0], [0, 0]]).rank() == 0
    assert ExactMatrix([[1, 1], [1, 1]]).rank() == 1


def test_rank_with_fractions():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
    assert m.rank() == 2
    singular = ExactMatrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert singular.rank() == 1


def test_nullspace_examples():
    assert ExactMatrix([[1, 0], [0, 1]]).nullspace() == []
    basis = ExactMatrix([[1, -1]]).nullspace()
    assert basis == [(Fraction(1), Fraction(1))]
    empty = ExactMatrix([], cols=2)
    assert len(empty.nullspace()) == 2


def test_nullspace_vectors_are_in_kernel():
    rows = [[1, 2, 3], [4, 5, 6]]
    for v in ExactMatrix(rows).nullspace():
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
                min_size=5, max_size=5))
def test_rank_nullity_and_transpose(rows):
    m = ExactMatrix(rows)
    assert m.rank() + len(m.nullspace()) == 8
    assert m.rank() == m.transpose().rank()


def test_subspace_equal_examples():
    a = [(1, 0)]
    assert subspace_equal(a, a, 2)
    assert subspace_equal([(1, 0)], [(2, 0)], 2)
    assert not subspace_equal([(1, 0)], [(0, 1)], 2)
    with pytest.raises(ValueError):
        subspace_equal([(1, 0)], [(1, 0, 0)], 2)


def test_prime_field_arithmetic():
    with pytest.raises(ValueError):
        PrimeField(9)


def test_prime_field_rank_can_undershoot():
    m_rat = ExactMatrix([[2]], ring=RATIONALS)
    m_two = ExactMatrix([[2]], ring=PrimeField(2))
    assert m_rat.rank() == 1 and m_two.rank() == 0
    # Reduced entries whose determinant, -5, vanishes only mod 5.
    rows = [[1, 2], [3, 1]]
    assert ExactMatrix(rows).rank() == 2
    assert ExactMatrix(rows, ring=PrimeField(5)).rank() == 1


def test_parse_ring():
    assert parse_ring("rat") is RATIONALS
    assert parse_ring("p:7").p == 7
    with pytest.raises(ValueError):
        parse_ring("float")
    # a prime that is no decimal integer is an unknown ring, not int()'s message
    for spec in ("p:abc", "p:", "p:3.0", "p:-7", "p: 7"):
        with pytest.raises(ValueError, match=f"unknown ring '{spec}'; expected 'rat' or 'p:PRIME'"):
            parse_ring(spec)
    with pytest.raises(ValueError, match="4 is not prime"):
        parse_ring("p:4")


def test_modp_rank_matches_bareiss_on_generic_matrices():
    import random
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
        assert bareiss_rank_int(rows) == modp_rank(rows, DEFAULT_PRIME)
        assert fast_int_rank(rows) == bareiss_rank_int(rows)


def _outer(u, v):
    return [[a * b for b in v] for a in u]


_int_matrices = st.one_of(
    st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
             min_size=1, max_size=5),
    # rank <= 1 with entries far above 2^31, the int64 overflow case
    st.builds(_outer, st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=5),
              st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=5, max_size=5)),
)


@settings(max_examples=80, deadline=None)
@given(_int_matrices, st.sampled_from([2, DEFAULT_PRIME, 2 ** 31 - 1]))
def test_modp_rank_never_exceeds_exact_rank(rows, p):
    assert modp_rank(rows, p) <= bareiss_rank_int(rows)


_FIELDS = [PrimeField(p) for p in (2, DEFAULT_PRIME, 2 ** 31 - 1)]


@settings(max_examples=80, deadline=None)
@given(_int_matrices, st.sampled_from(_FIELDS))
def test_fast_int_rank_over_a_prime_field_is_the_rank_mod_p(rows, field):
    assert fast_int_rank(rows, field) == modp_rank(rows, field.p)


def _leibniz_det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


_square_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_square_matrices)
def test_det_int_matches_the_leibniz_expansion(rows):
    assert det_int(rows) == _leibniz_det(rows)


def test_det_int_examples():
    assert det_int([[0, 1], [1, 0]]) == -1  # one row swap
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_int([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # two swaps
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1
    with pytest.raises(ValueError):
        det_int([[1, 2]])


def test_primes_too_large_for_int64_elimination_are_rejected():
    big = 4294967311  # prime, above 2^31
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(big)
    with pytest.raises(ValueError, match="2\\^31"):
        parse_ring(f"p:{big}")
    with pytest.raises(ValueError, match="2\\^31"):  # past the digits int() reads
        parse_ring("p:" + "9" * 5000)
    assert parse_ring("p:0000000007").p == 7
    assert parse_ring("p:" + "\u0660" * 10 + "\u0667").p == 7  # Arabic-Indic zeros pad too
    with pytest.raises(ValueError, match="2\\^31"):
        modp_rank([[1]], big)
    assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1


def test_rank_invariant_under_permutations():
    import random
    rng = random.Random(8)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        want = bareiss_rank_int(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cols = list(range(5))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in shuffled]
        assert bareiss_rank_int(permuted) == want
        assert want <= min(len(rows), len(rows[0]))


def test_fast_rank_certificate_path():
    # full-rank square case is certified by the modular bound alone
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 1]]
    stats = RankStats()
    assert fast_int_rank(rows, stats=stats) == 3
    assert stats.path == "modp-certified" and stats.prime == 2
    # mod 2 the middle column has no pivot, yet the rank mod 2 reaches 2
    assert fast_int_rank([[1, 1, 2], [1, 1, 1]], stats=stats) == 2
    assert stats.path == "modp-certified" and stats.prime == 2
    # full rank over Q but singular mod 2, with no singleton to peel: the
    # rank mod 2 falls short and the rank mod DEFAULT_PRIME certifies it
    for rows in ([[1, 1], [1, -1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                 [[1, 1, 1], [1, 1, -1]]):
        for given in (rows, np.array(rows, dtype=np.int8)):
            assert fast_int_rank(given, stats=stats) == min(len(rows), len(rows[0]))
            assert stats.path == "modp-certified" and stats.prime == DEFAULT_PRIME
            assert stats.peeled == 0
    # duplicate and zero rows are dropped before any elimination
    assert fast_int_rank([[1, 1], [1, 1], [0, 0]]) == 1
    assert fast_int_rank([[0, 0]]) == 0
    assert fast_int_rank([]) == 0


def test_fast_rank_falls_back_exactly():
    # rank deficient: the certificate cannot apply, Bareiss decides
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    stats = RankStats()
    assert fast_int_rank(rows, stats=stats) == 2
    assert stats.path == "bareiss" and stats.prime is None


# Rows are packed eight columns to a byte: widths on both sides of a byte
# and of a 64-bit word.
_F2_WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 130, 200)
# Parity-preserving maps of an int into each array dtype's range.
_F2_DTYPES = {
    bool: lambda v: bool(v & 1),
    np.int8: lambda v: (v + 2 ** 7) % 2 ** 8 - 2 ** 7,
    np.uint32: lambda v: v % 2 ** 32,
    np.int64: lambda v: (v + 2 ** 63) % 2 ** 64 - 2 ** 63,
}


@st.composite
def _f2_matrices(draw):
    # Sparse rows of one width, with entries past 2^64 and negative ones, and
    # sums of earlier rows appended so that some matrices are deficient mod 2.
    width = draw(st.sampled_from(_F2_WIDTHS))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 2 ** 64 + 1, -(2 ** 65) - 3, 2 ** 70])
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3)):
        if rows:
            rows.append([x + y for x, y in zip(rows[i % len(rows)], rows[j % len(rows)])])
    return width, rows, draw(st.permutations(range(len(rows)))), draw(st.permutations(range(width)))


@settings(max_examples=150, deadline=None)
@given(_f2_matrices())
def test_f2_rank_is_the_rank_mod_2(matrix):
    width, rows, row_order, col_order = matrix
    want = len(_modp_echelon(_coerced(rows, 2), 2)[1])
    arrays = [np.array([[cast(v) for v in row] for row in rows], dtype=dtype)
              .reshape(len(rows), width) for dtype, cast in _F2_DTYPES.items()]
    for given in [rows] + arrays:
        assert modp_rank(given, 2) == want
        if isinstance(given, np.ndarray):
            assert len(_modp_echelon(given, 2)[1]) == want
            # the rank does not depend on the order of the rows or the columns
            assert modp_rank(given[np.ix_(row_order, col_order)], 2) == want


@pytest.mark.parametrize("width", [0, 1, 3, 7, 9, 13, 17, 70])
def test_f2_rank_reads_padded_rows_last_first(width):
    # Rows are read last first, bit-reversed byte by byte, so the padding bits
    # of a width that is not a multiple of 8 sit above the last column and
    # must stay zero.  Single rows, no rows, rows of no columns and
    # deficient systems (sums of earlier rows appended) each match the
    # dense elimination mod 2, given as an array or as packed bytes.
    rng = np.random.default_rng(width)
    for nr in (0, 1, 2, 5, 12):
        for density in (0.1, 0.5, 0.9):
            a = (rng.random((nr, width)) < density).astype(np.int8)
            if nr > 1:
                a = np.vstack([a, a[:nr // 2] ^ a[nr - nr // 2:], a[-1:]])
            want = len(_modp_echelon(a, 2)[1])
            bits = _Bits(a.shape, np.packbits(a, axis=1))
            assert _f2_rank(a) == _f2_rank(bits) == want, (nr, density)
            assert _f2_rank(np.ascontiguousarray(a[::-1, ::-1])) == want
    # the last column alone, one row at a time: bit 0 of the last byte
    single = np.zeros((1, width), dtype=np.int8)
    if width:
        single[0, -1] = 1
    assert _f2_rank(single) == len(_modp_echelon(single, 2)[1]) == min(width, 1)


def test_bareiss_handles_column_skips():
    rows = [[0, 1, 1], [0, 2, 2], [0, 0, 5]]
    assert bareiss_rank_int(rows) == 2


def test_fp_nullspace():
    f5 = PrimeField(5)
    rows = [[1, 4]]
    (v,) = ExactMatrix(rows, ring=f5).nullspace()
    assert all(x in range(5) for x in v)
    assert tuple(sum(a * b for a, b in zip(row, v)) % 5 for row in rows) == (0,)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([])


def test_bareiss_is_exact_on_int64_arrays():
    # Products of entries near 10^6 leave int64 after a few pivots; the
    # elimination must run on Python ints whatever the input type.
    rng = random.Random(12)
    rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(12)] for _ in range(12)]
    arr = np.array(rows, dtype=np.int64)
    assert det_int(arr) == det_int(rows) != 0
    assert bareiss_rank_int(arr) == bareiss_rank_int(rows) == 12
    deficient = rows[:11] + [[a - b for a, b in zip(rows[0], rows[1])]]
    arr = np.array(deficient, dtype=np.int64)
    assert det_int(arr) == det_int(deficient) == 0
    assert bareiss_rank_int(arr) == bareiss_rank_int(deficient) == 11


def test_integer_kernels_refuse_non_integer_entries():
    # truncation used to answer rank 0, determinant 1, rank 1 and rank 0
    for kernel, rows in ((bareiss_rank_int, [[Fraction(1, 2)]]),
                         (det_int, [[Fraction(3, 2)]]),
                         (fast_int_rank, [[Fraction(1, 2), 0], [0, 1]]),
                         (modp_rank, [[Fraction(1, 2)]])):
        with pytest.raises(TypeError):
            kernel(rows)


def test_integer_kernels_refuse_ragged_rows():
    # zip over the columns used to truncate these to rank 1
    for rows in ([[1], [0, 1]], [[0, 0], [0, 1, 5]], [[1, 2], [3]]):
        for kernel in (fast_int_rank, modp_rank, bareiss_rank_int, det_int):
            with pytest.raises(ValueError, match="unequal length"):
                kernel(rows)


def test_every_kernel_reads_a_bool_array_as_its_integers():
    b = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)  # determinant 2
    assert bareiss_rank_int(b) == modp_rank(b) == fast_int_rank(b) == 3
    assert det_int(b) == 2 and type(det_int(np.eye(2, dtype=bool))) is int
    assert modp_rank(b, 2) == fast_int_rank(b, PrimeField(2)) == 2
    assert all(kernel(np.eye(2, dtype=bool)) == 2
               for kernel in (bareiss_rank_int, modp_rank, fast_int_rank))
    # Rows are read entry by entry with operator.index, which numpy bools fail.
    for kernel in (bareiss_rank_int, det_int, fast_int_rank, modp_rank):
        with pytest.raises(TypeError):
            kernel(list(b))


def _echelon_mod_p(rows, p):
    """Row echelon form mod p over Python ints, with the pivot rule of
    ``_modp_echelon``: the first nonzero of the column, scaled to 1."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for k in range(r + 1, len(m)):
            f = m[k][c]
            m[k] = [(v - f * w) % p for v, w in zip(m[k], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def test_delayed_reduction_stays_exact_at_the_largest_prime():
    # At p = 2^31 - 1 the bulk reduction comes every 2 pivots: two updates of
    # (p - 1)^2 fit in int64, three do not.  L U with every off-diagonal
    # entry -1 makes each multiplier and each pivot-row entry p - 1, so the
    # last two entries of the fourth row take three updates of exactly
    # (p - 1)^2 each.  The zero last row of U makes the rank 3, so a wrapped
    # entry would also show as a fourth pivot.
    p = 2 ** 31 - 1
    n = 4
    lower = [[1 if i == k else -1 if k < i else 0 for k in range(n)] for i in range(n)]
    upper = [[int(k == j) or -(k < j) for j in range(n + 1)] for k in range(n - 1)]
    upper.append([0] * (n + 1))
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p for j in range(n + 1)]
            for i in range(n)]
    want = _echelon_mod_p(rows, p)
    assert len(want[1]) == n - 1
    for given in (rows, np.array(rows, dtype=np.int64)):
        echelon, pivots = _modp_echelon(_coerced(given, p), p)
        assert (echelon.tolist(), pivots) == want
        assert modp_rank(given, p) == fast_int_rank(given, PrimeField(p)) == n - 1
    rng = random.Random(31)
    for size in (6, 12):
        rows = [[p - rng.randint(1, 9) for _ in range(size)] for _ in range(size - 1)]
        rows.append([sum(r[j] for r in rows[:3]) for j in range(size)])
        echelon, pivots = _modp_echelon(_coerced(rows, p), p)
        assert (echelon.tolist(), pivots) == _echelon_mod_p(rows, p)


def test_delayed_reduction_tracks_each_row_at_the_largest_prime():
    # Only the rows updated since the last bulk reduction are reduced (every
    # 2 pivots at p = 2^31 - 1), so a row's flag must follow it through a
    # swap.  Row X (position 1) takes an update of (p - 1)^2 in its column 4
    # at pivot 1, is swapped with row D at pivot 2, where it has a zero in
    # the pivot column, and takes two more such updates at pivots 3 and 4.
    # Left unreduced after pivot 2, it would hold -3 (p - 1)^2 < -2^63.
    p = 2 ** 31 - 1
    rows = [[1, 0, 0, 0, p - 1, 0], [p - 1, 0, p - 1, p - 1, 0, 1], [0, 0, 1, 0, p - 1, 0],
            [0, 0, 0, 1, p - 1, 0], [0, 1, 0, 0, 0, 0]]
    want = _echelon_mod_p(rows, p)
    assert want[0][-1] == [0, 0, 0, 0, 1, pow(-3, -1, p)]
    assert _modp_echelon(_coerced(rows, p), p)[0].tolist() == want[0]
    # Rows of P L U, with the entries of L below and of U above the diagonal
    # each -1 or 0, take such updates at the pivots their rows of L pick.
    rng = random.Random(2147483647)
    for _ in range(200):
        n = rng.randint(3, 9)
        lower = [[1 if i == k else -rng.randint(0, 1) if k < i else 0 for k in range(n)]
                 for i in range(n)]
        upper = [[int(k == j) or -(k < j and rng.randint(0, 1)) for j in range(n + 2)]
                 for k in range(n)]
        rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p for j in range(n + 2)]
                for i in range(n)]
        rows += rng.sample(rows, rng.randint(0, 2))
        rng.shuffle(rows)
        for row in rows:
            row[rng.randrange(n + 2)] = 0
        echelon, pivots = _modp_echelon(_coerced(rows, p), p)
        assert (echelon.tolist(), pivots) == _echelon_mod_p(rows, p)


def test_rank_at_the_largest_prime_costs_about_what_it_costs_at_the_default():
    # chain3.theta.6: each pivot hits a few rows of 2100, so reducing the
    # whole trailing block every 2 pivots made the rank at p = 2^31 - 1
    # about 50 times slower than at 1000003; reducing only the updated
    # rows makes it about twice as slow.  Minima of two runs each.
    system = _theta_system(chain(3), 6, 20000, pruned=True).dense()
    times = {}
    for p in (2 ** 31 - 1, DEFAULT_PRIME):
        runs = []
        for _ in range(2):
            start = time.perf_counter()
            assert modp_rank(system, p) == 2100
            runs.append(time.perf_counter() - start)
        times[p] = min(runs)
    assert times[2 ** 31 - 1] < 8 * times[DEFAULT_PRIME]


def _deficient(draw_rows, combos):
    # Append integer combinations of the drawn rows, so the rank stays below
    # the row count and the fraction-free fallback has to decide.
    rows = [list(r) for r in draw_rows]
    for a, b, i, j in combos:
        rows.append([a * x + b * y for x, y in zip(rows[i % len(draw_rows)],
                                                  rows[j % len(draw_rows)])])
    return rows


_deficient_matrices = st.builds(
    _deficient,
    st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                       st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_int_matrices, _deficient_matrices))
def test_fast_int_rank_equals_bareiss_on_lists_and_arrays(rows):
    want = bareiss_rank_int(rows)
    assert fast_int_rank(rows) == want
    if max(abs(v) for row in rows for v in row) < 2 ** 63:
        assert fast_int_rank(np.array(rows, dtype=np.int64)) == want


def test_fast_int_rank_prunes_arrays_like_lists():
    rows = [[0, 1, 0, 2], [0, 0, 0, 0], [0, 1, 0, 2], [0, 3, 0, 1], [0, 2, 0, 4]]
    for given_rows in (rows, np.array(rows, dtype=np.int8), np.array(rows, dtype=np.uint32)):
        stats = RankStats()
        assert fast_int_rank(given_rows, stats=stats) == 2
        assert stats.shape == (3, 2) and stats.path == "modp-certified"
    stats = RankStats()
    assert fast_int_rank(np.zeros((3, 0), dtype=np.int8), stats=stats) == 0
    assert (stats.shape, stats.path, stats.prime) == ((0, 0), "structural", None)
    for not_int64 in (np.ones((2, 2)), np.full((2, 2), 2 ** 64 - 1, dtype=np.uint64),
                      np.array([[2 ** 70, 1]], dtype=object)):
        with pytest.raises(TypeError):
            fast_int_rank(not_int64)


def test_entries_past_int64_go_to_bareiss_over_q_and_are_residues_over_f_p():
    big = 2 ** 70
    # a singleton column, a zero row and a repeated row, none pruned or peeled
    rows = [[big, 1, 0, 0], [1, 0, 0, 7], [0, 0, 0, 0], [1, 0, 0, 7], [3, big + 1, 0, 0]]
    stats = RankStats()
    assert fast_int_rank(rows, stats=stats) == bareiss_rank_int(rows) == 3
    assert (stats.path, stats.peeled, stats.prime, stats.shape) == ("bareiss", 0, None, (5, 4))
    for p in (2, 5, DEFAULT_PRIME):
        residues = [[v % p for v in row] for row in rows]
        want = RankStats()
        assert fast_int_rank(rows, PrimeField(p), stats) == modp_rank(rows, p) == \
            fast_int_rank(residues, PrimeField(p), want) == len(_echelon_mod_p(rows, p)[1])
        assert (stats.shape, stats.peeled, stats.path) == (want.shape, want.peeled, want.path)
    assert det_int([[big, 1], [1, 1]]) == big - 1
    assert ExactMatrix([[big, 1], [2 * big, 2]]).nullspace() == [(Fraction(-1, big), 1)]


# Peeling.  Blocks of four kinds are laid on the diagonal and the rows and
# columns shuffled: triangular blocks peel completely from a row or a column
# singleton; rank-deficient dense blocks leave a remainder for the mod-p rank
# and the fraction-free fallback; a line whose one entry is a multiple of a
# prime peels over the rationals and must not peel over that field; and a
# one-entry block holds a prime itself.
_PRIMES = (2, 5, DEFAULT_PRIME)
_prime_multiples = st.sampled_from([2, 5, 10, DEFAULT_PRIME, 2 * DEFAULT_PRIME])


def _triangular(diagonal, above, transpose):
    n = len(diagonal)
    block = [[diagonal[i] if i == j else above[(i * n + j) % len(above)] if i < j else 0
              for j in range(n)] for i in range(n)]
    return [list(col) for col in zip(*block)] if transpose else block


def _dead_mod_p(q, tail):
    # Column 0 holds q alone; over F_p for p | q the row is just the tail.
    return [[q] + tail, [0] + [v + 1 for v in tail]]


_peel_blocks = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.builds(
        _triangular,
        st.lists(st.one_of(st.integers(1, 3), st.integers(-3, -1), _prime_multiples),
                 min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=1, max_size=6), st.booleans())),
    st.builds(_deficient,
              st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                       min_size=1, max_size=3),
              st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                 st.integers(0, 2), st.integers(0, 2)),
                       min_size=1, max_size=2)),
    st.builds(_dead_mod_p, _prime_multiples,
              st.lists(st.integers(-2, 2), min_size=1, max_size=3)),
    _prime_multiples.map(lambda q: [[q]]),
)


def _diagonal_shuffled(blocks, seed):
    width = sum(len(b[0]) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (width - at - len(row)) for row in b]
        at += len(b[0])
    rng = random.Random(seed)
    rng.shuffle(rows)
    cols = list(range(width))
    rng.shuffle(cols)
    return [[row[j] for j in cols] for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.builds(_diagonal_shuffled, st.lists(_peel_blocks, min_size=1, max_size=5),
                 st.integers(0, 2 ** 16)))
def test_peeling_agrees_with_whole_eliminations(rows):
    want = bareiss_rank_int(rows)
    assert fast_int_rank(rows) == fast_int_rank(np.array(rows, dtype=np.int64)) == want
    for p in _PRIMES:
        field = PrimeField(p)
        want = modp_rank(rows, p)
        assert fast_int_rank(rows, field) == fast_int_rank(np.array(rows), field) == want


def test_peeling_settles_what_it_can_and_leaves_the_rest():
    p = 5
    stats = RankStats()
    # column 0 holds p alone: it peels over the rationals, and is zero mod p
    assert fast_int_rank([[p, 1], [0, 1]], stats=stats) == 2
    assert stats.path == "structural" and stats.peeled == 2
    assert fast_int_rank([[p, 1], [0, 1]], PrimeField(p), stats) == 1
    assert stats.path == "prime-field" and stats.peeled == 1 and stats.prime == p
    # the singleton 7 peels; the deficient rest goes to the fallback
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 7]]
    assert fast_int_rank(rows, stats=stats) == 2
    assert stats.path == "bareiss" and stats.peeled == 1 and stats.shape == (3, 3)
    # two singleton columns on one row remove that row once
    assert fast_int_rank([[1, 1, 1], [0, 0, 1]], stats=stats) == 2
    assert stats.path == "structural" and stats.peeled == 2


def _dense_pruned(a):
    """A coerced array without zero rows, repeated rows (first occurrences
    kept, in order) and zero columns: the dense pruning that ``_reduced``
    replaced, kept as its oracle."""
    nonzero = a.any(axis=1)
    if not nonzero.all():
        a = a[nonzero]
    first = {}
    for i, row in enumerate(a):
        first.setdefault(row.tobytes(), i)
    if len(first) < len(a):
        a = a[list(first.values())]
    live = a.any(axis=0)
    return a if live.all() else a.take(np.flatnonzero(live), axis=1)


def _dense_peel(a, p):
    """Peel the singleton lines of a pruned matrix on the dense live mask;
    returns ``(peeled, rest)``, the dense peeling that ``_reduced`` replaced."""
    shape = a.shape
    if not min(shape):
        return 0, a
    if p is None or a.dtype == bool:
        live = a != 0
    else:
        live = a.astype(np.int64) % p != 0
    coords = np.array(np.divmod(np.flatnonzero(live), shape[1]))
    keep = (np.ones(shape[0], dtype=bool), np.ones(shape[1], dtype=bool))
    peeled = idle = 0
    axis = 1
    while idle < 2:
        line, partner = coords[axis], coords[1 - axis]
        single = np.bincount(line, minlength=shape[axis])[line] == 1
        if single.any():
            keep[axis][line[single]] = False
            other = keep[1 - axis]
            alive = np.count_nonzero(other)
            other[partner[single]] = False
            peeled += int(alive - np.count_nonzero(other))
            coords = coords[:, keep[0][coords[0]] & keep[1][coords[1]]]
            idle = 0
        else:
            idle += 1
        axis = 1 - axis
    if not peeled:
        return 0, a
    rows, cols = (np.flatnonzero(np.bincount(c, minlength=n)) for c, n in zip(coords, shape))
    return peeled, a[np.ix_(rows, cols)]


_REDUCE_DTYPES = {bool: [0, 1], np.int8: [0, 0, 1, -1, 2, -3, 127, -128],
                  np.int64: [0, 0, 1, -1, 2, 3, -6, DEFAULT_PRIME, -2 * DEFAULT_PRIME, 2 ** 40]}


@st.composite
def _prunable(draw):
    """A sparse matrix with zero rows and columns, repeated rows and, for
    rows of Python ints, entries past int64: as rows or an array."""
    dtype = draw(st.sampled_from([None, *_REDUCE_DTYPES]))
    values = _REDUCE_DTYPES.get(dtype, _REDUCE_DTYPES[np.int64] + [2 ** 70, -(2 ** 65) - 3])
    width = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=width, max_size=width),
                         max_size=7))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7)), max_size=3)):
        if rows:  # a repeated row, or a zero row, at a drawn place
            row = rows[i % len(rows)] if i % 2 else [0] * width
            rows.insert(j % (len(rows) + 1), list(row))
    zero_col = draw(st.integers(0, width))
    rows = [row[:zero_col] + [0] + row[zero_col:] for row in rows]
    if dtype is None:
        return rows
    return np.array(rows, dtype=dtype).reshape(len(rows), width + 1)


@settings(max_examples=300, deadline=None)
@given(_prunable(), st.sampled_from([None, 2, 3, DEFAULT_PRIME]))
def test_reduced_matches_the_dense_prune_and_peel(matrix, p):
    m = _coerced(matrix, p)
    if m.dtype == object:  # rows past int64 over the rationals skip _reduced
        assert fast_int_rank(matrix) == bareiss_rank_int(matrix)
        return
    pruned = _dense_pruned(m)
    peeled, rest = _dense_peel(pruned, p)
    got_shape, got_peeled, got_rest = _reduced(m, p)
    with mock.patch("cfl.exact._BLOCK_CELLS", 3):  # blocks of one or a few rows
        blocked = _reduced(m, p)
    assert blocked[:2] == (got_shape, got_peeled)
    assert np.array_equal(blocked[2], got_rest)
    assert got_shape == pruned.shape
    assert got_peeled == peeled
    assert got_rest.dtype == m.dtype and got_rest.shape == rest.shape
    assert np.array_equal(got_rest, rest)


@st.composite
def _structured(draw):
    """An integer array with zero rows, repeated rows and rows that are sums
    of two others, so that peeling can leave a singular block."""
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                         min_size=1, max_size=6))
    for kind, i, j in draw(st.lists(st.tuples(st.sampled_from("zrs"), st.integers(0, 99),
                                              st.integers(0, 99)), max_size=5)):
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        row = {"z": [0] * width, "r": a, "s": [x + y for x, y in zip(a, b)]}[kind]
        rows.insert(j % (len(rows) + 1), list(row))
    return np.array(rows, dtype=draw(st.sampled_from([np.int8, np.int64])))


@settings(max_examples=300, deadline=None)
@given(_structured(), st.sampled_from([None, 2, 3]))
def test_reduced_reads_entries_as_it_reads_the_array(a, p):
    rows, cols = np.nonzero(a)
    shape, peeled, rest = _reduced(a, p)
    got_shape, got_peeled, got_rest = _reduced(_Entries(a.shape, rows, cols, a[rows, cols]), p)
    assert (got_shape, got_peeled) == (shape, peeled)
    assert got_rest.dtype == rest.dtype and np.array_equal(got_rest, rest)


@st.composite
def _bit_matrices(draw):
    """A 0/1 int8 array whose width leaves padding bits in most last bytes:
    random rows of a drawn density, some on a cyclic band so that they
    reduce to themselves, with zero rows, repeated rows, singleton rows and
    zero columns drawn in."""
    width = draw(st.sampled_from([*range(18), 200]))
    word = st.integers(0, 2 ** width - 1)
    density = draw(st.sampled_from(["quarter", "half", "three quarters"]))
    if density != "half":
        word = st.builds(lambda v, w: v & w if density == "quarter" else v | w, word, word)
    words = draw(st.lists(word, max_size=10))
    if width and draw(st.booleans()):  # a cyclic band: two ones or more in every column
        words = [(words[r % len(words)] if words else 0) | 1 << r % width | 1 << (r + 1) % width
                 for r in range(max(width, 2))]
    rows = [[v >> c & 1 for c in range(width)] for v in words]
    kinds = st.sampled_from("zrsc" if width else "zr")
    for kind, i, j in draw(st.lists(st.tuples(kinds, st.integers(0, 999), st.integers(0, 999)),
                                    max_size=4)):
        if kind == "c":
            for row in rows:
                row[j % width] = 0
            continue
        if kind == "s":
            row = [int(c == i % width) for c in range(width)]
        else:
            row = rows[i % len(rows)] if kind == "r" and rows else [0] * width
        rows.insert(j % (len(rows) + 1), list(row))
    return np.array(rows, dtype=np.int8).reshape(len(rows), width)


@settings(max_examples=300, deadline=None)
@given(_bit_matrices(), st.sampled_from([None, 2, 3]), st.booleans())
def test_reduced_and_fast_int_rank_read_bits_as_they_read_the_array(a, p, blocked):
    bits = _Bits(a.shape, np.packbits(a, axis=1))
    with mock.patch("cfl.exact._BLOCK_CELLS", 3 if blocked else 1 << 18):
        shape, peeled, rest = _reduced(a, p)
        got_shape, got_peeled, got_rest = _reduced(bits, p)
        assert (got_shape, got_peeled) == (shape, peeled)
        if isinstance(got_rest, _Bits):  # nothing to prune or peel
            assert got_rest is bits
            got_rest = got_rest.dense()
        assert got_rest.dtype == rest.dtype and np.array_equal(got_rest, rest)
        ring = RATIONALS if p is None else PrimeField(p)
        want, got = RankStats(), RankStats()
        assert fast_int_rank(bits, ring, got) == fast_int_rank(a, ring, want)
        assert ((got.shape, got.peeled, got.path, got.prime)
                == (want.shape, want.peeled, want.path, want.prime))


def test_an_unpeeled_packed_system_is_ranked_as_it_is():
    # Every row and column holds two ones and no row repeats, so _reduced
    # hands the record back as its rest, with the same packed bytes.
    cycle = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8)
    square = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
    for a, settled in [(cycle, ("modp-certified", DEFAULT_PRIME, 3)),
                       (square, ("bareiss", None, 3))]:
        bits = _Bits(a.shape, np.packbits(a, axis=1))
        for p in (None, 2, 3):
            shape, peeled, rest = _reduced(bits, p)
            assert (shape, peeled) == (a.shape, 0) and rest is bits
            assert rest.packed is bits.packed
        # singular mod 2: the rank moves on to the mod-p and Bareiss fallbacks
        stats = RankStats()
        assert fast_int_rank(bits, stats=stats) == settled[2]
        assert (stats.path, stats.prime) == settled[:2]
        for p in (2, 3):
            assert fast_int_rank(bits, PrimeField(p)) == fast_int_rank(a, PrimeField(p))


def _first_failed_test(a):
    """Which test of ``_reduces_to_itself`` decides on a 0/1 array, computed
    on the array itself: "rows" (none, or one holding fewer than two ones),
    "repeat" (a repeated row), "columns" (one holding fewer than two ones),
    or None when all three pass."""
    if not len(a) or (a.sum(axis=1) < 2).any():
        return "rows"
    if len({row.tobytes() for row in a}) < len(a):
        return "repeat"
    if (a.sum(axis=0) < 2).any():
        return "columns"
    return None


def _packed(a):
    return _Bits(a.shape, np.packbits(a, axis=1))


def test_reduces_to_itself_counts_columns_as_the_unpacked_matrix_does():
    # 0 to 40 rows by 0 to 20 columns at densities where each test decides,
    # a repeated row drawn in a quarter of the time.
    rng = np.random.default_rng(36)
    decided = {density: set() for density in (0.15, 0.4, 0.6, 0.9)}
    for nr in range(41):
        for nc in range(21):
            for density in decided:
                a = (rng.random((nr, nc)) < density).astype(np.int8)
                if nr > 1 and rng.random() < 0.25:
                    a[rng.integers(nr)] = a[rng.integers(nr)]
                failed = _first_failed_test(a)
                decided[density].add(failed)
                assert _reduces_to_itself(_packed(a)) == (failed is None), (nr, nc, density)
    assert set().union(*decided.values()) == {"rows", "repeat", "columns", None}
    assert {"repeat", "columns", None} <= decided[0.4] | decided[0.6]


def test_reduces_to_itself_sees_a_second_one_in_any_row():
    # A cyclic band gives each of nr columns, and each row, exactly two
    # ones; one more column holds a one in row i and another in row r.  At
    # every odd row count, the second one sits in each row in turn, the last
    # one and the middle one included, and nowhere at all.
    for nr in range(3, 20, 2):
        band = np.zeros((nr, nr), dtype=np.int8)
        band[np.arange(nr), np.arange(nr)] = band[np.arange(nr), (np.arange(nr) + 1) % nr] = 1
        for at in (0, nr // 2, nr):
            for i in (0, nr - 1):
                for r in range(nr):
                    extra = np.zeros((nr, 1), dtype=np.int8)
                    extra[[i, r]] = 1
                    a = np.hstack([band[:, :at], extra, band[:, at:]])
                    assert _first_failed_test(a) == (None if r != i else "columns")
                    assert _reduces_to_itself(_packed(a)) == (r != i), (nr, at, i, r)


def test_reduced_reads_arrays_in_blocks():
    a = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int16)
    full = a[[0, 1, 3]]
    with mock.patch("cfl.exact._BLOCK_CELLS", 5):  # one row to a block
        shape, peeled, rest = _reduced(a, None)
        assert (shape, peeled) == ((3, 3), 0) and np.array_equal(rest, full)
        # a strided view is read block by block as well
        view = full[:, ::-1]
        shape, peeled, rest = _reduced(view, 2)
        assert (shape, peeled) == ((3, 3), 0)
        assert rest.dtype == view.dtype and np.array_equal(rest, view)


def test_fractions_over_a_prime_field_are_cleared_not_truncated():
    f5 = PrimeField(5)
    half = Fraction(1, 2)  # 3 mod 5
    assert ExactMatrix([[half]], ring=f5).rank() == 1
    assert ExactMatrix([[half, 1]], ring=f5).nullspace() == [(3, 1)]
    assert subspace_equal([(half, 1)], [(1, 2)], 2, f5)
    assert not subspace_equal([(half, 1)], [(1, 1)], 2, f5)
    for no_image in (Fraction(1, 5), Fraction(2, 15)):
        with pytest.raises(ValueError, match="divisible by 5"):
            ExactMatrix([[1, no_image]], ring=f5)
        with pytest.raises(ValueError, match="divisible by 5"):
            subspace_equal([(no_image, 1)], [(1, 0)], 2, f5)
    assert ExactMatrix([[Fraction(1, 5)]]).rank() == 1


def test_subspace_equal_takes_arrays_and_rows():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
    same = [(1, 1, 2), (Fraction(1, 2), 0, Fraction(1, 2))]
    for ring in (RATIONALS, PrimeField(1000003)):
        assert subspace_equal(a, np.array(same[:1] + [(1, 0, 1)], dtype=np.int64), 3, ring)
        assert subspace_equal(a, same, 3, ring) and subspace_equal(same, a, 3, ring)
        assert not subspace_equal(a, a[:1], 3, ring)
        with pytest.raises(ValueError):
            subspace_equal(a, np.zeros((1, 2), dtype=np.int8), 3, ring)
    # over F_2 the rows (1, 1, 0), (0, 1, 1) span the sum (1, 0, 1)
    b = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8)
    assert subspace_equal(b, b[:2], 3, PrimeField(2))
    assert not subspace_equal(b, b[:2], 3, RATIONALS)


def _reference_nullspace(rows, cols, p=None):
    """Nullspace by reduced row echelon form with per-scalar field
    arithmetic, an oracle independent of the integer eliminations behind
    ``ExactMatrix.nullspace``.  ``p`` is None for the rationals."""
    if p is None:
        of, inv, red = Fraction, (lambda a: 1 / a), (lambda a: a)
    else:
        def of(x):
            x = Fraction(x)
            return x.numerator * pow(x.denominator, -1, p) % p
        inv, red = (lambda a: pow(a, -1, p)), (lambda a: a % p)
    m = [[of(v) for v in row] for row in rows]
    nr = len(m)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == nr:
            break
        pivot = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        s = inv(m[r][c])
        m[r] = [red(s * v) for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [red(v - f * w) for v, w in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        v = [of(0)] * cols
        v[free] = of(1)
        for i, pc in enumerate(pivots):
            v[pc] = red(-m[i][free])
        basis.append(tuple(v))
    return basis


# Denominators coprime to every prime the property uses.
_entries = st.one_of(st.integers(-6, 6),
                     st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 3, 7, 9])))


_rational_matrices = st.integers(1, 6).flatmap(lambda cols: st.builds(
    _deficient,
    st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from([Fraction(1, 3), 0, 1, -2]),
                       st.integers(0, 3), st.integers(0, 3)), max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_rational_matrices, st.sampled_from([None, 2, 5, DEFAULT_PRIME]))
def test_nullspace_matches_the_reduced_echelon_reference(rows, p):
    ring = RATIONALS if p is None else PrimeField(p)
    cols = len(rows[0])
    m = ExactMatrix(rows, ring=ring)
    assert m.nullspace() == _reference_nullspace(rows, cols, p)
    assert m.rank() + len(m.nullspace()) == cols
    transposed = [list(col) for col in zip(*rows)]
    assert m.transpose().nullspace() == _reference_nullspace(transposed, len(rows), p)


def test_transpose_keeps_the_shape_of_empty_matrices():
    t = ExactMatrix([], cols=2).transpose()
    assert (t.rows, t.cols) == (2, 0) and t.rank() == 0 and t.nullspace() == []
    back = t.transpose()
    assert (back.rows, back.cols) == (0, 2) and len(back.nullspace()) == 2


def test_exact_matrix_reads_its_rows_once():
    # _coerced hands an array back as it is; only rows are read.  Peeling
    # leaves a 2 x 2 rest of rank 1, which goes on to the later kernels.
    rows = [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, Fraction(3, 4)], [1, 2, 3]]
    for ring in (RATIONALS, PrimeField(5)):
        with mock.patch("cfl.exact._coerced", wraps=_coerced) as coerced:
            def reads():
                return [c.args[0] for c in coerced.call_args_list
                        if not isinstance(c.args[0], np.ndarray)]
            m = ExactMatrix(rows, ring=ring)
            assert len(reads()) == 1
            assert m.rank() == len(m.nullspace()) + 1 == m.rank()
            assert len(reads()) == 1
        assert m.scales == (2, 1, 4, 1) and m.data.shape == (m.rows, m.cols) == (4, 3)


def test_entries_past_int64_stay_in_the_matrix_that_holds_them():
    m = ExactMatrix([[2 ** 70, 1], [2 ** 71, 2]])
    assert m.data.dtype == object and m.rank() == 1
    assert m.nullspace() == [(Fraction(-1, 2 ** 70), 1)]
    t = m.transpose()
    assert (t.rows, t.cols) == (2, 2) and t.rank() == 1 and len(t.nullspace()) == 1
    back = t.transpose()
    assert back.data.tolist() == m.data.tolist() and back.scales == m.scales == (1, 1)
    assert ExactMatrix([[2 ** 70, 1], [2 ** 71, 2]], ring=PrimeField(1000003)).rank() == 1


def test_subspace_equal_reads_entries_past_int64_against_small_arrays():
    big = 2 ** 70
    for ring in (RATIONALS, PrimeField(1000003)):  # 2^70 is a unit mod 1000003
        assert subspace_equal([[big, 0], [0, 1]], np.eye(2, dtype=np.int8), 2, ring)
        assert subspace_equal(np.array([[1, 1]], dtype=np.int8), [[big, big]], 2, ring)
        assert not subspace_equal([[big, 1]], np.array([[1, 1]], dtype=np.int8), 2, ring)
        with pytest.raises(ValueError, match="ambient dimension"):
            subspace_equal([[big, 1, 0]], np.eye(2, dtype=np.int8), 2, ring)
