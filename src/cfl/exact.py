"""Coefficient rings and integer elimination: rank, nullspace, determinant.

The rings are the rationals (``RATIONALS``) and a prime field
(``PrimeField(p)``): tags with ``name``, ``exact`` and ``p`` (``None`` for
the rationals).  A matrix is read once into a 2-D array, so every kernel
accepts and refuses the same inputs and reads one form.  ``_coerced`` reads
integers: an array of a dtype that casts safely to int64 (bool included)
stays as it is, and rows are read by ``operator.index`` into int64.  An
entry past int64 is reduced mod p when a prime is given, and otherwise
leaves an object array of Python ints, which only fraction-free elimination
reads.  ``_cleared`` reads rationals: the one place a ``Fraction`` becomes
an int, it scales each row by the lcm of its denominators before
``_coerced`` (over ``F_p`` a denominator that p divides has no image).

Two eliminations return echelon rows and pivot columns: ``_modp_echelon``,
vectorized in an int64 copy with pivots scaled to 1, and ``_bareiss``,
fraction-free over Python ints, so fixed-width inputs cannot wrap.  The mod-p
elimination delays its reductions: entries start in ``[0, p)``, and each row
update subtracts at most (p - 1)^2.  Every ``(2^63 - 1 - p) // (p - 1)^2``
pivots, about 9.2 million at the default prime and 2 at ``2^31 - 1``, the
rows below that took an update since the last such reduction are reduced.

A third elimination returns only a rank: ``_f2_rank``, mod 2, reads each
row, last row first, into one Python int whose top bit is the last column,
and reduces it against a table of pivot rows keyed by their top bit, so a
row update is one int XOR.  ``modp_rank(rows, 2)`` is that kernel, so
``PrimeField(2)`` ranks with it.  It reads the bytes of a packed 0/1 matrix
(``_Bits``, rows eight columns to a byte, as the theta system is built) as
they are, and packs an array's parities first.

``fast_int_rank``, for both rings, is ``_coerced`` then ``_rank``, the
cascade that ``ExactMatrix`` and ``subspace_equal`` call on the arrays
``_cleared`` gives them: prune and peel, mod 2, mod p, Bareiss; a rational
matrix with an entry past int64 goes straight to Bareiss.  One pass,
``_reduced``, prunes and peels on the coordinates of the nonzero entries,
read from an array block by block of rows, or as a builder emits them
(``_Entries``).  It drops zero rows, repeated rows (compared exactly, by
their column and value runs) and zero columns, then peels singletons: a
column or row with one live entry (nonzero over the rationals, nonzero mod
p over ``F_p``, tested on the nonzero values alone) is a pivot, removed with
the line crossing it, and adds exactly 1 to the rank.  Peeling repeats
until no singleton is left.  A ``_Bits`` matrix is first tested on its
bytes: when no row is zero, repeated or a singleton and no column is zero
or a singleton, nothing prunes or peels, and it is its own rest; otherwise
it is read as its entries.  Only what peeling leaves is made dense, so a
system that peels fully is never copied, and a packed rest is unpacked only
for the mod-p and Bareiss eliminations.  Over ``F_p`` the rest, if any, is
ranked mod p, and that is the answer.  Over the rationals an empty rest
settles the rank, and otherwise a rank of the rest mod any prime is a lower
bound, which pins the rank when it reaches the row or column count of the
rest.  The mod-2 rank tries first; if it falls short, the rank mod
``DEFAULT_PRIME`` tries; otherwise Bareiss decides on the rest.  A
``RankStats`` record, if passed, reports the pruned shape, the peeled
pivots, the path and the prime that settled the rank.

``ExactMatrix`` keeps the array ``_cleared`` reads; its nullspace
back-substitutes one vector per free column through the echelon rows
(``Fraction`` division over the rationals, arithmetic mod p over ``F_p``).
``det_int`` reads the last Bareiss pivot, signed by the parity of the row
swaps.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from math import lcm

import numpy as np

DEFAULT_PRIME = 1000003

# modp_rank eliminates in int64, which is exact while (p - 1)^2 < 2^63.
MAX_PRIME = 2 ** 31


class Rationals:
    """The rationals as a coefficient ring: a tag read by the rank entries."""

    name = "rat"
    exact = True
    p = None

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field of integers mod a prime ``p``: a tag read by the rank entries."""

    exact = False  # ranks mod p can undershoot the characteristic-zero rank

    def __init__(self, p: int):
        _check_prime_bound(p)
        if p < 2 or any(p % q == 0 for q in range(2, min(p, 1 + int(p ** 0.5) + 1))):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"p:{p}"

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()


def _check_prime_bound(p: int) -> None:
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} too large: the mod-p kernel needs p < 2^31")


def parse_ring(spec: str):
    """Ring from a name: ``"rat"`` or ``"p:PRIME"``."""
    if spec == "rat":
        return RATIONALS
    if spec.startswith("p:") and spec[2:].isdecimal():
        digits = "".join(str(int(c)) for c in spec[2:]).lstrip("0") or "0"  # in ASCII
        if len(digits) > 10:  # 2^31 has 10 digits, and int() refuses past 4300
            raise ValueError(f"{len(digits)}-digit prime too large: the mod-p kernel needs p < 2^31")
        return PrimeField(int(digits))
    raise ValueError(f"unknown ring {spec!r}; expected 'rat' or 'p:PRIME'")


class ExactMatrix:
    """A dense rectangular matrix over a ring, read once into a 2-D array.

    ``data`` is the array ``_cleared`` reads, each input row times its entry
    of ``scales``, which changes neither the rank nor the nullspace; every
    method reads it as it is (an object array past int64 over the rationals).
    """

    __slots__ = ("rows", "cols", "data", "scales", "ring")

    def __init__(self, data, cols=None, ring=RATIONALS):
        data, self.scales = _cleared(data, ring.p, cols)
        self.data = data.view()  # read-only here, whoever else holds the array
        self.data.flags.writeable = False
        self.rows, self.cols, self.ring = *data.shape, ring

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[Fraction(v, s) for v, s in zip(col, self.scales)]
                            for col in self.data.T.tolist()], cols=self.rows, ring=self.ring)

    def rank(self) -> int:
        return _rank(self.data, self.ring)

    def nullspace(self):
        """Basis of ``{v : M v = 0}``: one vector per free column, 1 there and
        0 at the other free columns, found by back-substitution through the
        echelon rows.  That basis is unique, so it is the reduced-echelon one.
        Entries are ``Fraction``s over the rationals and ints in ``0..p-1``
        over ``F_p``."""
        p = self.ring.p
        if p is None:
            echelon, pivots, _ = _bareiss(self.data)
        else:
            echelon, pivots = _modp_echelon(self.data, p)
            echelon = echelon.tolist()
        basis = []
        for free in sorted(set(range(self.cols)) - set(pivots)):
            v = [0] * self.cols
            v[free] = 1
            for row, c in zip(reversed(echelon), reversed(pivots)):
                acc = -sum(a * b for a, b in zip(row[c + 1:], v[c + 1:]))
                v[c] = acc % p if p is not None else Fraction(acc, row[c])
            basis.append(tuple(v) if p is not None else tuple(map(Fraction, v)))
        return basis

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, ring={self.ring.name})"


def subspace_equal(vectors_a, vectors_b, cols: int, ring=RATIONALS) -> bool:
    """Whether two families of vectors span the same subspace of ``ring^cols``.

    Each family is rows (of ints or ``Fraction``s) or a 2-D integer array,
    read once by ``_cleared``; the ranks of the two and of their union
    decide."""
    a, b = (_cleared(v, ring.p, cols)[0] for v in (vectors_a, vectors_b))
    return _rank(a, ring) == _rank(b, ring) == _rank(np.vstack([a, b]), ring)


def _cleared(data, p=None, cols=None):
    """The one reading of a rational matrix: returns ``(array, scales)``.

    A 2-D array goes to ``_coerced`` as it is, with unit scales.  Rows are
    scaled to Python ints, each by the lcm of its denominators (its scale),
    and read by ``_coerced``; over ``F_p`` (``p`` given) a denominator that
    p divides has no image, and raises ValueError.  ``cols``, if given, is
    the width the array must have; an empty list of rows needs it.
    """
    if isinstance(data, np.ndarray):
        a, scales = _coerced(data, p), [1] * len(data)
    else:
        fracs = [[v if type(v) in (int, Fraction) else Fraction(v) for v in row] for row in data]
        scales = [lcm(*(v.denominator for v in row)) for row in fracs]
        if p is not None and any(s % p == 0 for s in scales):
            raise ValueError(f"entry with a denominator divisible by {p} has no value mod {p}")
        rows = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(fracs, scales)]
        if not rows and cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        a = _coerced(rows, p) if rows else np.zeros((0, cols), dtype=np.int64)
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"rows of length {a.shape[1]} in ambient dimension {cols}")
    return a, tuple(scales)


def _coerced(int_rows, p=None):
    """The one reading of an integer matrix, shared by every kernel: it
    returns a 2-D array, or the ``_Entries`` or ``_Bits`` a builder emits
    as they are.

    A 2-D array whose dtype casts safely to int64 (bool, the signed integers
    and the unsigned ones below 64 bits) is returned as it is.  Float, uint64
    and object arrays raise TypeError: their values need not be int64
    integers.  Anything else is rows, read entry by entry by
    ``operator.index``, so a ``Fraction``, a float or a numpy bool entry
    raises TypeError, and rows of unequal length raise ValueError.  Rows
    that fit become an int64 array.  An entry past int64 is reduced mod
    ``p`` into int64 when ``p`` is given; otherwise the rows become an
    object array of Python ints, which only ``_bareiss`` reads.
    """
    if isinstance(int_rows, (_Entries, _Bits)):
        return int_rows
    if isinstance(int_rows, np.ndarray):
        if int_rows.ndim != 2 or not np.can_cast(int_rows.dtype, np.int64):
            raise TypeError(f"expected a 2-D array of int64-castable integers, "
                            f"got {int_rows.dtype} of shape {int_rows.shape}")
        return int_rows
    rows = [tuple(map(operator.index, row)) for row in int_rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"rows of unequal length: {[len(row) for row in rows]}")
    shape = (len(rows), len(rows[0]) if rows else 0)
    try:
        return np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        if p is not None:
            rows = [[v % p for v in row] for row in rows]
        return np.array(rows, dtype=object if p is None else np.int64).reshape(shape)


def _bareiss(a):
    """Fraction-free elimination of a copy of a coerced matrix (``_coerced``).

    The elimination runs over Python ints, so fixed-width inputs cannot wrap.
    Returns ``(echelon rows, pivot columns, row swaps)``: the echelon rows
    span the input's row space, zero left of their pivots.  A full-rank
    square matrix has the last pivot times ``(-1) ** swaps`` as determinant.
    """
    m = (a if a.dtype == object else a.astype(np.int64, copy=False)).tolist()
    nr, nc = a.shape
    prev = 1
    swaps = 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        pivot = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        piv = m[r][c]
        top = m[r]
        for i in range(r + 1, nr):
            row = m[i]
            f = row[c]
            for j in range(c + 1, nc):
                num = row[j] * piv - f * top[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row[j] = q
            row[c] = 0
        prev = piv
        pivots.append(c)
    return m[:len(pivots)], pivots, swaps


def bareiss_rank_int(int_rows) -> int:
    """Exact rank of an integer matrix (rows or a 2-D array, read by
    ``_coerced``) by fraction-free elimination."""
    return len(_bareiss(_coerced(int_rows))[1])


def det_int(int_rows) -> int:
    """Exact determinant of a square integer matrix (rows or a 2-D array,
    read by ``_coerced``)."""
    a = _coerced(int_rows)
    n = len(a)
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    echelon, pivots, swaps = _bareiss(a)
    if len(pivots) < n:
        return 0
    return -echelon[-1][-1] if swaps % 2 else echelon[-1][-1]


def _modp_echelon(rows, p: int):
    """Row echelon form mod p of a coerced int64-castable matrix
    (``_coerced``), pivots scaled to 1; returns ``(echelon rows as an int64
    array, pivot columns)``.

    The work is an int64 copy with delayed reduction.  Entries start in
    ``[0, p)``.  At each pivot only the candidate column and the pivot row
    are reduced; the rows below that the pivot column hits take
    ``outer(multipliers, pivot row)`` unreduced, on the pivot row's nonzero
    columns only when those are fewer than half.  Each such update subtracts
    at most (p - 1)^2 and a row takes one per pivot at most, so every
    ``period`` pivots the rows updated since, flagged through row swaps, are
    reduced before any entry can pass -2^63.  The returned rows are reduced.
    Raises ValueError for ``p >= 2^31``, where one product would overflow.
    """
    _check_prime_bound(p)
    a = rows.astype(np.int64, order="C")  # row operations below
    a %= p
    nr, nc = a.shape
    period = (2 ** 63 - 1 - p) // (p - 1) ** 2
    updated = np.zeros(nr, dtype=bool)  # rows updated since the last reduction
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        col = a[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            updated[[r, i]] = updated[[i, r]]
        # Rows r and below are zero left of column c, so only a[:, c:] changes.
        top = a[r, c:]
        top %= p
        top *= pow(int(top[0]), p - 2, p)
        top %= p
        hit = r + nz[1:]  # the rows below that column c hits; the swap moved a zero
        if hit.size:
            live = top.nonzero()[0]
            if 2 * live.size < top.size:  # a sparse pivot row: update its columns only
                a[np.ix_(hit, c + live)] -= np.outer(a[hit, c], top[live])
            else:
                a[hit, c:] -= np.outer(a[hit, c], top)
            updated[hit] = True
        pivots.append(c)
        if len(pivots) % period == 0:
            a[r + 1 + np.flatnonzero(updated[r + 1:]), c + 1:] %= p
            updated[:] = False
    return a[:len(pivots)], pivots


# Entry b is byte b with its bits in reverse order: bit k moves to bit 7 - k.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _f2_rank(rows) -> int:
    """Rank mod 2 of a coerced matrix (``_coerced``): an int64-castable
    array or ``_Bits``, one row at a time, each row a Python int.

    A ``_Bits`` matrix is read from its bytes as they are.  An array's
    parities, ``& 1`` in its own dtype (two's complement parity for
    negatives, so no wider copy is made), are first packed into one the same
    way, eight columns to a byte.  Rows are read last first, and each row's
    bytes are bit-reversed (``_BIT_REVERSED``) and read little-endian, so
    column j is bit j: the last column is the top bit, and the padding bits
    of the last byte land above it, zero.  Only one row is reversed at a
    time, never a copy of the whole matrix.  A row is reduced against a
    table of pivot rows keyed by their top bit (``bit_length``, a small int,
    where a low-bit key ``v & -v`` would be as wide as the row and hashed at
    every step): while its own top bit has a pivot, that pivot is XORed in.
    A row that reaches zero is dependent; otherwise it becomes the pivot of
    its new top bit.  The rank is the size of the table.

    The rank is the same in any order; the work is not.  ``theta_rank`` and
    ``gamma_span_rank`` build their systems in the lattice's linear-order
    labeling (``functor._in_linear_order``), bottom first, and this order
    suits it: chain3's theta system at six points takes 4,680 row XORs read
    last row first with pivots on the last column, against 18,360 read first
    row first with pivots on the first column (chain2's at eight points,
    11,592 against 260,064).
    """
    if not isinstance(rows, _Bits):
        bits = rows if rows.dtype == bool else rows & 1
        rows = _Bits(rows.shape, np.packbits(bits, axis=1, bitorder="big"))
    width = rows.packed.shape[1]
    packed = rows.packed.tobytes()
    pivots = {}
    for i in range(len(packed) - width, -1, -width or -1):  # rows of no columns take no bytes
        v = int.from_bytes(packed[i:i + width].translate(_BIT_REVERSED), "little")
        while v:
            top = v.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = v
                break
            v ^= pivot
    return len(pivots)


def modp_rank(int_rows, p: int = DEFAULT_PRIME) -> int:
    """Rank mod p of integer rows, a 2-D integer array or a ``_Bits`` matrix
    (read by ``_coerced``); always <= the rational rank.  Mod 2 it is
    ``_f2_rank``; for any other prime a ``_Bits`` matrix is unpacked."""
    rows = _coerced(int_rows, p)
    if p == 2:
        return _f2_rank(rows)
    return len(_modp_echelon(_unpacked(rows), p)[1])


class RankStats:
    """How ``fast_int_rank`` settled one rank, plus the caller's build time.

    ``shape`` is (rows, columns) after pruning; ``peeled`` counts the pivots
    settled by peeling singletons.  A rational matrix with an entry past
    int64 is neither pruned nor peeled: its ``shape`` is the input's and its
    path ``"bareiss"``.  Over ``F_p`` such entries are read as residues, so
    ``shape`` counts the residues' rows and columns.  ``path`` names what
    settled the rest: ``"structural"`` (pruning and peeling settled the
    whole rank, as for an all-zero matrix), ``"modp-certified"`` (the rank
    mod p of the remainder reached min of its shape), ``"bareiss"``
    (fraction-free fallback on the remainder) or ``"prime-field"``.
    ``prime`` is the prime whose elimination settled the remainder: 2 or
    ``DEFAULT_PRIME`` on ``"modp-certified"``, the ring's p on
    ``"prime-field"``, ``None`` otherwise.  A plain class: a dataclass
    would add about a millisecond to ``import cfl``.
    """

    __slots__ = ("shape", "path", "peeled", "prime", "build_s", "eliminate_s")

    def __init__(self, shape=(0, 0), path=""):
        self.shape, self.path, self.peeled, self.prime = shape, path, 0, None
        self.build_s = self.eliminate_s = 0.0


# Cells a block holds when a matrix is read into, or built as, its nonzero entries.
_BLOCK_CELLS = 1 << 18


class _Entries:
    """A matrix of ``shape`` as a builder emits it: ``rows``, ``cols`` and
    ``vals`` of its nonzero entries in row-major order, columns ascending
    within a row, no cell twice.  ``dense`` scatters it into zeros."""

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows, cols, vals):
        self.shape, self.rows, self.cols, self.vals = shape, rows, cols, vals

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


class _Bits:
    """A 0/1 matrix of ``shape`` as the theta builder emits it, packed
    eight columns to a byte: ``packed`` is a ``(rows, ceil(cols / 8))``
    uint8 array, each row big-endian (column 0 is the top bit of its first
    byte), its padding bits zero.  ``dense`` unpacks rows into ``dtype``,
    int8."""

    __slots__ = ("shape", "packed")
    dtype = np.dtype(np.int8)

    def __init__(self, shape, packed):
        self.shape, self.packed = shape, packed

    def dense(self, rows=slice(None)) -> np.ndarray:
        return np.unpackbits(self.packed[rows], axis=1, count=self.shape[1]).view(self.dtype)


def _row_blocks(m):
    """An array or ``_Bits``, unpacked, as blocks of consecutive rows, each
    with the index of its first row: at most ``_BLOCK_CELLS`` cells to a
    block but one row at least.  A matrix of no columns has no blocks."""
    nr, nc = m.shape
    step = max(1, _BLOCK_CELLS // max(nc, 1))
    read = m.dense if isinstance(m, _Bits) else m.__getitem__
    for i in range(0, nr if nc else 0, step):
        yield i, read(slice(i, i + step))


def _nonzero_entries(a):
    """Row, column and value of each nonzero entry of a 2-D array or a
    ``_Bits`` matrix, in row-major order, as three arrays (the values in
    ``a``'s dtype).

    The matrix is read once, a block of rows at a time (``_row_blocks``),
    so the comparison with zero holds at most ``_BLOCK_CELLS`` cells and no
    copy of an array is made."""
    nr, nc = a.shape
    flats, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=a.dtype)]
    for i, block in _row_blocks(a):
        block = block.ravel()  # a view when a is C-contiguous
        at = np.flatnonzero(block != 0)
        vals.append(block[at])
        at += i * nc
        flats.append(at)
    cols, vals = np.concatenate(flats), np.concatenate(vals)
    del flats
    rows = np.empty_like(cols)
    np.divmod(cols, max(nc, 1), out=(rows, cols))
    return rows, cols, vals


def _distinct_rows(rows, cols, vals, nc):
    """Row-major entries of a matrix of ``nc`` columns without those of
    repeated rows (first occurrences kept, in order), compared exactly by
    the bytes of their column and value runs."""
    # the first entry of each nonzero row, and one past its last
    ends = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1, [len(rows)]))
    runs = np.empty(len(rows), dtype=[("col", np.min_scalar_type(nc)), ("val", vals.dtype)])
    runs["col"], runs["val"] = cols, vals
    key, bounds = runs.tobytes(), (ends * runs.itemsize).tolist()
    del runs
    first = {}
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        first.setdefault(key[lo:hi], k)
    if len(first) == len(ends) - 1:
        return rows, cols, vals
    kept = np.zeros(len(ends) - 1, dtype=bool)
    kept[list(first.values())] = True
    kept = np.repeat(kept, np.diff(ends))
    return rows[kept], cols[kept], vals[kept]


def _live(vals, p):
    """Which nonzero values stay nonzero mod p, or None when all do: over
    the rationals, and for a dtype whose every nonzero value lies strictly
    between -p and p.  The test runs in the values' own dtype."""
    if p is None or vals.dtype == bool:
        return None
    info = np.iinfo(vals.dtype)
    if -p < info.min and info.max < p:
        return None
    return vals % vals.dtype.type(p) != 0


def _reduces_to_itself(m) -> bool:
    """Whether pruning and peeling leave a ``_Bits`` matrix as it is: no
    row repeats, and every row and every column holds two ones or more.

    Row counts are read from the bytes (``bitwise_count``), repeated rows
    from the bytes of each row, and column counts from the rows unpacked
    block by block (``_row_blocks``); each test runs only when those before
    it pass."""
    nr, nc = m.shape
    if not nr or np.bitwise_count(m.packed).sum(axis=1).min() < 2:
        return False
    width, packed = m.packed.shape[1], m.packed.tobytes()
    if len({packed[i:i + width] for i in range(0, len(packed), width)}) < nr:
        return False
    counts = np.zeros(nc, dtype=np.int64)
    for _, block in _row_blocks(m):
        counts += block.sum(axis=0, dtype=np.int32)
    return counts.min() >= 2


def _reduced(m, p):
    """Prune and peel a coerced matrix (``_coerced``: an int64-castable
    array, ``_Entries`` or ``_Bits``) on the coordinates of its nonzero
    entries; returns ``(shape, peeled, rest)``.

    A ``_Bits`` matrix that nothing prunes or peels (``_reduces_to_itself``)
    is its own rest, never unpacked whole.  Any other array or ``_Bits`` is
    read once as ``_Entries``, block by block of rows (``_nonzero_entries``),
    so the rest of the pass reads one form.  Pruning drops zero rows,
    repeated rows (``_distinct_rows``) and zero columns, none of which
    changes the rank; ``shape`` is what it leaves.

    Peeling then settles singletons.  A column with exactly one live entry
    is a pivot: removing it with the row of that entry drops the rank by
    exactly 1, over any field in which the entry is nonzero.  So is a row
    with one live entry, with its column.  Live means nonzero, or nonzero
    mod p when ``p`` is given, tested on the nonzero values only.  Columns,
    then rows, are peeled in turn until neither gives a singleton; several
    singletons on one line remove it once.  Each round costs one
    ``bincount`` over the live coordinates.

    ``rest`` is the pruned matrix when nothing peels, and otherwise the
    surviving rows and columns that still hold a live entry, in order.  It
    is the one array made, scattered from the kept entries.
    """
    if isinstance(m, _Bits) and _reduces_to_itself(m):
        return m.shape, 0, m
    if not isinstance(m, _Entries):
        m = _Entries(m.shape, *_nonzero_entries(m))
    nr, nc = m.shape
    rows, cols, vals = _distinct_rows(m.rows, m.cols, m.vals, nc)
    live = _live(vals, p)
    rest_rows = np.flatnonzero(np.bincount(rows, minlength=nr))
    rest_cols = np.flatnonzero(np.bincount(cols, minlength=nc))
    shape = (len(rest_rows), len(rest_cols))

    coords = (rows, cols) if live is None or live.all() else (rows[live], cols[live])
    keep = (np.ones(nr, dtype=bool), np.ones(nc, dtype=bool))
    size = (nr, nc)
    peeled = idle = 0
    axis = 1
    while idle < 2:
        line, partner = coords[axis], coords[1 - axis]
        single = np.bincount(line, minlength=size[axis])[line] == 1
        if single.any():
            keep[axis][line[single]] = False
            # One pivot per line crossing a singleton, however many it crosses.
            other = keep[1 - axis]
            alive = np.count_nonzero(other)
            other[partner[single]] = False
            peeled += int(alive - np.count_nonzero(other))
            held = keep[0][coords[0]] & keep[1][coords[1]]
            coords = (coords[0][held], coords[1][held])
            idle = 0
        else:
            idle += 1
        axis = 1 - axis
    if peeled:
        rest_rows, rest_cols = (np.flatnonzero(np.bincount(c, minlength=n))
                                for c, n in zip(coords, size))
    held = np.isin(rows, rest_rows) & np.isin(cols, rest_cols)
    rest = _Entries((len(rest_rows), len(rest_cols)), np.searchsorted(rest_rows, rows[held]),
                    np.searchsorted(rest_cols, cols[held]), vals[held])
    return shape, peeled, rest.dense()


def fast_int_rank(int_rows, ring=RATIONALS, stats: RankStats | None = None) -> int:
    """Rank of an integer matrix (rows or a 2-D integer array, read by
    ``_coerced``) over ``ring``, with a certificate.

    The cascade is prune and peel, mod 2, mod p, Bareiss; over the
    rationals an entry past int64 sends the whole matrix to fraction-free
    elimination (``_bareiss``), and over ``F_p`` it is read as its residue.
    ``_reduced`` drops zero rows, repeated rows and zero columns and peels
    singletons in one pass over the nonzero entries; each peeled pivot adds
    exactly 1, and only the rest is made dense.  Over a prime field the
    rest is ranked mod p, and that is the answer.  Over the rationals an
    empty rest is exact, and otherwise a rank of the rest mod any prime is
    a lower bound, which pins the rank when it reaches
    min(rows, cols) of the rest: mod 2 (``_f2_rank``) tries first, then mod
    ``DEFAULT_PRIME``, then fraction-free elimination of the rest decides.
    ``stats``, if given, records the pruned shape, the peeled pivots, the
    path, the prime that settled it and the elimination time.
    """
    return _rank(_coerced(int_rows, ring.p), ring, stats)


def _rank(m, ring, stats: RankStats | None = None) -> int:
    """The cascade of ``fast_int_rank`` on a matrix ``_coerced`` has read."""
    start = time.perf_counter()
    if isinstance(m, np.ndarray) and m.dtype == object:  # past int64, over the rationals
        shape, peeled, path, prime, r = m.shape, 0, "bareiss", None, len(_bareiss(m)[1])
    else:
        shape, peeled, rest = _reduced(m, ring.p)
        if ring.p is not None:
            path, prime, r = "prime-field", ring.p, modp_rank(rest, ring.p)
        elif not rest.shape[0]:
            path, prime, r = "structural", None, 0
        else:
            full = min(rest.shape)
            path, prime, r = "modp-certified", 2, _f2_rank(rest)
            if r < full:
                rest = _unpacked(rest)
                prime, r = DEFAULT_PRIME, modp_rank(rest)
                if r < full:
                    path, prime, r = "bareiss", None, bareiss_rank_int(rest)
    if stats is not None:
        stats.shape, stats.path, stats.peeled, stats.prime = shape, path, peeled, prime
        stats.eliminate_s = time.perf_counter() - start
    return peeled + r


def _unpacked(m):
    """A rest of ``_reduced`` as an array: a ``_Bits`` matrix unpacked
    (``_Bits.dense``), an array as it is."""
    return m.dense() if isinstance(m, _Bits) else m
