"""Coefficient rings and integer elimination: rank, nullspace, determinant.

The rings are the rationals (``RATIONALS``) and a prime field
(``PrimeField(p)``): tags with ``name``, ``exact`` and ``p`` (``None`` for
the rationals).  Matrices are integer rows or 2-D integer numpy arrays;
``_cleared_int_rows`` is the one place a ``Fraction`` becomes an int, by
scaling each row by the lcm of its denominators (over ``F_p`` a denominator
that p divides has no image and raises ValueError).

Two eliminations return echelon rows and pivot columns: ``_modp_echelon``,
vectorized in an int64 copy with pivots scaled to 1, and ``_bareiss``,
fraction-free over Python ints, so fixed-width inputs cannot wrap.
``fast_int_rank`` is the one rank entry point, for both rings.  It drops
zero rows, repeated rows and zero columns, then takes the rank mod p.  Over
``F_p`` that is the answer.  Over the rationals it is a lower bound, which
pins the rank when it reaches the row or column count; otherwise Bareiss
decides.  A ``RankStats`` record, if passed, reports the shape that reached
elimination and the path that settled the rank.

``ExactMatrix`` stores cleared rows; its nullspace back-substitutes one
vector per free column through the echelon rows (``Fraction`` division over
the rationals, arithmetic mod p over ``F_p``).  ``det_int`` reads the last
Bareiss pivot, signed by the parity of the row swaps.
"""

from __future__ import annotations

import itertools
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
    if spec.startswith("p:"):
        return PrimeField(int(spec[2:]))
    raise ValueError(f"unknown ring {spec!r}; expected 'rat' or 'p:PRIME'")


class ExactMatrix:
    """A dense rectangular matrix over a ring, stored as cleared integer rows.

    ``data`` holds each input row times ``scales``, the lcm of its
    denominators; that scaling changes neither the rank nor the nullspace.
    """

    __slots__ = ("rows", "cols", "data", "scales", "ring")

    def __init__(self, data, cols=None, ring=RATIONALS):
        data, scales = _cleared_int_rows(data, ring.p)
        if data:
            cols = len(data[0]) if cols is None else cols
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = len(data)
        self.cols = cols
        self.data = tuple(data)
        self.scales = tuple(scales)
        self.ring = ring

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[Fraction(row[j], s) for row, s in zip(self.data, self.scales)]
                            for j in range(self.cols)], cols=self.rows, ring=self.ring)

    def rank(self) -> int:
        return fast_int_rank(self.data, self.ring)

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

    Each family is rows (of ints or ``Fraction``s) or a 2-D integer array;
    the ranks of the two and of their union decide."""
    a, b = (v if isinstance(v, np.ndarray) else _cleared_int_rows(v, ring.p)[0]
            for v in (vectors_a, vectors_b))
    for v in itertools.chain(a, b):
        if len(v) != cols:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {cols}")
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        both = np.vstack([a, b])
    else:
        both = [list(map(int, v)) for v in itertools.chain(a, b)]
    ra = fast_int_rank(a, ring)
    return ra == fast_int_rank(b, ring) == fast_int_rank(both, ring)


def _cleared_int_rows(data, p=None):
    """Each row scaled to Python ints by the lcm of its denominators; returns
    (rows, scales).  Over ``F_p`` (``p`` given) a denominator that p divides
    has no image, and raises ValueError."""
    rows, scales = [], []
    for row in data:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        if p is not None and scale % p == 0:
            raise ValueError(f"entry with a denominator divisible by {p} has no value mod {p}")
        rows.append(tuple(v.numerator * (scale // v.denominator) for v in row))
        scales.append(scale)
    return rows, scales


def _bareiss(int_rows):
    """Fraction-free elimination of a copy of the integer rows.

    Entries become Python ints by ``operator.index``, so fixed-width inputs
    cannot wrap and a non-integer (or a numpy bool) raises TypeError.
    Returns ``(echelon rows, pivot columns, row swaps)``: the echelon rows
    span the input's row space, zero left of their pivots.  A full-rank
    square matrix has the last pivot times ``(-1) ** swaps`` as determinant.
    """
    m = [[operator.index(v) for v in row] for row in int_rows]
    nr, nc = len(m), len(m[0]) if m else 0
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
    """Exact rank of an integer matrix (rows or a 2-D array) by fraction-free
    elimination."""
    return len(_bareiss(int_rows)[1])


def det_int(int_rows) -> int:
    """Exact determinant of a square integer matrix (rows or a 2-D array)."""
    rows = list(int_rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    echelon, pivots, swaps = _bareiss(rows)
    if len(pivots) < n:
        return 0
    return -echelon[-1][-1] if swaps % 2 else echelon[-1][-1]


def _modp_echelon(int_rows, p: int):
    """Row echelon form mod p of an int64 copy, pivots scaled to 1; returns
    ``(echelon rows as an array, pivot columns)``.

    Takes integer rows or a 2-D integer array (uint64 and object arrays are
    refused: they may not fit in int64; non-integer row entries raise
    TypeError).  Raises ValueError for ``p >= 2^31``, where int64 products
    would overflow.
    """
    _check_prime_bound(p)
    if isinstance(int_rows, np.ndarray):
        if int_rows.ndim != 2 or not np.can_cast(int_rows.dtype, np.int64):
            raise TypeError(f"expected a 2-D array of int64-castable integers, "
                            f"got {int_rows.dtype} of shape {int_rows.shape}")
        a = int_rows.astype(np.int64, order="C")  # row operations below
        a %= p
    else:
        a = np.array([[operator.index(v) % p for v in row] for row in int_rows],
                     dtype=np.int64, ndmin=2)
    nr, nc = a.shape
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # Rows r and below are zero left of column c, so only a[:, c:] changes.
        top = a[r, c:]
        top *= pow(int(top[0]), p - 2, p)
        top %= p
        below = a[r + 1:, c:]
        hit = np.flatnonzero(below[:, 0])
        if hit.size:
            below[hit] = (below[hit] - np.outer(below[hit, 0], top)) % p
        pivots.append(c)
    return a[:len(pivots)], pivots


def modp_rank(int_rows, p: int = DEFAULT_PRIME) -> int:
    """Rank mod p of integer rows or a 2-D integer array (as taken by
    ``_modp_echelon``); always <= the rational rank."""
    return len(_modp_echelon(int_rows, p)[1])


class RankStats:
    """How ``fast_int_rank`` settled one rank, plus the caller's build time.

    ``shape`` is (rows, columns) of the matrix that reached elimination;
    ``path`` is ``"modp-certified"`` (the rank mod p reached min(shape)),
    ``"bareiss"`` (fraction-free fallback) or ``"prime-field"``.  A plain
    class: a dataclass would add about a millisecond to ``import cfl``.
    """

    __slots__ = ("shape", "path", "build_s", "eliminate_s")

    def __init__(self, shape=(0, 0), path="", build_s=0.0, eliminate_s=0.0):
        self.shape, self.path = shape, path
        self.build_s, self.eliminate_s = build_s, eliminate_s


def _pruned(int_rows):
    """The matrix without zero rows, repeated rows (first occurrences kept,
    in order) and zero columns, none of which changes the rank.

    A 2-D array stays an array; anything else becomes a list of tuples."""
    if isinstance(int_rows, np.ndarray):
        a = int_rows[int_rows.any(axis=1)]
        first = {}
        for i, row in enumerate(a):
            first.setdefault(row.tobytes(), i)
        a = a[list(first.values())]
        return a[:, a.any(axis=0)]
    rows = list(dict.fromkeys(tuple(r) for r in int_rows if any(r)))
    keep = [j for j, col in enumerate(zip(*rows)) if any(col)]
    return [tuple(row[j] for j in keep) for row in rows]


def fast_int_rank(int_rows, ring=RATIONALS, stats: RankStats | None = None) -> int:
    """Rank of an integer matrix (rows or a 2-D integer array) over ``ring``,
    with a cheap certificate.

    Zero rows, repeated rows and zero columns are dropped first.  Over a
    prime field the result is the rank mod p.  Over the rationals the rank
    mod the fixed prime is a lower bound; if it matches min(rows, cols) the
    exact rank is pinned without big-integer work, otherwise fraction-free
    elimination over Python ints decides.  ``stats``, if given, records the
    pruned shape, the path taken and the elimination time.
    """
    start = time.perf_counter()
    a = _pruned(int_rows)
    shape = (len(a), len(a[0]) if len(a) else 0)
    if ring.p is not None:
        path, r = "prime-field", modp_rank(a, ring.p)
    else:
        path, r = "modp-certified", modp_rank(a)
        if r < min(shape):
            rows = a.tolist() if isinstance(a, np.ndarray) else a
            path, r = "bareiss", bareiss_rank_int(rows)
    if stats is not None:
        stats.shape, stats.path = shape, path
        stats.eliminate_s = time.perf_counter() - start
    return r
