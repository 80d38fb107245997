"""Exact scalars and dense matrices with rank and nullspace.

Two coefficient rings are supported: arbitrary-precision rationals (the
default, scalars are ``fractions.Fraction``) and a prime field ``F_p``
(scalars are ints reduced mod p).

``fast_int_rank`` is the one rank entry point, for both rings.  It takes
integer rows or a 2-D integer numpy array and first drops zero rows,
repeated rows and zero columns, none of which changes the rank.  Over
``F_p`` the rank is ``modp_rank``, vectorized elimination in an int64
copy.  Over the rationals the rank mod a fixed prime is a lower bound for
the rational rank, so when it reaches the row or column count it already
pins the exact value; otherwise fraction-free (Bareiss) elimination runs in
full over Python ints.  ``ExactMatrix.rank`` clears each row's denominators
and calls it too.  A ``RankStats`` record, if passed, reports the shape
that reached elimination and which of these paths settled the rank.

``ExactMatrix.nullspace`` alone uses reduced row echelon form over the
matrix's ring; pivoting takes the first nonzero entry, so the basis is
reproducible.  ``det_int`` shares the fraction-free elimination: the last
pivot is the determinant up to the sign of the row swaps.  That elimination
coerces every entry to a Python int, so fixed-width inputs cannot wrap.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

import numpy as np

DEFAULT_PRIME = 1000003

# modp_rank eliminates in int64, which is exact while (p - 1)^2 < 2^63.
MAX_PRIME = 2 ** 31


class Rationals:
    """Exact rational arithmetic on ``fractions.Fraction`` values."""

    name = "rat"
    exact = True

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(x):
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Arithmetic mod a prime, on plain int values in ``0..p-1``."""

    exact = False  # ranks mod p can undershoot the characteristic-zero rank

    def __init__(self, p: int):
        _check_prime_bound(p)
        if p < 2 or any(p % q == 0 for q in range(2, min(p, 1 + int(p ** 0.5) + 1))):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"p:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

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
    """A dense rectangular matrix over an exact ring."""

    __slots__ = ("rows", "cols", "data", "ring")

    def __init__(self, data, cols=None, ring=RATIONALS):
        data = [tuple(ring.of(v) for v in row) for row in data]
        if data:
            cols = len(data[0]) if cols is None else cols
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = len(data)
        self.cols = cols
        self.data = tuple(data)
        self.ring = ring

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self.data) if self.data else [],
                           cols=self.rows, ring=self.ring)

    def rank(self) -> int:
        return fast_int_rank(_cleared_int_rows(self.data), self.ring)

    def nullspace(self):
        """Echelonized basis of ``{v : M v = 0}`` as tuples of scalars."""
        ring = self.ring
        if self.rows == 0:
            return [tuple(ring.one if j == i else ring.zero for j in range(self.cols))
                    for i in range(self.cols)]
        _, pivots, rref = _rref_field(self.data, ring)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [ring.zero] * self.cols
            v[free] = ring.one
            for i, pc in enumerate(pivots):
                v[pc] = ring.neg(rref[i][free])
            basis.append(tuple(v))
        return basis

    def mul_vector(self, v):
        ring = self.ring
        out = []
        for row in self.data:
            acc = ring.zero
            for a, b in zip(row, v):
                acc = ring.add(acc, ring.mul(a, b))
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, ring={self.ring.name})"


def subspace_equal(vectors_a, vectors_b, cols: int, ring=RATIONALS) -> bool:
    """Whether two families of vectors span the same subspace."""
    a = list(vectors_a)
    b = list(vectors_b)
    for v in a + b:
        if len(v) != cols:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {cols}")
    ra = ExactMatrix(a, cols=cols, ring=ring).rank()
    rb = ExactMatrix(b, cols=cols, ring=ring).rank()
    if ra != rb:
        return False
    return ExactMatrix(a + b, cols=cols, ring=ring).rank() == ra


def _rref_field(data, ring):
    """Reduced row echelon over a field; returns (rank, pivot columns, rref rows)."""
    m = [list(row) for row in data]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if not ring.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [ring.mul(inv, v) for v in m[r]]
        for i in range(nr):
            if i != r and not ring.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [ring.sub(v, ring.mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return r, pivots, m


def _cleared_int_rows(data):
    """Scale each row by the lcm of its denominators; rank is unchanged."""
    out = []
    for row in data:
        scale = 1
        for v in row:
            d = v.denominator if isinstance(v, Fraction) else 1
            scale = scale * d // gcd(scale, d)
        out.append([int(v * scale) for v in row])
    return out


def _bareiss(int_rows):
    """Fraction-free elimination of a copy of the integer rows.

    Every entry is coerced to a Python int first, so fixed-width inputs such
    as numpy arrays cannot wrap.  Returns ``(rank, last pivot, row swaps)``.
    When a square matrix has full rank, its determinant is the last pivot
    times ``(-1) ** swaps``.
    """
    m = [[int(v) for v in row] for row in int_rows]
    nr, nc = len(m), len(m[0])
    prev = 1
    swaps = 0
    r = 0
    for c in range(nc):
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
        r += 1
        if r == nr:
            break
    return r, prev, swaps


def bareiss_rank_int(int_rows) -> int:
    """Exact rank of an integer matrix (rows or a 2-D array) by fraction-free
    elimination."""
    rows = list(int_rows)
    if not rows or len(rows[0]) == 0:
        return 0
    return _bareiss(rows)[0]


def det_int(int_rows) -> int:
    """Exact determinant of a square integer matrix (rows or a 2-D array)."""
    rows = list(int_rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    rank_, last, swaps = _bareiss(rows)
    if rank_ < n:
        return 0
    return -last if swaps % 2 else last


def modp_rank(int_rows, p: int = DEFAULT_PRIME) -> int:
    """Rank mod p by vectorized elimination; always <= the rational rank.

    Takes integer rows or a 2-D integer array, which is eliminated in an
    int64 copy (uint64 and object arrays are refused: they may not fit).
    Raises ValueError for ``p >= 2^31``, where int64 products would
    overflow.
    """
    _check_prime_bound(p)
    if isinstance(int_rows, np.ndarray):
        if int_rows.ndim != 2 or not np.can_cast(int_rows.dtype, np.int64):
            raise TypeError(f"expected a 2-D array of int64-castable integers, "
                            f"got {int_rows.dtype} of shape {int_rows.shape}")
        a = int_rows.astype(np.int64, order="C")  # row operations below
        a %= p
    else:
        rows = [row for row in int_rows if any(row)]
        if not rows:
            return 0
        a = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    nr, nc = a.shape
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1:]
        if below.shape[0]:
            f = below[:, c]
            hit = np.nonzero(f)[0]
            if hit.size:
                below[hit] = (below[hit] - np.outer(f[hit], a[r])) % p
        r += 1
    return r


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
    if isinstance(ring, PrimeField):
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
