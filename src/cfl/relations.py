"""Binary correspondences between finite index sets, packed as bit-matrix rows.

A correspondence from a source set of size ``src_size`` to a target set of
size ``dst_size`` is a set of pairs ``(y, x)`` with ``y`` a target index and
``x`` a source index.  Row ``y`` is a machine integer used as a bitmask over
the source indices, which keeps composition and all set operations exact.
Elements are always canonical indices ``0..n-1``.
"""

from __future__ import annotations

from collections import namedtuple

# Desk-scale guard against runaway allocations.  One machine word: the
# largest supported derived structure (the subset lattice of a 6-element
# lattice) has 2^6 = 64 elements.
MAX_POINTS = 64


def _check_size(n: int) -> None:
    if not 0 <= n <= MAX_POINTS:
        raise ValueError(f"set size {n} outside supported range 0..{MAX_POINTS}")


class Correspondence:
    """An exact subset of ``dst x src`` pairs with bitmask rows.

    Immutable after construction; all operations return fresh values.
    """

    __slots__ = ("dst_size", "src_size", "rows")

    def __init__(self, dst_size: int, src_size: int, rows):
        _check_size(dst_size)
        _check_size(src_size)
        rows = tuple(rows)
        if len(rows) != dst_size:
            raise ValueError(f"expected {dst_size} rows, got {len(rows)}")
        mask = (1 << src_size) - 1
        for y, r in enumerate(rows):
            if r & ~mask:
                raise ValueError(f"row {y} has bits outside 0..{src_size - 1}")
        self.dst_size = dst_size
        self.src_size = src_size
        self.rows = rows

    @classmethod
    def _trusted(cls, dst_size: int, src_size: int, rows: tuple) -> "Correspondence":
        """A correspondence from a row tuple known to be in range; no checks."""
        c = object.__new__(cls)
        c.dst_size, c.src_size, c.rows = dst_size, src_size, rows
        return c

    @classmethod
    def from_pairs(cls, dst_size: int, src_size: int, pairs) -> "Correspondence":
        rows = [0] * dst_size
        for y, x in pairs:
            if not (0 <= y < dst_size and 0 <= x < src_size):
                raise ValueError(f"pair {(y, x)} out of range")
            rows[y] |= 1 << x
        return cls(dst_size, src_size, rows)

    @classmethod
    def empty(cls, dst_size: int, src_size: int) -> "Correspondence":
        return cls(dst_size, src_size, [0] * dst_size)

    @classmethod
    def full(cls, dst_size: int, src_size: int) -> "Correspondence":
        m = (1 << src_size) - 1
        return cls(dst_size, src_size, [m] * dst_size)

    @classmethod
    def identity(cls, n: int) -> "Correspondence":
        return cls(n, n, [1 << x for x in range(n)])

    def pairs(self):
        for y, r in enumerate(self.rows):
            while r:
                low = r & -r
                yield (y, low.bit_length() - 1)
                r ^= low

    def __contains__(self, pair) -> bool:
        y, x = pair
        return 0 <= y < self.dst_size and 0 <= x < self.src_size and bool(self.rows[y] >> x & 1)

    def is_square(self) -> bool:
        return self.dst_size == self.src_size

    def compose(self, other: "Correspondence") -> "Correspondence":
        """Relational composition; ``(z, x)`` related iff some middle ``y`` links them."""
        if self.src_size != other.dst_size:
            raise ValueError(
                f"composition mismatch: {self.src_size} middle vs {other.dst_size}"
            )
        out = []
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc |= other.rows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Correspondence._trusted(self.dst_size, other.src_size, tuple(out))

    def __matmul__(self, other):
        return self.compose(other)

    def opposite(self) -> "Correspondence":
        """Transpose: ``(x, y)`` related iff ``(y, x)`` was."""
        out = [0] * self.src_size
        for y, r in enumerate(self.rows):
            bit = 1 << y
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return Correspondence._trusted(self.src_size, self.dst_size, tuple(out))

    def _same_shape(self, other):
        if (self.dst_size, self.src_size) != (other.dst_size, other.src_size):
            raise ValueError("shape mismatch")

    def __or__(self, other):
        self._same_shape(other)
        return Correspondence._trusted(self.dst_size, self.src_size,
                                       tuple([a | b for a, b in zip(self.rows, other.rows)]))

    def __and__(self, other):
        self._same_shape(other)
        return Correspondence._trusted(self.dst_size, self.src_size,
                                       tuple([a & b for a, b in zip(self.rows, other.rows)]))

    def __le__(self, other):
        self._same_shape(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __eq__(self, other):
        return (isinstance(other, Correspondence)
                and self.dst_size == other.dst_size
                and self.src_size == other.src_size
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dst_size, self.src_size, self.rows))

    def __repr__(self):
        return (f"Correspondence({self.dst_size}, {self.src_size}, "
                f"pairs={sorted(self.pairs())})")


class OrderFlags(namedtuple("OrderFlags", ["reflexive", "transitive", "antisymmetric"])):
    __slots__ = ()

    @property
    def is_preorder(self) -> bool:
        return self.reflexive and self.transitive

    @property
    def is_order(self) -> bool:
        return self.is_preorder and self.antisymmetric


def order_flags(r: Correspondence) -> OrderFlags:
    """Evaluate the order axioms on a square relation."""
    if not r.is_square():
        raise ValueError("order axioms need a square relation")
    n = r.dst_size
    reflexive = all(r.rows[a] >> a & 1 for a in range(n))
    transitive = r.compose(r) <= r
    antisym = all(not (a != b and (r.rows[b] >> a & 1))
                  for a in range(n) for b in range(n) if r.rows[a] >> b & 1)
    return OrderFlags(reflexive, transitive, antisym)


def reflexive_transitive_closure(r: Correspondence) -> Correspondence:
    if not r.is_square():
        raise ValueError("closure needs a square relation")
    n = r.dst_size
    rows = [r.rows[a] | (1 << a) for a in range(n)]
    for k in range(n):
        bit = 1 << k
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= rows[k]
    return Correspondence._trusted(n, n, tuple(rows))


def preorder_quotient(r: Correspondence):
    """Collapse a preorder along mutual comparability.

    Returns ``(order, projection)`` where ``order`` is the induced partial
    order on the equivalence classes of ``x ~ y  iff  (x,y) and (y,x)`` and
    ``projection[x]`` is the class index of ``x``.  Classes are numbered by
    their smallest member.
    """
    flags = order_flags(r)
    if not flags.is_preorder:
        raise ValueError("input is not a preorder (reflexive and transitive)")
    n = r.dst_size
    projection = [-1] * n
    reps = []
    for x in range(n):
        if projection[x] >= 0:
            continue
        cls = len(reps)
        reps.append(x)
        projection[x] = cls
        for y in range(x + 1, n):
            if projection[y] < 0 and (r.rows[x] >> y & 1) and (r.rows[y] >> x & 1):
                projection[y] = cls
    m = len(reps)
    quo = Correspondence.from_pairs(
        m, m,
        ((a, b) for a in range(m) for b in range(m) if r.rows[reps[a]] >> reps[b] & 1))
    return quo, tuple(projection)
