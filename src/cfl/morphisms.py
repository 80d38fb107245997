"""Formal linear combinations of join-maps and the chain-quotient calculus.

For a lattice ``T`` and a strictly increasing tuple ``B`` avoiding the top,
``pi_of_tuple`` is the quotient of ``T`` onto a total order and
``j_of_tuple`` is its Mobius-weighted one-sided inverse.  Their composites
(``unit_block``) multiply like matrix units, and summing the diagonal ones
yields the central idempotent ``e_t`` projecting onto the span of all
join-endomorphisms with totally ordered image (``tot_basis``).

A ``Family`` is the one batch type: morphisms of one Hom-space as a dense
table of integer numerators over their distinct join-maps, with one
denominator per member.  ``compose_pairs`` is the one composition algorithm:
it keys the composites of paired members' maps one column at a time, with
no sort (``_distinct_rows``), and sums products of numerators at their keys
into a ``Family`` whose member ``i`` is ``outer[i]`` after ``inner[i]``.
``compose_families`` pairs every member with every other, member
``i * len(inner) + j`` being ``outer[i]`` after ``inner[j]``, and
``stack_families`` lays families over their common maps.
``first_product_mismatch`` compares all those products with picked members
of a third family without building them, a block of outer members at a time.
``Family.over`` tabulates a family over a list of join-maps, and
``LinMorphism.compose`` is the one-by-one case.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .lattices import CACHE_SIZE, CapExceeded, JoinMap, Lattice, _bits, chain, mobius

# A chain scan tests C(|pool|, size) subsets and is refused above
# MAX_CHAIN_SCAN.  The central idempotent and the chain-image basis expand
# every top-avoiding chain (a 10-element chain has 2^9 of them) and are
# refused above MAX_CHAIN_TUPLES.  The suite's lattices have at most 8 elements.
MAX_CHAIN_SCAN = 2 ** 14
MAX_CHAIN_TUPLES = 2 ** 9


class TermNotInBasis(ValueError):
    """A term outside a given list of join-maps; ``images`` is its image row."""

    def __init__(self, images):
        self.images = tuple(images)
        super().__init__(f"term with images {list(self.images)} not in the given maps")


def _merged(out: dict, pairs) -> dict:
    """``out`` with the ``(join-map, Fraction)`` pairs added; zero sums drop out."""
    for m, c in pairs:
        total = out.get(m, 0) + c
        if total:
            out[m] = total
        else:
            out.pop(m, None)
    return out


class LinMorphism:
    """A finite formal sum of join-maps with exact rational coefficients.

    ``terms`` maps each join-map to its nonzero ``Fraction`` coefficient, so
    equality of the term dictionaries is equality of morphisms.  The public
    constructor checks its terms, and it and sums merge through ``_merged``.
    Sums, negations and scalings of valid terms are valid, so they wrap
    through the unchecked ``_trusted``.  ``compose`` is ``compose_pairs`` on
    two one-member families.
    """

    __slots__ = ("src", "dst", "terms")

    def __init__(self, src: Lattice, dst: Lattice, terms):
        pairs = [(m, Fraction(c)) for m, c in (terms.items() if isinstance(terms, dict) else terms)]
        if any(m.src != src or m.dst != dst for m, _ in pairs):
            raise ValueError("term with mismatched source or target lattice")
        self.src, self.dst, self.terms = src, dst, _merged({}, pairs)

    @classmethod
    def _trusted(cls, src: Lattice, dst: Lattice, terms: dict) -> "LinMorphism":
        """Wrap a dict of distinct ``src -> dst`` maps to nonzero Fractions; no checks."""
        out = object.__new__(cls)
        out.src, out.dst, out.terms = src, dst, terms
        return out

    @classmethod
    def zero(cls, src: Lattice, dst: Lattice) -> "LinMorphism":
        return cls(src, dst, {})

    @classmethod
    def of_map(cls, m: JoinMap) -> "LinMorphism":
        return cls(m.src, m.dst, {m: Fraction(1)})

    @classmethod
    def identity(cls, lattice: Lattice) -> "LinMorphism":
        return cls.of_map(JoinMap.identity(lattice))

    def __add__(self, other: "LinMorphism") -> "LinMorphism":
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("sum of morphisms between different lattices")
        return LinMorphism._trusted(self.src, self.dst,
                                    _merged(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return LinMorphism._trusted(self.src, self.dst,
                                    {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        terms = {m: scalar * c for m, c in self.terms.items()} if scalar else {}
        return LinMorphism._trusted(self.src, self.dst, terms)

    def compose(self, other: "LinMorphism") -> "LinMorphism":
        """Bilinear extension of composition; ``self`` after ``other``."""
        return compose_pairs(Family(self.src, self.dst, [self]),
                             Family(other.src, other.dst, [other])).member(0)

    def __matmul__(self, other):
        if isinstance(other, JoinMap):
            other = LinMorphism.of_map(other)
        return self.compose(other)

    def __rmatmul__(self, other):
        if isinstance(other, JoinMap):
            return LinMorphism.of_map(other).compose(self)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, LinMorphism) and self.src == other.src
                and self.dst == other.dst and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        parts = sorted(((m.images, c) for m, c in self.terms.items()))
        return "LinMorphism(" + " + ".join(f"{c}*{list(i)}" for i, c in parts) + ")"


def _int_dtype(bound: int, least=np.int64):
    """The narrowest of int8 to int64, from ``least`` up, holding -bound..bound; else object."""
    kinds = (np.int8, np.int16, np.int32, np.int64)
    return next((t for t in kinds[kinds.index(least):] if bound <= np.iinfo(t).max), object)


def _distinct_rows(columns, count: int):
    """``(first, key)`` for ``count`` rows of non-negative integers, given
    column by column: the index of each distinct row's first occurrence, in
    lexicographic row order, and each row's position in that order.

    A row's key among the distinct prefixes and its next value make a code,
    ``key * (column maximum + 1) + value``; the ranks of the codes present
    key the longer prefixes.  No sort, and one path for any row width."""
    key, distinct = np.zeros(count, np.uint8), min(count, 1)
    parts = [slice(lo, min(lo + 2 ** 13, count)) for lo in range(0, count, 2 ** 13)]
    for column in columns:
        values = int(column.max(initial=0)) + 1
        codes = key.astype(np.min_scalar_type(distinct * values)) * values + column
        present = np.zeros(distinct * values, bool)
        for part in parts:  # numpy copies each index array to intp
            present[codes[part]] = True
        distinct = np.count_nonzero(present)
        rank = np.cumsum(present, dtype=np.min_scalar_type(distinct)) - 1
        key = np.concatenate([rank[:0]] + [rank.take(codes[part]) for part in parts])
    first = np.full(distinct, count, np.min_scalar_type(count))
    for part in parts:
        np.minimum.at(first, key[part], np.arange(part.start, part.stop, dtype=first.dtype))
    return first.astype(np.intp), key


class Family:
    """Morphisms ``src -> dst`` as integer numerators over distinct join-maps.

    Member ``i`` is ``sum(nums[i, k] * g[k]) / dens[i]``, where ``g[k]`` is
    the join-map with image row ``images[k]`` and ``dens[i]`` is a positive
    common denominator (the lcm of the member's coefficient denominators
    when built from morphisms).  ``weight`` bounds ``sum(abs(nums[i]))`` for
    every member; ``nums`` is int64 only when that bound is below 2^63.
    ``over`` gives the same numerators as columns of a given list of maps.
    """

    __slots__ = ("src", "dst", "images", "nums", "dens", "weight", "_maps", "_nonzero")

    def __init__(self, src: Lattice, dst: Lattice, members):
        owner, at, nums, dens = [], [], [], []
        where, weight = {}, 0            # image tuple -> row of ``images``
        for i, alpha in enumerate(members):
            if alpha.src != src or alpha.dst != dst:
                raise ValueError("family member with mismatched source or target lattice")
            terms = alpha.terms
            scale = math.lcm(*(c.denominator for c in terms.values()))
            row = [c.numerator * (scale // c.denominator) for c in terms.values()]
            owner += [i] * len(row)
            at += [where.setdefault(m.images, len(where)) for m in terms]
            nums += row
            dens.append(scale)
            weight = max(weight, sum(map(abs, row)))
        self.src, self.dst, self.dens, self.weight = src, dst, dens, weight
        self._maps = self._nonzero = None
        self.images = np.array(list(where), np.min_scalar_type(dst.n - 1)).reshape(-1, src.n)
        self.nums = np.zeros((len(dens), len(where)), _int_dtype(weight))
        self.nums[owner, at] = nums

    @classmethod
    def _trusted(cls, src, dst, images, nums, dens, weight) -> "Family":
        """Wrap distinct image rows and their numerator columns; no checks."""
        out = object.__new__(cls)
        out.src, out.dst, out.images, out.nums = src, dst, images, nums
        out.dens, out.weight, out._maps, out._nonzero = dens, weight, None, None
        return out

    def __len__(self):
        return len(self.dens)

    def take(self, rows) -> "Family":
        """The members ``rows``, in that order, over the same join-maps."""
        return Family._trusted(self.src, self.dst, self.images, self.nums[rows],
                               [self.dens[i] for i in rows], self.weight)

    def _terms(self):
        """Member, column and value of each nonzero numerator, found once: a
        family can be the operand of many products, its table far larger."""
        if self._nonzero is None:
            owner, at = np.nonzero(self.nums)
            self._nonzero = owner, at, self.nums[owner, at]
        return self._nonzero

    def member(self, i: int) -> LinMorphism:
        if self._maps is None:
            self._maps = [JoinMap._trusted(self.src, self.dst, tuple(row))
                          for row in self.images.tolist()]
        den = self.dens[i]
        pairs = zip(self._maps, self.nums[i].tolist())
        if den == 1:      # the common case; Fraction(c) skips the gcd
            terms = {m: Fraction(c) for m, c in pairs if c}
        else:
            terms = {m: Fraction(c, den) for m, c in pairs if c}
        return LinMorphism._trusted(self.src, self.dst, terms)

    def over(self, maps) -> np.ndarray:
        """The numerators laid over ``maps``, distinct join-maps ``src -> dst``:
        entry ``[i, k]`` is member ``i``'s numerator at ``maps[k]``.

        Raises ``TermNotInBasis`` for the first image row, in the order of
        ``images``, that no map in the list has."""
        if any(m.src != self.src or m.dst != self.dst for m in maps):
            raise ValueError("map with mismatched source or target lattice")
        column = {m.images: k for k, m in enumerate(maps)}
        try:
            at = [column[row] for row in map(tuple, self.images.tolist())]
        except KeyError as stray:
            raise TermNotInBasis(stray.args[0]) from None
        table = np.zeros((len(self), len(maps)), self.nums.dtype)
        table[:, at] = self.nums
        return table


def compose_families(outer: Family, inner: Family) -> Family:
    """Every composite ``outer[i]`` after ``inner[j]``, as member
    ``i * len(inner) + j`` of one family: the paired product of each outer
    member repeated with the inner family tiled."""
    i, j = np.divmod(np.arange(len(outer) * len(inner)), len(inner))
    return compose_pairs(outer.take(i), inner.take(j))


def compose_pairs(outer: Family, inner: Family) -> Family:
    """``outer[i]`` after ``inner[i]``, as member ``i``: the diagonal of
    ``compose_families``.  Only the composites of each member's own terms are
    keyed, and the sums are int64 only when the weights bound them below 2^63."""
    if len(outer) != len(inner):
        raise ValueError("paired families of different lengths")
    if inner.dst != outer.src:
        raise ValueError("middle lattice mismatch")
    (g_owner, g_at, g_nums), (f_owner, f_at, f_nums) = outer._terms(), inner._terms()
    lo, hi = (np.searchsorted(f_owner, g_owner, side) for side in ("left", "right"))
    g = np.repeat(np.arange(len(g_owner)), hi - lo)  # each outer term with its member's inner terms
    f = np.arange(len(g)) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
    rows = outer.images[g_at[g, None], inner.images[f_at[f]]]
    first, key = _distinct_rows(rows.T, len(rows))
    weight = outer.weight * inner.weight
    nums = np.zeros((len(outer), len(first)), _int_dtype(max(weight, outer.weight, inner.weight)))
    np.add.at(nums, (g_owner[g], key), g_nums[g].astype(nums.dtype) * f_nums[f])
    return Family._trusted(inner.src, outer.dst, rows[first], nums,
                           [a * b for a, b in zip(outer.dens, inner.dens)], weight)


def stack_families(parts) -> Family:
    """The members of each family in ``parts``, one Hom-space, in order, over
    the distinct image rows of all of them, keyed once."""
    images = np.concatenate([p.images for p in parts])
    first, key = _distinct_rows(images.T, len(images))
    nums = np.zeros((sum(map(len, parts)), len(first)), np.result_type(*(p.nums for p in parts)))
    row = col = 0
    for p in parts:
        nums[row:row + len(p), key[col:col + len(p.images)]] = p.nums
        row, col = row + len(p), col + len(p.images)
    return Family._trusted(parts[0].src, parts[0].dst, images[first], nums,
                           [den for p in parts for den in p.dens], max(p.weight for p in parts))


# One block's table in ``first_product_mismatch``: one chain5 unit's 226 x 226 int8 cells.
_TABLE_BYTES = 2 ** 16


def first_product_mismatch(outer: Family, inner: Family, expected: Family, picks):
    """The first member ``i * len(inner) + j`` of ``outer`` after ``inner``
    (as ``compose_families`` numbers them) that differs from ``expected[p]``,
    or from zero where ``p`` is negative; ``None`` when all match.
    ``picks(rows)`` gives the ``p`` of the outer members in the slice
    ``rows``, one row of ``len(inner)`` per member.

    The composites of the two families' image rows and ``expected``'s rows
    are keyed once.  A block of outer members at a time, the products minus
    the picked terms (denominators cross-multiplied) are summed into one
    zeroed table of about ``_TABLE_BYTES``, a row of keys per product, in the
    narrowest exact dtype."""
    if inner.dst != outer.src:
        raise ValueError("middle lattice mismatch")
    if (expected.src, expected.dst) != (inner.src, outer.dst):
        raise ValueError("expected family between other lattices")
    split = len(outer.images) * len(inner.images)
    first, key = _distinct_rows((np.concatenate([outer.images[:, f].reshape(-1), t])
                                 for f, t in zip(inner.images.T, expected.images.T)),
                                split + len(expected.images))
    cell, want_at = key[:split].reshape(len(outer.images), len(inner.images)), key[split:]
    m, k, u = len(outer), len(inner), len(first)
    top = [max(family.dens, default=1) for family in (outer, inner, expected)]
    dtype = _int_dtype(max(outer.weight, 1) * max(inner.weight, 1) * top[2]
                       + max(expected.weight, 1) * top[0] * top[1], np.int8)
    g_dens, f_dens, e_dens = (np.array(f.dens, dtype) for f in (outer, inner, expected))
    (g_owner, g_at, g_nums), (f_owner, f_at, f_nums) = outer._terms(), inner._terms()
    g_nums, f_nums, want = g_nums.astype(dtype), f_nums.astype(dtype), expected.nums.astype(dtype)
    block = max(1, _TABLE_BYTES // max(1, k * u * np.dtype(dtype).itemsize))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        p = np.asarray(picks(slice(lo, hi)), np.intp)
        if p.shape != (hi - lo, k):
            raise ValueError(f"need one pick per member, got shape {p.shape} for {(hi - lo, k)}")
        i, j = np.nonzero(p >= 0)
        hit, p = i * k + j, p[i, j]
        table = np.zeros(((hi - lo) * k, u), dtype)  # the picked terms, then the products
        table[hit[:, None], want_at] = want[p] * -(g_dens[lo + i] * f_dens[j])[:, None]
        scale = np.ones(len(table), dtype)
        scale[hit] = e_dens[p]
        terms = slice(*np.searchsorted(g_owner, [lo, hi]))
        member = ((g_owner[terms] - lo)[:, None] * k + f_owner).reshape(-1)
        slots = member * u + np.take(cell[g_at[terms]], f_at, axis=1).reshape(-1)
        values = (g_nums[terms, None] * f_nums).reshape(-1) * scale[member]
        np.add.at(table.reshape(-1), slots, values)
        if table.any():
            return lo * k + int(np.flatnonzero(table.any(axis=1))[0])
    return None


def adjoint_op(f: JoinMap) -> JoinMap:
    """The right adjoint, as a join-map between the opposite lattices.

    ``f(t1) <= t2`` iff ``t1 <= adjoint_op(f)(t2)``; taking adjoints twice
    gives back ``f`` and reverses composition order.
    """
    src, dst = f.src, f.dst
    images = [src.join_many(x for x in range(src.n) if dst.le(f.images[x], t))
              for t in range(dst.n)]
    return JoinMap(dst.opposite(), src.opposite(), images)


class ChainTuple:
    """A strictly increasing tuple in a lattice, avoiding top or bottom.

    ``kind="P"`` tuples avoid the top element (quotient side), ``kind="Y"``
    tuples avoid the bottom (embedding side).
    """

    __slots__ = ("lattice", "entries", "kind")

    def __init__(self, lattice: Lattice, entries, kind: str = "P"):
        entries = tuple(entries)
        if kind not in ("P", "Y"):
            raise ValueError(f"kind must be 'P' or 'Y', got {kind!r}")
        forbidden = lattice.top if kind == "P" else lattice.bottom
        for e in entries:
            if e == forbidden:
                raise ValueError(f"element {e} not allowed in a {kind}-tuple")
            if not 0 <= e < lattice.n:
                raise ValueError(f"element {e} outside lattice")
        for a, b in zip(entries, entries[1:]):
            if a == b or not lattice.le(a, b):
                raise ValueError(f"entries not strictly increasing at {a}, {b}")
        self.lattice = lattice
        self.entries = entries
        self.kind = kind

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, ChainTuple) and self.lattice == other.lattice
                and self.entries == other.entries and self.kind == other.kind)

    def __hash__(self):
        return hash((self.lattice, self.entries, self.kind))

    def __repr__(self):
        return f"ChainTuple({list(self.entries)}, kind={self.kind!r})"


def _chains(lattice: Lattice, size: int, avoid: int):
    pool = [e for e in range(lattice.n) if e != avoid]
    scan = math.comb(len(pool), size)
    if scan > MAX_CHAIN_SCAN:
        raise CapExceeded(f"chain scan of {scan} {size}-subsets exceeds cap {MAX_CHAIN_SCAN}")
    out = []
    for combo in itertools.combinations(pool, size):
        if all(lattice.le(a, b) or lattice.le(b, a)
               for a, b in itertools.combinations(combo, 2)):
            ordered = tuple(sorted(combo, key=lambda e: lattice.poset.down[e].bit_count()))
            out.append(ordered)
    out.sort()
    return out


def p_tuples(lattice: Lattice, n: int):
    """All size-``n`` chains avoiding the top, in lexicographic entry order."""
    return [ChainTuple(lattice, c, "P") for c in _chains(lattice, n, lattice.top)]


def y_tuples(lattice: Lattice, n: int):
    """All size-``n`` chains avoiding the bottom, in lexicographic entry order."""
    return [ChainTuple(lattice, c, "Y") for c in _chains(lattice, n, lattice.bottom)]


def max_tuple_size(lattice: Lattice) -> int:
    """Longest strictly increasing sequence avoiding the top element.

    One less than the longest chain, which ends at the top; chain lengths are
    found in one pass over the elements by down-set size, a linear extension.
    """
    down = lattice.poset.down
    height = [0] * lattice.n
    for e in sorted(range(lattice.n), key=lambda e: down[e].bit_count()):
        height[e] = 1 + max((height[d] for d in _bits(down[e] & ~(1 << e))), default=0)
    return height[lattice.top] - 1


def _check_chain_tuples(count: int, what: str) -> None:
    if count > MAX_CHAIN_TUPLES:
        raise CapExceeded(f"{what}: {count} chain tuples exceed cap {MAX_CHAIN_TUPLES}")


def pi_of_tuple(b: ChainTuple) -> JoinMap:
    """The surjection onto a total order determined by a top-avoiding chain.

    ``t`` goes to the first bound above it.  The bounds above ``t v u`` are
    those above both, so joins go to maxima and the map is built unchecked.
    """
    lattice = b.lattice
    if b.kind != "P":
        raise ValueError("pi_of_tuple needs a P-kind tuple")
    bounds = list(b.entries) + [lattice.top]
    images = tuple(next(h for h, bh in enumerate(bounds) if lattice.le(t, bh))
                   for t in range(lattice.n))
    return JoinMap._trusted(lattice, chain(len(b)), images)


def j_of_tuple(b: ChainTuple) -> LinMorphism:
    """The Mobius-weighted section attached to a top-avoiding chain.

    A signed sum over all tuples with ``a_h`` in the closed interval between
    consecutive bounds; terms with vanishing Mobius weight are dropped at
    construction.  Each term is monotone from a chain and sends the bottom
    to the bottom, so it preserves joins and is built unchecked.
    """
    lattice = b.lattice
    if b.kind != "P":
        raise ValueError("j_of_tuple needs a P-kind tuple")
    n = len(b)
    mob = mobius(lattice)
    bounds = list(b.entries) + [lattice.top]
    options = []
    for h in range(1, n + 1):
        lo, hi = bounds[h - 1], bounds[h]
        interval = [a for a in range(lattice.n) if lattice.le(lo, a) and lattice.le(a, hi)]
        options.append([(a, mob[lo, a]) for a in interval if mob[lo, a]])
    sign = -1 if n % 2 else 1
    terms = {}
    for choice in itertools.product(*options):
        images = (lattice.bottom,) + tuple(a for a, _ in choice)
        coeff = sign
        for _, w in choice:
            coeff *= w
        terms[JoinMap._trusted(chain(n), lattice, images)] = Fraction(coeff)
    return LinMorphism._trusted(chain(n), lattice, terms)


@functools.lru_cache(maxsize=CACHE_SIZE)
def unit_block(lattice: Lattice, n: int):
    """The size-``n`` top-avoiding chains of ``lattice`` (``p_tuples``), the
    family of their sections ``j_of_tuple(b)`` and that of their quotients
    ``pi_of_tuple(b)``; built once per lattice and size, and read-only.

    The units ``f_dc = j_of_tuple(d) @ pi_of_tuple(c)`` of size ``n`` are
    ``compose_families(sections, quotients)``, ``f_dc`` for the chains ``i``
    and ``j`` being member ``i * len + j``.  Each has exactly the terms of its
    section: ``pi_of_tuple(c)`` is onto, sending the ``h``-th bound (the
    entries of ``c``, then the top) to ``h``, so two terms of the section
    differ at some ``h = pi(t)`` and their composites differ at ``t``."""
    tuples = tuple(p_tuples(lattice, n))
    sections = Family(chain(n), lattice, [j_of_tuple(b) for b in tuples])
    quotients = Family(lattice, chain(n), [LinMorphism.of_map(pi_of_tuple(b)) for b in tuples])
    for family in (sections, quotients):  # every caller shares them
        family.images.flags.writeable = family.nums.flags.writeable = False
    return tuples, sections, quotients


def lambda_of_tuple(v: ChainTuple) -> JoinMap:
    """The embedding of a total order along a bottom-avoiding chain; monotone
    from a chain with the bottom kept, so built unchecked."""
    if v.kind != "Y":
        raise ValueError("lambda_of_tuple needs a Y-kind tuple")
    return JoinMap._trusted(chain(len(v)), v.lattice, (v.lattice.bottom,) + v.entries)


def rho_y(n: int, ys) -> JoinMap:
    """The endomorphism of the total order keeping levels in ``ys`` and
    dropping the others one step; monotone with the bottom kept, so built
    unchecked."""
    ys = set(ys)
    if any(not 1 <= h <= n for h in ys):
        raise ValueError(f"levels must lie in 1..{n}")
    images = (0,) + tuple(h if h in ys else h - 1 for h in range(1, n + 1))
    return JoinMap._trusted(chain(n), chain(n), images)


def _diagonal_sum(lattice: Lattice, sizes) -> LinMorphism:
    """The sum of the diagonal matrix units over the chains of the given
    sizes: each block's sections paired with its quotients."""
    diagonals = [compose_pairs(*unit_block(lattice, n)[1:]) for n in sizes]
    return sum((f.member(i) for f in diagonals for i in range(len(f))),
               LinMorphism.zero(lattice, lattice))


def beta(n: int, m: int) -> LinMorphism:
    """The central idempotent of the total order selecting the size-``m`` block."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return _diagonal_sum(chain(n), [m])


def e_t(lattice: Lattice) -> LinMorphism:
    """Sum of all diagonal matrix units; central, and the identity on the
    span of chain-image endomorphisms."""
    sizes = range(max_tuple_size(lattice) + 1)
    _check_chain_tuples(sum(len(p_tuples(lattice, n)) for n in sizes), "central idempotent")
    return _diagonal_sum(lattice, sizes)


def tot_basis(lattice: Lattice):
    """All join-endomorphisms whose image is totally ordered.

    Enumerated as embeddings composed with quotients over same-size chain
    pairs, in (size, quotient tuple, embedding tuple) order.
    """
    blocks = [(p_tuples(lattice, n), y_tuples(lattice, n))
              for n in range(max_tuple_size(lattice) + 1)]
    _check_chain_tuples(sum(len(us) for us, _ in blocks), "chain-image basis")
    out = []
    for us, vs in blocks:
        pis = [pi_of_tuple(u) for u in us]
        lams = [lambda_of_tuple(v) for v in vs]
        for pi in pis:
            for lam in lams:
                out.append(lam @ pi)
    return out

