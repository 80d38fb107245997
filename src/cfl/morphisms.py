"""Formal linear combinations of join-maps and the chain-quotient calculus.

For a lattice ``T`` and a strictly increasing tuple ``B`` avoiding the top,
``pi_of_tuple`` is the quotient of ``T`` onto a total order and
``j_of_tuple`` is its Mobius-weighted one-sided inverse.  Their composites
``f_dc`` multiply like matrix units, and summing the diagonal ones yields
the central idempotent ``e_t`` projecting onto the span of all
join-endomorphisms with totally ordered image (``tot_basis``).

A ``Family`` holds morphisms of one Hom-space as integer numerators over
its distinct join-maps, with one denominator per member.
``compose_families`` is the one composition algorithm: it gathers every
composite's images in one numpy step, keys the distinct rows by their
bytes, and sums the products of numerators as integers, in int64 only when
a bound rules out overflow and as Python ints otherwise.
``LinMorphism.compose`` is its one-by-one case.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .lattices import CapExceeded, JoinMap, Lattice, _bits, chain, mobius

# A chain scan tests C(|pool|, size) subsets and is refused above
# MAX_CHAIN_SCAN.  The central idempotent and the chain-image basis expand
# every top-avoiding chain (a 10-element chain has 2^9 of them) and are
# refused above MAX_CHAIN_TUPLES.  The suite's lattices have at most 8 elements.
MAX_CHAIN_SCAN = 2 ** 14
MAX_CHAIN_TUPLES = 2 ** 9


class TermNotInBasis(ValueError):
    pass


class LinMorphism:
    """A finite formal sum of join-maps with exact rational coefficients.

    ``terms`` maps each join-map to its nonzero ``Fraction`` coefficient, so
    equality of the term dictionaries is equality of morphisms.  The public
    constructor checks and merges its terms.  Sums, negations and scalings
    of valid terms are valid, so they merge through the unchecked
    ``_trusted``.  ``compose`` is ``compose_families`` on two one-member
    families.
    """

    __slots__ = ("src", "dst", "terms")

    def __init__(self, src: Lattice, dst: Lattice, terms):
        merged = {}
        for m, c in (terms.items() if isinstance(terms, dict) else terms):
            if m.src != src or m.dst != dst:
                raise ValueError("term with mismatched source or target lattice")
            c = Fraction(c)
            if c:
                acc = merged.get(m)
                total = c if acc is None else acc + c
                if total:
                    merged[m] = total
                elif acc is not None:
                    del merged[m]
        self.src = src
        self.dst = dst
        self.terms = merged

    @classmethod
    def _trusted(cls, src: Lattice, dst: Lattice, terms: dict) -> "LinMorphism":
        """Wrap a dict of distinct ``src -> dst`` maps to nonzero Fractions; no checks."""
        out = object.__new__(cls)
        out.src = src
        out.dst = dst
        out.terms = terms
        return out

    @classmethod
    def zero(cls, src: Lattice, dst: Lattice) -> "LinMorphism":
        return cls(src, dst, {})

    @classmethod
    def of_map(cls, m: JoinMap, coeff=1) -> "LinMorphism":
        return cls(m.src, m.dst, {m: Fraction(coeff)})

    @classmethod
    def identity(cls, lattice: Lattice) -> "LinMorphism":
        return cls.of_map(JoinMap.identity(lattice))

    def __add__(self, other: "LinMorphism") -> "LinMorphism":
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("sum of morphisms between different lattices")
        out = dict(self.terms)
        for m, c in other.terms.items():
            total = out.get(m, 0) + c
            if total:
                out[m] = total
            else:
                del out[m]
        return LinMorphism._trusted(self.src, self.dst, out)

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
        return compose_families(Family(self.src, self.dst, [self]),
                                Family(other.src, other.dst, [other])).member(0, 0)

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


def _int_dtype(bound: int):
    """int64 when no value can reach ``bound`` in absolute value, else Python ints."""
    return np.int64 if bound < 2 ** 63 else object


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row, so that ``np.unique`` keys whole rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)


class Family:
    """Morphisms ``src -> dst`` as integer numerators over distinct join-maps.

    Member ``i`` is ``sum(nums[t] * g[at[t]]) / dens[i]`` over the terms
    ``t`` with ``owner[t] == i``, where ``g[k]`` is the join-map with image
    row ``images[k]`` and ``dens[i]`` is the lcm of that member's
    coefficient denominators.  ``weight`` bounds the sum of the absolute
    numerators of any one member.
    """

    __slots__ = ("src", "dst", "images", "owner", "at", "nums", "dens", "weight")

    def __init__(self, src: Lattice, dst: Lattice, members):
        owner, at, nums, dens = [], [], [], []
        where = {}                       # image tuple -> row of ``images``
        weight = 0
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
        self.src = src
        self.dst = dst
        self.images = np.array(list(where), np.min_scalar_type(dst.n - 1)).reshape(-1, src.n)
        self.owner = np.array(owner, np.intp)
        self.at = np.array(at, np.intp)
        self.nums = np.array(nums, _int_dtype(weight))
        self.dens = dens
        self.weight = weight

    def __len__(self):
        return len(self.dens)


class Products:
    """Every ``outer[i]`` after ``inner[j]``: ``nums[i, j] / dens[i * k + j]``,
    with ``k = len(inner)``, are its coefficients on the join-maps whose
    image rows are ``images``."""

    __slots__ = ("src", "dst", "images", "nums", "dens", "_maps")

    def __init__(self, src: Lattice, dst: Lattice, images: np.ndarray, nums: np.ndarray,
                 dens: list):
        self.src = src
        self.dst = dst
        self.images = images
        self.nums = nums
        self.dens = dens
        self._maps = None

    def member(self, i: int, j: int) -> LinMorphism:
        if self._maps is None:
            self._maps = [JoinMap._trusted(self.src, self.dst, tuple(row))
                          for row in self.images.tolist()]
        den = self.dens[i * self.nums.shape[1] + j]
        pairs = zip(self._maps, self.nums[i, j].tolist())
        if den == 1:      # the common case; Fraction(c) skips the gcd
            terms = {m: Fraction(c) for m, c in pairs if c}
        else:
            terms = {m: Fraction(c, den) for m, c in pairs if c}
        return LinMorphism._trusted(self.src, self.dst, terms)

    def first_mismatch(self, family: Family, picks):
        """The first pair ``(i, j)`` whose product differs from member
        ``picks[i * len(inner) + j]`` of ``family``, or from zero where that
        pick is negative; ``None`` when every product matches.

        Both sides are laid out over the union of their image rows, with
        the denominators cross-multiplied."""
        picks = np.asarray(picks, np.intp)
        if len(picks) != len(self.dens):
            raise ValueError(f"need one pick per product, got {len(picks)} for {len(self.dens)}")
        union, key = np.unique(_row_keys(np.concatenate([self.images, family.images])),
                               return_inverse=True)
        mine, theirs = key[:len(self.images)], key[len(self.images):]
        got = self.nums.reshape(len(picks), self.nums.shape[2])
        bad = (picks < 0) & got.any(axis=1)
        rows = np.flatnonzero(picks >= 0)
        members, back = np.unique(picks[rows], return_inverse=True)
        slot = np.full(len(family), -1, np.intp)
        slot[members] = np.arange(len(members))
        terms = np.flatnonzero(slot[family.owner] >= 0)
        want = np.zeros((len(members), len(union)), family.nums.dtype)
        want[slot[family.owner[terms]], theirs[family.at[terms]]] = family.nums[terms]
        want = want[back.reshape(-1)]
        have = np.zeros_like(want, self.nums.dtype)
        have[:, mine] = got[rows]
        have_dens = [self.dens[r] for r in rows.tolist()]
        want_dens = [family.dens[p] for p in picks[rows].tolist()]
        bound = max(int(np.abs(have).max(initial=0)) * max(want_dens, default=1),
                    int(np.abs(want).max(initial=0)) * max(have_dens, default=1))
        dtype = _int_dtype(bound)
        left = have.astype(dtype) * np.array(want_dens, dtype)[:, None]
        right = want.astype(dtype) * np.array(have_dens, dtype)[:, None]
        bad[rows] = (left != right).any(axis=1)
        wrong = np.flatnonzero(bad)
        return divmod(int(wrong[0]), self.nums.shape[1]) if len(wrong) else None


def compose_families(outer: Family, inner: Family) -> Products:
    """Every composite ``outer[i]`` after ``inner[j]``, as one integer batch.

    The images ``g(f(t))`` of every pair of maps in the two families come
    from one numpy gather, and one ``np.unique`` over their bytes keys the
    distinct composites.  Each pair of terms adds the product of its
    numerators at its composite's key, in int64 only when the weights bound
    every sum below 2^63.
    """
    if inner.dst != outer.src:
        raise ValueError("middle lattice mismatch")
    rows = outer.images[:, inner.images].reshape(-1, inner.src.n)
    _, first, cell = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    cell = cell.reshape(len(outer.images), len(inner.images))
    m, k, u = len(outer), len(inner), len(first)
    dtype = _int_dtype(outer.weight * inner.weight)
    slots = (outer.owner[:, None] * k + inner.owner) * u + cell[outer.at[:, None], inner.at]
    values = outer.nums.astype(dtype)[:, None] * inner.nums.astype(dtype)
    nums = np.zeros(m * k * u, dtype)
    np.add.at(nums, slots.reshape(-1), values.reshape(-1))
    dens = [a * b for a in outer.dens for b in inner.dens]
    return Products(inner.src, outer.dst, rows[first], nums.reshape(m, k, u), dens)


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


def lambda_of_tuple(v: ChainTuple) -> JoinMap:
    """The embedding of a total order along a bottom-avoiding chain; monotone
    from a chain with the bottom kept, so built unchecked."""
    if v.kind != "Y":
        raise ValueError("lambda_of_tuple needs a Y-kind tuple")
    return JoinMap._trusted(chain(len(v)), v.lattice, (v.lattice.bottom,) + v.entries)


def f_dc(d: ChainTuple, c: ChainTuple) -> LinMorphism:
    """The matrix-unit endomorphism ``j - then - pi`` for two same-size chains."""
    if len(d) != len(c):
        raise ValueError("tuples must have the same size")
    if d.lattice != c.lattice:
        raise ValueError("tuples must live in the same lattice")
    return j_of_tuple(d) @ pi_of_tuple(c)


def rho_y(n: int, ys) -> JoinMap:
    """The endomorphism of the total order keeping levels in ``ys`` and
    dropping the others one step; monotone with the bottom kept, so built
    unchecked."""
    ys = set(ys)
    if any(not 1 <= h <= n for h in ys):
        raise ValueError(f"levels must lie in 1..{n}")
    images = (0,) + tuple(h if h in ys else h - 1 for h in range(1, n + 1))
    return JoinMap._trusted(chain(n), chain(n), images)


def beta(n: int, m: int) -> LinMorphism:
    """The central idempotent of the total order selecting the size-``m`` block."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    total = LinMorphism.zero(chain(n), chain(n))
    for b in p_tuples(chain(n), m):
        total = total + f_dc(b, b)
    return total


def epsilon(n: int) -> LinMorphism:
    """The top central idempotent of the total order, ``beta(n, n)``."""
    return beta(n, n)


def e_t(lattice: Lattice) -> LinMorphism:
    """Sum of all diagonal matrix units; central, and the identity on the
    span of chain-image endomorphisms."""
    diagonal = [b for n in range(max_tuple_size(lattice) + 1)
                for b in p_tuples(lattice, n)]
    _check_chain_tuples(len(diagonal), "central idempotent")
    total = LinMorphism.zero(lattice, lattice)
    for b in diagonal:
        total = total + f_dc(b, b)
    return total


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


def lin_to_vector(alpha: LinMorphism, basis):
    """Coefficients of a morphism over a fixed list of join-maps."""
    position = {m: i for i, m in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for m, c in alpha.terms.items():
        try:
            vec[position[m]] = c
        except KeyError:
            raise TermNotInBasis(f"term {m!r} not in the given basis") from None
    return vec
