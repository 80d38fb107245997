"""Finite posets and lattices over canonical indices ``0..n-1``.

The order relation is held as a :class:`~cfl.relations.Correspondence` whose
entry ``(a, b)`` means ``a <= b``.  Join and meet tables are validated and
precomputed at construction, so later operations are table lookups.  All
values are immutable and safe to share.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .relations import (MAX_POINTS, Correspondence, order_flags,
                        reflexive_transitive_closure)

# The ideal scan tests every subset of the points, so it is refused above this.
MAX_IDEAL_POINTS = 20
MAX_JOIN_MAP_SCAN = 2 ** 20  # 7^7 maps are scanned, 8^8 are refused
# Entries kept by the per-lattice caches; the full suite uses fewer than 20.
CACHE_SIZE = 256


class LatticeError(ValueError):
    """A named axiom failure with the first offending element pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotAntisymmetric(LatticeError):
    def __init__(self, a, b):
        super().__init__(f"not antisymmetric: {a} <= {b} and {b} <= {a}", (a, b))


class NoJoin(LatticeError):
    def __init__(self, a, b):
        super().__init__(f"elements {a} and {b} have no least upper bound", (a, b))


class NoMeet(LatticeError):
    def __init__(self, a, b):
        super().__init__(f"elements {a} and {b} have no greatest lower bound", (a, b))


class BottomNotPreserved(LatticeError):
    def __init__(self):
        super().__init__("map does not send bottom to bottom")


class NotJoinPreserving(LatticeError):
    def __init__(self, a, b):
        super().__init__(f"map breaks the join of {a} and {b}", (a, b))


class CapExceeded(ValueError):
    """A configured size cap would be overrun; nothing was computed."""


class Poset:
    """A finite poset: element count plus the ``a <= b`` relation."""

    __slots__ = ("n", "leq", "up", "down", "_hash")

    def __init__(self, leq: Correspondence):
        flags = order_flags(leq)
        if not flags.is_order:
            raise LatticeError(f"relation is not a partial order: {flags}")
        self.n = leq.dst_size
        self.leq = leq
        self.up = leq.rows                    # up[a] = mask of {b : a <= b}
        self.down = leq.opposite().rows       # down[b] = mask of {a : a <= b}
        self._hash = hash(leq)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Poset":
        rel = reflexive_transitive_closure(Correspondence.from_pairs(n, n, pairs))
        _check_antisymmetric(rel)
        return cls(rel)

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls(Correspondence.identity(n))

    def le(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def opposite(self) -> "Poset":
        return Poset(self.leq.opposite())

    def restrict(self, elements) -> "Poset":
        """Full subposet on the given elements, reindexed in list order."""
        elements = list(elements)
        pairs = [(i, j)
                 for i, a in enumerate(elements)
                 for j, b in enumerate(elements) if self.le(a, b)]
        return Poset(Correspondence.from_pairs(len(elements), len(elements), pairs))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Poset) and self._hash == other._hash
                and self.leq == other.leq)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        strict = [(a, b) for a, b in self.leq.pairs() if a != b]
        return f"Poset({self.n}, {strict})"


def _check_antisymmetric(rel: Correspondence) -> None:
    n = rel.dst_size
    for a in range(n):
        for b in range(a + 1, n):
            if rel.rows[a] >> b & 1 and rel.rows[b] >> a & 1:
                raise NotAntisymmetric(a, b)


def _least_of(poset: Poset, mask: int):
    """The least element of the masked subset, or None."""
    m = mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        if mask & ~poset.up[u] == 0:
            return u
        m ^= low
    return None


class Lattice:
    """A finite lattice with precomputed join and meet tables."""

    __slots__ = ("poset", "join", "meet", "bottom", "top", "_hash")

    def __init__(self, poset: Poset, join, meet, bottom: int, top: int):
        self.poset = poset
        self.join = tuple(tuple(row) for row in join)
        self.meet = tuple(tuple(row) for row in meet)
        self.bottom = bottom
        self.top = top
        self._hash = hash(("lat", poset.leq))

    @classmethod
    def from_poset(cls, poset: Poset) -> "Lattice":
        """Validate joins and meets; raises NoJoin/NoMeet on the first failing pair."""
        n = poset.n
        if n == 0:
            raise LatticeError("a lattice needs at least one element")
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        opp = poset.opposite()
        # Scan (0,1), (0,2), (1,2), (0,3), ... so the reported witness pair
        # involves the smallest possible elements.
        for b in range(n):
            for a in range(b + 1):
                j = _least_of(poset, poset.up[a] & poset.up[b])
                if j is None:
                    raise NoJoin(a, b)
                m = _least_of(opp, poset.down[a] & poset.down[b])
                if m is None:
                    raise NoMeet(a, b)
                join[a][b] = join[b][a] = j
                meet[a][b] = meet[b][a] = m
        bottom = functools.reduce(lambda x, y: meet[x][y], range(n))
        top = functools.reduce(lambda x, y: join[x][y], range(n))
        return cls(poset, join, meet, bottom, top)

    @property
    def n(self) -> int:
        return self.poset.n

    def le(self, a: int, b: int) -> bool:
        return self.poset.le(a, b)

    def join_many(self, elements) -> int:
        """Join of any iterable of elements; the empty join is bottom."""
        return functools.reduce(lambda x, y: self.join[x][y], elements, self.bottom)

    def meet_many(self, elements) -> int:
        return functools.reduce(lambda x, y: self.meet[x][y], elements, self.top)

    def opposite(self) -> "Lattice":
        return Lattice(self.poset.opposite(), self.meet, self.join, self.top, self.bottom)

    def is_chain(self) -> bool:
        return all(self.le(a, b) or self.le(b, a)
                   for a in range(self.n) for b in range(a + 1, self.n))

    def __eq__(self, other):
        return self is other or (isinstance(other, Lattice) and self.poset == other.poset)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice(n={self.n}, bottom={self.bottom}, top={self.top})"


def lattice_from_leq(n: int, pairs) -> Lattice:
    """Build a lattice from generating order pairs.

    The reflexive-transitive closure of ``pairs`` is taken first; the first
    failing axiom is reported by name with its witness pair.
    """
    return Lattice.from_poset(Poset.from_pairs(n, pairs))


@functools.lru_cache(maxsize=CACHE_SIZE)
def chain(n: int) -> Lattice:
    """The total order with elements ``0 < 1 < ... < n`` (n + 1 elements)."""
    return lattice_from_leq(n + 1, [(i, i + 1) for i in range(n)])


def r_of(lattice: Lattice, t: int) -> int:
    """Join of all elements strictly below ``t``; equals ``t`` iff ``t`` is reducible."""
    below = lattice.poset.down[t] & ~(1 << t)
    return lattice.join_many(_bits(below))


def irreducibles(lattice: Lattice):
    """Join-irreducible elements with their induced full subposet order."""
    elems = [e for e in range(lattice.n) if r_of(lattice, e) != e]
    return elems, lattice.poset.restrict(elems)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lower_ideal_masks(down, n: int):
    if n > MAX_IDEAL_POINTS:
        raise CapExceeded(f"ideal scan capped at {MAX_IDEAL_POINTS} points, "
                          f"the order has {n}")
    out = []
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            low = m & -m
            if down[low.bit_length() - 1] & ~mask:
                ok = False
                break
            m ^= low
        if ok:
            out.append(mask)
    return out


def _lattice_of_masks(masks) -> Lattice:
    """Lattice of a union/intersection-closed ascending family of bitmasks."""
    index = {m: i for i, m in enumerate(masks)}
    k = len(masks)
    pairs = [(i, j) for i in range(k) for j in range(k) if masks[i] & ~masks[j] == 0]
    poset = Poset(Correspondence.from_pairs(k, k, pairs))
    join = [[index[a | b] for b in masks] for a in masks]
    meet = [[index[a & b] for b in masks] for a in masks]
    return Lattice(poset, join, meet, index[masks[0]], index[masks[-1]])


def ideal_lattice(poset: Poset, direction: str = "lower"):
    """The lattice of lower (or upper) ideals of a poset.

    Elements are subset bitmasks sorted ascending by integer value; join is
    union and meet is intersection.  Upper ideals are exactly the lower
    ideals of the opposite order, with identical encodings.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    down = poset.down if direction == "lower" else poset.up
    masks = _lower_ideal_masks(down, poset.n)
    if len(masks) > MAX_POINTS:
        raise CapExceeded(f"{len(masks)} ideals exceed the {MAX_POINTS}-element "
                          f"lattice limit")
    return _lattice_of_masks(masks), tuple(masks)


def principal_embed(poset: Poset):
    """Map each element to the index of its principal lower ideal."""
    _, masks = ideal_lattice(poset, "lower")
    index = {m: i for i, m in enumerate(masks)}
    return [index[poset.down[e]] for e in range(poset.n)]


def is_distributive(lattice: Lattice) -> bool:
    n, join, meet = lattice.n, lattice.join, lattice.meet
    return all(meet[t][join[r][s]] == join[meet[t][r]][meet[t][s]]
               for t in range(n) for r in range(n) for s in range(n))


@functools.lru_cache(maxsize=CACHE_SIZE)
def mobius(obj):
    """Mobius table ``{(a, b): value}`` for all pairs ``a <= b`` of a poset or lattice.

    The table is cached per poset; treat the returned dict as read-only.
    """
    poset = obj.poset if isinstance(obj, Lattice) else obj
    order = sorted(range(poset.n), key=lambda e: poset.down[e].bit_count())
    table = {}
    for a in range(poset.n):
        for b in order:
            if not poset.le(a, b):
                continue
            if a == b:
                table[a, b] = 1
            else:
                table[a, b] = -sum(table[a, c]
                                   for c in _bits(poset.up[a] & poset.down[b] & ~(1 << b)))
    return table


class JoinMap:
    """A map between lattices commuting with all joins (including the empty one).

    The public constructor validates: the bottom must map to the bottom and
    the image of each binary join must be the join of the images.  Results
    that preserve joins by construction, such as composites, are built by
    the unchecked ``_trusted`` instead, which skips the O(n^2) scan.
    """

    __slots__ = ("src", "dst", "images", "_hash")

    def __init__(self, src: Lattice, dst: Lattice, images):
        images = tuple(images)
        if len(images) != src.n:
            raise ValueError(f"expected {src.n} images, got {len(images)}")
        for v in images:
            if not 0 <= v < dst.n:
                raise ValueError(f"image {v} outside target lattice")
        if images[src.bottom] != dst.bottom:
            raise BottomNotPreserved()
        for a in range(src.n):
            for b in range(a + 1, src.n):
                if images[src.join[a][b]] != dst.join[images[a]][images[b]]:
                    raise NotJoinPreserving(a, b)
        self.src = src
        self.dst = dst
        self.images = images
        self._hash = hash((src._hash, dst._hash, images))

    @classmethod
    def _trusted(cls, src: Lattice, dst: Lattice, images: tuple) -> "JoinMap":
        """A join-map from an image tuple known to preserve joins; no checks."""
        m = object.__new__(cls)
        m.src = src
        m.dst = dst
        m.images = images
        m._hash = hash((src._hash, dst._hash, images))
        return m

    def __call__(self, t: int) -> int:
        return self.images[t]

    @classmethod
    def identity(cls, lattice: Lattice) -> "JoinMap":
        return cls(lattice, lattice, range(lattice.n))

    @classmethod
    def constant_bottom(cls, src: Lattice, dst: Lattice) -> "JoinMap":
        return cls(src, dst, [dst.bottom] * src.n)

    def compose(self, other: "JoinMap") -> "JoinMap":
        """``self`` after ``other``."""
        if other.dst != self.src:
            raise ValueError("middle lattice mismatch")
        images = self.images
        return JoinMap._trusted(other.src, self.dst,
                                tuple([images[v] for v in other.images]))

    def __matmul__(self, other):
        if not isinstance(other, JoinMap):
            return NotImplemented
        return self.compose(other)

    def image_set(self):
        return sorted(set(self.images))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.dst.n

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, JoinMap) and self.images == other.images
                and self.src == other.src and self.dst == other.dst)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"JoinMap({list(self.images)})"


def join_maps(src: Lattice, dst: Lattice):
    """All join-preserving maps, by brute enumeration (desk scale only)."""
    scan = dst.n ** src.n
    if scan > MAX_JOIN_MAP_SCAN:
        raise CapExceeded(f"join-map scan of {dst.n}^{src.n} = {scan} maps "
                          f"exceeds cap {MAX_JOIN_MAP_SCAN}")
    out = []
    for images in itertools.product(range(dst.n), repeat=src.n):
        try:
            out.append(JoinMap(src, dst, images))
        except LatticeError:
            pass
    return out


def canonical_surjection(lattice: Lattice) -> JoinMap:
    """From the lower-ideal lattice of the irreducibles onto the lattice.

    Sends an ideal to the join of its members; an isomorphism exactly when
    the lattice is distributive.
    """
    elems, sub = irreducibles(lattice)
    ideals, masks = ideal_lattice(sub, "lower")
    images = [lattice.join_many(elems[i] for i in _bits(m)) for m in masks]
    return JoinMap(ideals, lattice, images)


@dataclass(frozen=True)
class DerivedLattices:
    opposite: Lattice
    boolean: Lattice
    upsilon: JoinMap


def derived_lattices(lattice: Lattice, boolean_cap: int = 6) -> DerivedLattices:
    """Opposite lattice, lattice of all subsets, and the join-of-subset map."""
    if lattice.n > boolean_cap:
        raise CapExceeded(
            f"boolean lattice of a {lattice.n}-element lattice exceeds cap {boolean_cap}")
    boolean, masks = ideal_lattice(Poset.antichain(lattice.n), "lower")
    upsilon = JoinMap(boolean, lattice,
                      [lattice.join_many(_bits(m)) for m in masks])
    return DerivedLattices(lattice.opposite(), boolean, upsilon)


def lattices_isomorphic(a: Lattice, b: Lattice) -> bool:
    return posets_isomorphic(a.poset, b.poset)


def posets_isomorphic(a: Poset, b: Poset) -> bool:
    """Backtracking isomorphism test with local-degree pruning."""
    if a.n != b.n:
        return False

    def key(p, e):
        return (p.down[e].bit_count(), p.up[e].bit_count())

    if sorted(key(a, e) for e in range(a.n)) != sorted(key(b, e) for e in range(b.n)):
        return False
    candidates = [[f for f in range(b.n) if key(a, e) == key(b, f)] for e in range(a.n)]
    assignment = [-1] * a.n
    used = [False] * b.n

    def extend(e):
        if e == a.n:
            return True
        for f in candidates[e]:
            if used[f]:
                continue
            ok = all((a.le(e, e2) == b.le(f, assignment[e2]))
                     and (a.le(e2, e) == b.le(assignment[e2], f))
                     for e2 in range(e))
            if ok:
                assignment[e] = f
                used[f] = True
                if extend(e + 1):
                    return True
                used[f] = False
                assignment[e] = -1
        return False

    return extend(0)


# --- JSON interchange -------------------------------------------------------
#
# {"size": n, "leq": [[a, b], ...], "names": [...]?}; reflexive pairs are
# optional and the transitive closure is applied on read.  Canonical output
# adds "bottom", "top", "distributive" and "irreducibles".


def _is_int(v) -> bool:
    """A JSON integer; ``true`` and ``false`` are read as bools, not as 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def poset_from_json(obj) -> Poset:
    if not isinstance(obj, dict):
        raise LatticeError("top-level JSON value must be an object")
    try:
        n = obj["size"]
        raw = obj["leq"]
    except KeyError as missing:
        raise LatticeError(f"missing required key {missing}") from None
    if not _is_int(n) or not 0 <= n <= MAX_POINTS:
        raise LatticeError(f"size must be an integer in 0..{MAX_POINTS}, got {n!r}")
    if not isinstance(raw, list):
        raise LatticeError(f"leq must be a list of [a, b] pairs, got {raw!r}")
    pairs = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(map(_is_int, entry))):
            raise LatticeError(f"leq entries must be [a, b] pairs, got {entry!r}")
        a, b = entry
        if not (0 <= a < n and 0 <= b < n):
            raise LatticeError(f"leq pair {entry!r} out of range for size {n}")
        pairs.append((a, b))
    names = obj.get("names")
    if names is not None and (not isinstance(names, list) or len(names) != n):
        raise LatticeError("names, when present, must list one name per element")
    return Poset.from_pairs(n, pairs)


def lattice_from_json(obj) -> Lattice:
    return Lattice.from_poset(poset_from_json(obj))


def lattice_to_json(lattice: Lattice, names=None) -> dict:
    elems, _ = irreducibles(lattice)
    out = {
        "size": lattice.n,
        "leq": sorted([a, b] for a, b in lattice.poset.leq.pairs() if a != b),
        "bottom": lattice.bottom,
        "top": lattice.top,
        "distributive": is_distributive(lattice),
        "irreducibles": elems,
    }
    if names is not None:
        out["names"] = list(names)
    return out
