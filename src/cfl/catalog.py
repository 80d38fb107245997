"""Named small lattices and exhaustive enumeration of labeled lattices.

The named entries cover the shapes the verification suite exercises: total
orders, small boolean lattices, the diamond and pentagon, and a grid.  The
exhaustive tiers list every labeled lattice up to a given size, generated
through the bottom/top factorization: a bounded order is determined by its
bottom, its top, and an arbitrary order on the remaining elements.
"""

from __future__ import annotations

import functools

from .lattices import (CapExceeded, Lattice, LatticeError, Poset, _bits,
                       _lower_ideal_masks, chain, ideal_lattice, lattice_from_leq)
from .relations import Correspondence

ENUMERATION_CAP = 6


def product_lattice(a: Lattice, b: Lattice) -> Lattice:
    """Componentwise order on pairs, indexed as ``i * b.n + j``."""
    pairs = [(i1 * b.n + j1, i2 * b.n + j2)
             for i1 in range(a.n) for i2 in range(a.n) if a.le(i1, i2)
             for j1 in range(b.n) for j2 in range(b.n) if b.le(j1, j2)]
    return lattice_from_leq(a.n * b.n, pairs)


@functools.cache
def _named_entries() -> tuple:
    """The named catalog as ``(name, lattice)`` pairs, built once per process."""
    out = [(f"chain{n}", chain(n)) for n in range(7)]
    out.append(("b2", lattice_from_leq(4, [(0, 1), (0, 2), (1, 3), (2, 3)])))
    out.append(("b3", ideal_lattice(Poset.antichain(3), "lower")[0]))
    out.append(("m3", lattice_from_leq(5, [(0, 1), (0, 2), (0, 3),
                                           (1, 4), (2, 4), (3, 4)])))
    out.append(("n5", lattice_from_leq(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])))
    out.append(("grid2x3", product_lattice(chain(1), chain(2))))
    return tuple(out)


def named_lattices() -> dict:
    """The named catalog, keyed by short stable names.

    Every call returns a fresh dict over the same interned ``Lattice``
    objects, so equality checks between catalog entries hit the identity
    fast path.
    """
    return dict(_named_entries())


def enumerate_posets(k: int):
    """All labeled posets on ``k`` points, sorted by their strict down-sets.

    One-point extension (Brinkmann & McKay, Order 19, 2002): each is exactly
    one poset on the first ``k - 1`` points plus a last point whose strict
    down-set D is a lower ideal and whose strict up-set U is an upper ideal,
    disjoint from D and above every element of it.  Refused past
    ``ENUMERATION_CAP`` points (6,129,859 posets at seven, OEIS A001035).
    """
    if k < 0:
        raise ValueError(f"poset enumeration needs k >= 0 points, got {k}")
    if k > ENUMERATION_CAP:
        raise CapExceeded(f"poset enumeration capped at {ENUMERATION_CAP} points")
    if k == 0:
        return [Poset.antichain(0)]
    last = 1 << (k - 1)
    out = []
    for p in enumerate_posets(k - 1):
        ups = _lower_ideal_masks(p.up, p.down, k - 1)
        for d in _lower_ideal_masks(p.down, p.up, k - 1):
            above = functools.reduce(int.__and__, (p.up[a] for a in _bits(d)), last - 1)
            rows = tuple([p.up[a] | (last if d >> a & 1 else 0) for a in range(k - 1)])
            for u in ups:
                if u & ~above == 0 and not u & d:
                    # old b gains the new point below it iff b is in U
                    down = tuple([db | last if u >> b & 1 else db for b, db in enumerate(p.down)])
                    out.append(Poset._trusted(Correspondence._trusted(k, k, rows + (last | u,)),
                                              down + (d | last,)))
    out.sort(key=lambda p: p.down)
    return out


def enumerate_lattices(max_n: int):
    """All labeled lattices with 1..max_n elements, each exactly once.

    For two or more elements, a lattice is reconstructed from its bottom,
    its top, and the induced order on the remaining labels; candidates
    failing a join or meet are discarded.
    """
    if max_n > ENUMERATION_CAP:
        raise CapExceeded(f"lattice enumeration capped at {ENUMERATION_CAP} elements")
    if max_n >= 1:
        yield lattice_from_leq(1, [])
    for n in range(2, max_n + 1):
        middles = enumerate_posets(n - 2)
        for bottom in range(n):
            for top in range(n):
                if top == bottom:
                    continue
                rest = [e for e in range(n) if e not in (bottom, top)]
                onto_rest = [sum(1 << rest[j] for j in _bits(m)) for m in range(1 << (n - 2))]
                for mid in middles:
                    up, down = [1 << top] * n, [1 << bottom] * n
                    up[bottom] = down[top] = (1 << n) - 1
                    for i, e in enumerate(rest):
                        up[e] |= onto_rest[mid.up[i]]
                        down[e] |= onto_rest[mid.down[i]]
                    try:
                        yield Lattice(Poset._trusted(Correspondence._trusted(n, n, tuple(up)),
                                                     tuple(down)))
                    except LatticeError:
                        continue


def catalog_entries(max_size=None, exhaustive_max: int = 0):
    """Named catalog entries, optionally extended by exhaustive tiers.

    Returns ``(name, lattice)`` pairs; ``max_size`` filters by element
    count and ``exhaustive_max`` appends every labeled lattice up to that
    size under ``x<size>.<position>`` names.
    """
    out = []
    for name, lat in named_lattices().items():
        if max_size is None or lat.n <= max_size:
            out.append((name, lat))
    if exhaustive_max:
        counter = {}
        for lat in enumerate_lattices(exhaustive_max):
            if max_size is not None and lat.n > max_size:
                continue
            i = counter.get(lat.n, 0)
            counter[lat.n] = i + 1
            out.append((f"x{lat.n}.{i}", lat))
    return out
