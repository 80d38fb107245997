"""Named small lattices and exhaustive enumeration of labeled lattices.

The named entries cover the shapes the verification suite exercises: total
orders, small boolean lattices, the diamond and pentagon, and a grid.  The
exhaustive tiers list every labeled lattice up to a given size, generated
through the bottom/top factorization: a bounded order is determined by its
bottom, its top, and an arbitrary order on the remaining elements.
"""

from __future__ import annotations

import functools
import itertools

from .lattices import (CapExceeded, Lattice, LatticeError, Poset, chain,
                       ideal_lattice, lattice_from_leq)
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
    """All labeled posets on ``k`` points, as Poset values.

    Scans strict down-set vectors and keeps the transitive ones; the closure
    condition also rules out two-cycles, so no separate antisymmetry check
    is needed.
    """
    if k == 0:
        return [Poset(Correspondence.identity(0))]
    choices = []
    for i in range(k):
        others = [j for j in range(k) if j != i]
        subsets = []
        for picks in itertools.chain.from_iterable(
                itertools.combinations(others, r) for r in range(k)):
            mask = 0
            for j in picks:
                mask |= 1 << j
            subsets.append(mask)
        subsets.sort()
        choices.append(subsets)
    out = []
    for down in itertools.product(*choices):
        ok = True
        for i in range(k):
            di = down[i]
            m = di
            while m:
                low = m & -m
                if down[low.bit_length() - 1] & ~di:
                    ok = False
                    break
                m ^= low
            if not ok:
                break
        if ok:
            rows = tuple((1 << a) | sum(1 << b for b in range(k) if down[b] >> a & 1)
                         for a in range(k))
            out.append(Poset(Correspondence(k, k, rows)))
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
    middle_cache = {}
    for n in range(2, max_n + 1):
        k = n - 2
        if k not in middle_cache:
            middle_cache[k] = enumerate_posets(k)
        for bottom in range(n):
            for top in range(n):
                if top == bottom:
                    continue
                rest = [e for e in range(n) if e not in (bottom, top)]
                for mid in middle_cache[k]:
                    pairs = [(bottom, e) for e in range(n) if e != bottom]
                    pairs += [(e, top) for e in range(n) if e != top]
                    pairs += [(rest[i], rest[j])
                              for i in range(k) for j in range(k)
                              if i != j and mid.le(i, j)]
                    try:
                        yield lattice_from_leq(n, pairs)
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
