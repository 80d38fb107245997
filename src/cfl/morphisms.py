"""Formal linear combinations of join-maps and the chain-quotient calculus.

For a lattice ``T`` and a strictly increasing tuple ``B`` avoiding the top,
``pi_of_tuple`` is the quotient of ``T`` onto a total order and
``j_of_tuple`` is its Mobius-weighted one-sided inverse.  Their composites
``f_dc`` multiply like matrix units, and summing the diagonal ones yields
the central idempotent ``e_t`` projecting onto the span of all
join-endomorphisms with totally ordered image (``tot_basis``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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

    Terms with equal maps are merged and zero coefficients dropped, so
    equality of the term dictionaries is equality of morphisms.  The public
    constructor checks and merges its terms.  ``compose`` multiplies and
    sums coefficients as Python ints, merging by composite image tuple, and
    wraps the result, already merged and nonzero, with the unchecked
    ``_trusted``; stored coefficients are always ``Fraction`` values.
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
            out[m] = out.get(m, Fraction(0)) + c
        return LinMorphism(self.src, self.dst, out)

    def __neg__(self):
        return LinMorphism(self.src, self.dst, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return LinMorphism(self.src, self.dst,
                           {m: scalar * c for m, c in self.terms.items()})

    def compose(self, other: "LinMorphism") -> "LinMorphism":
        """Bilinear extension of composition; ``self`` after ``other``.

        Each operand's coefficients are scaled to integers by the lcm of
        their denominators, products are summed as ints keyed by the
        composite image tuple, and each surviving sum is divided back once.
        """
        if other.dst != self.src:
            raise ValueError("middle lattice mismatch")
        g_scale, g_terms = _integral_terms(self)
        f_scale, f_terms = _integral_terms(other)
        acc = {}
        for g_images, cg in g_terms:
            for f_images, cf in f_terms:
                key = tuple([g_images[v] for v in f_images])
                acc[key] = acc.get(key, 0) + cg * cf
        src, dst = other.src, self.dst
        scale = g_scale * f_scale
        terms = {JoinMap._trusted(src, dst, key): Fraction(c, scale)
                 for key, c in acc.items() if c}
        return LinMorphism._trusted(src, dst, terms)

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


def _integral_terms(alpha: LinMorphism):
    """``(L, [(images, L * c)])`` with ``L`` the lcm of the coefficient denominators."""
    scale = math.lcm(*(c.denominator for c in alpha.terms.values()))
    return scale, [(m.images, c.numerator * (scale // c.denominator))
                   for m, c in alpha.terms.items()]


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
    """The surjection onto a total order determined by a top-avoiding chain."""
    lattice = b.lattice
    if b.kind != "P":
        raise ValueError("pi_of_tuple needs a P-kind tuple")
    bounds = list(b.entries) + [lattice.top]
    images = [next(h for h, bh in enumerate(bounds) if lattice.le(t, bh))
              for t in range(lattice.n)]
    return JoinMap(lattice, chain(len(b)), images)


def j_of_tuple(b: ChainTuple) -> LinMorphism:
    """The Mobius-weighted section attached to a top-avoiding chain.

    A signed sum over all tuples with ``a_h`` in the closed interval between
    consecutive bounds; terms with vanishing Mobius weight are dropped at
    construction.
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
        terms[JoinMap(chain(n), lattice, images)] = Fraction(coeff)
    return LinMorphism(chain(n), lattice, terms)


def lambda_of_tuple(v: ChainTuple) -> JoinMap:
    """The embedding of a total order along a bottom-avoiding chain."""
    if v.kind != "Y":
        raise ValueError("lambda_of_tuple needs a Y-kind tuple")
    return JoinMap(chain(len(v)), v.lattice, (v.lattice.bottom,) + v.entries)


def f_dc(d: ChainTuple, c: ChainTuple) -> LinMorphism:
    """The matrix-unit endomorphism ``j - then - pi`` for two same-size chains."""
    if len(d) != len(c):
        raise ValueError("tuples must have the same size")
    if d.lattice != c.lattice:
        raise ValueError("tuples must live in the same lattice")
    return j_of_tuple(d) @ pi_of_tuple(c)


def rho_y(n: int, ys) -> JoinMap:
    """The endomorphism of the total order keeping levels in ``ys`` and
    dropping the others one step."""
    ys = set(ys)
    if any(not 1 <= h <= n for h in ys):
        raise ValueError(f"levels must lie in 1..{n}")
    images = [0] + [h if h in ys else h - 1 for h in range(1, n + 1)]
    return JoinMap(chain(n), chain(n), images)


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
