"""Evaluations of the lattice-valued functors on finite sets.

The free module on functions ``X -> T`` carries the relation action by
pointwise joins; the meet-side (star) action, which is the join action over
``T.opposite()``, realizes the dual module.  This module assembles the
derived objects of interest: the subspace spanned by functions missing an
irreducible, the kernel linear system and its rank, the duality pairing with
its Mobius dual basis, the alternating generator of the dual copy, and the
relation action on the permutation module, which sends each basis
permutation to one basis permutation, read off by least elements, or to zero.

An element of the free module is an int64 coefficient vector in
function-index order.  A relation acts on it through ``action_index``, the
image index of every function from the digit table, pushed with
``np.add.at``; the scalar ``act``, ``star_act`` and ``pairing`` stay as the
definitions the arrays are tested against.  The Mobius dual of a basis
function and the alternating generator are Kronecker products of one
coefficient column per point.

Function indexing is little-endian mixed-radix throughout: point ``i`` is
digit ``i`` of the index, base ``|T|``.  ``LatticeFunction.index`` encodes
it; ``_digits`` decodes all of them, one cached read-only table per function
space, which every reader of a whole space shares, and ``_covering_digits``
keeps the functions that take every target value (all: ``_digits``).

The kernel systems and the pairing are built with numpy over the digit
arrays of all function indices; the gamma generators are ranked from their
nonzero entries, and the theta system from its rows packed eight columns to
a byte (``exact._Bits``).  The theta system precomputes, for every subset
of points, the join of each column function's down-masks of irreducibles
over that subset (the subset-OR table, ``_subset_ors``).  Per irreducible,
the table is compared with one opposite-order row, packed and gathered at
the rows' subsets; the system is the AND of these packed gathers, and is
unpacked only by ``theta_matrix`` and ``theta_condition_tables``.
``theta_condition_tables`` tables each of the six membership conditions of
``theta_conditions`` over every pair the same way, each on its own: a
subset-join table of the function's values for (a), the subset-OR table
for (b)-(d), and the pointwise order and per-irreducible witnesses for (e)
and (f).  Condition (d) is the theta system itself, so the other five check
its builder independently.  The gamma generators sort and sum their 2^k
signed terms per row, read from a table of meets per upper ideal and term.
The pairing matrix is one gather of the order table.  ``theta_matrix``,
``theta_rank`` and ``h_quotient_basis`` share the theta builder and its
covering filter; every rank goes through ``fast_int_rank``.  The two rank
entries, ``theta_rank`` and ``gamma_span_rank``, build from the lattice
relabeled along its linear extension (``_in_linear_order``), so their cost
does not hang on the labels a file gives; every builder that returns
label-indexed rows or columns keeps the lattice's own labels.  The
orthogonality check compares row spaces instead of nullspaces: two matrices
have the same nullspace exactly when they have the same row space, over any
field.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple

import numpy as np

from .exact import RATIONALS, RankStats, _Bits, _Entries, fast_int_rank, subspace_equal
from .lattices import (CACHE_SIZE, CapExceeded, Lattice, Poset, _bits, _least_of,
                       ideal_lattice, irreducibles, mobius, r_of)
from .relations import Correspondence

DEFAULT_FUNCTION_CAP = 20000

# The unpruned theta builders hold a few (ideal function) x (function) tables
# of one byte a cell at once.  The largest at the default and acceptance
# limits, b3 at three points, has 512 x 512 cells; this cap is 16 times that.
DENSE_CELL_CAP = 1 << 22

# ``gamma_entries`` sorts the terms of a block of rows at once, in a few int64
# arrays of this many cells.  This size keeps the build of n5 at five points,
# the largest gamma system of the rank benchmark, at a traced peak of 1.7 MB
# (2.8 MB in blocks of 2^18 cells) and no slower.
_GAMMA_BLOCK_CELLS = 1 << 14


def function_space_size(lattice: Lattice, points: int, cap: int = DEFAULT_FUNCTION_CAP) -> int:
    # Arrays indexed by point grow with ``points`` even where n^points is 1.
    if points > cap:
        raise CapExceeded(f"{points} points exceed cap {cap}")
    size = lattice.n ** points
    if size > cap:
        raise CapExceeded(f"{lattice.n}^{points} = {size} functions exceed cap {cap}")
    return size


class LatticeFunction:
    """A function from ``points`` indexed points into a lattice."""

    __slots__ = ("lattice", "points", "values")

    def __init__(self, lattice: Lattice, values):
        values = tuple(values)
        for v in values:
            if not 0 <= v < lattice.n:
                raise ValueError(f"value {v} outside lattice")
        self.lattice = lattice
        self.points = len(values)
        self.values = values

    @property
    def index(self) -> int:
        return sum(v * self.lattice.n ** x for x, v in enumerate(self.values))

    def __eq__(self, other):
        return (isinstance(other, LatticeFunction) and self.lattice == other.lattice
                and self.values == other.values)

    def __hash__(self):
        return hash((self.lattice, self.values))

    def __repr__(self):
        return f"LatticeFunction({list(self.values)})"


def all_functions(lattice: Lattice, points: int):
    """All functions in index order (point 0 varies fastest)."""
    function_space_size(lattice, points)
    for values in _digits(lattice.n, points).tolist():
        yield LatticeFunction(lattice, values)


def act(r: Correspondence, f: LatticeFunction) -> LatticeFunction:
    """Pointwise-join action: target point ``y`` gets the join of the values
    at its related source points (the empty join is the bottom)."""
    return _pointwise(r, f, f.lattice.join_many)


def star_act(q: Correspondence, f: LatticeFunction) -> LatticeFunction:
    """Pointwise-meet action (the join of the opposite lattice); the empty
    meet is the top."""
    return _pointwise(q, f, f.lattice.meet_many)


def _pointwise(r: Correspondence, f: LatticeFunction, combine) -> LatticeFunction:
    """``combine`` of the values at each target point's related source points."""
    if r.src_size != f.points:
        raise ValueError(f"relation expects {r.src_size} points, function has {f.points}")
    return LatticeFunction(f.lattice, (combine(f.values[x] for x in _bits(row))
                                       for row in r.rows))


def action_index(r: Correspondence, lattice: Lattice) -> np.ndarray:
    """The index of ``act(r, f)`` for every function ``f`` on ``r.src_size``
    points, in index order; over ``lattice.opposite()``, of ``star_act(r, f)``.

    Each target point gathers the join table over the digits of all
    functions at its related source points.  A module element ``v`` on the
    source points acts as ``np.add.at(out, action_index(r, lattice), v)``
    into zeros on the target points.  Both function spaces are capped."""
    function_space_size(lattice, r.dst_size)
    function_space_size(lattice, r.src_size)
    digits = _digits(lattice.n, r.src_size)
    table = np.array(lattice.join, dtype=np.int64)
    out = np.zeros(len(digits), dtype=np.int64)
    for y, row in enumerate(r.rows):
        value = np.full(len(digits), lattice.bottom, dtype=np.int64)
        for x in _bits(row):
            value = table[value, digits[:, x]]
        out += value * lattice.n ** y
    return out


IrrData = namedtuple("IrrData", [
    "elems",      # irreducible elements of T, ascending
    "sub",        # their full subposet (order R) on indices 0..|E|-1; as masks, its
                  # down rows are the rows of R-opposite, its up rows principal upper ideals
    "down_irr",   # for each t in T: mask of irreducibles below t
    "iup",        # lattice of upper ideals of (E, R)
    "iup_enc",    # their subset encodings
])


@functools.lru_cache(maxsize=CACHE_SIZE)
def irr_data(lattice: Lattice) -> IrrData:
    elems, sub = irreducibles(lattice)
    down_irr = []
    for t in range(lattice.n):
        mask = 0
        for i, e in enumerate(elems):
            if lattice.le(e, t):
                mask |= 1 << i
        down_irr.append(mask)
    iup, iup_enc = ideal_lattice(sub, "upper")
    return IrrData(tuple(elems), sub, tuple(down_irr), iup, iup_enc)


def gamma_corr(f: LatticeFunction) -> Correspondence:
    """The correspondence pairing each point with the irreducibles below its
    value."""
    data = irr_data(f.lattice)
    return Correspondence(f.points, len(data.elems),
                          (data.down_irr[v] for v in f.values))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _digits(n: int, points: int) -> np.ndarray:
    """Digits of every function index in base ``n``: row ``i`` holds the
    values of function ``i``, column ``x`` the value at point ``x``, which is
    ``i // n^x % n``.  Built once per ``(n, points)`` and read-only."""
    out = np.arange(n ** points, dtype=np.int64)[:, None] // n ** np.arange(points) % n
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def _order_table(lattice: Lattice) -> np.ndarray:
    """The boolean table of ``a <= b``, indexed ``[a, b]``; built once per
    lattice and read-only."""
    out = np.array([[lattice.le(a, b) for b in range(lattice.n)] for a in range(lattice.n)])
    out.flags.writeable = False
    return out


def _covering_digits(n: int, points: int, targets) -> np.ndarray:
    """The digit rows of the functions into ``range(n)`` that take every
    value in ``targets``, in index order: all of them for no target.

    Rows grow one point at a time, the new point the most significant digit.
    Each row ORs in the bit its new value has among the targets (none for
    any other value), and is kept while the points left can still take every
    target it has missed, so no row that cannot cover is ever extended."""
    targets = list(targets)
    if not targets:
        return _digits(n, points)
    if len(targets) > points:
        return np.zeros((0, points), dtype=np.int64)
    bits = np.zeros(n, dtype=np.min_scalar_type((1 << len(targets)) - 1))
    bits[targets] = 1 << np.arange(len(targets), dtype=np.uint64)
    digits = np.zeros((1, 0), dtype=np.int64)
    hit = np.zeros(1, dtype=bits.dtype)
    for x in range(points):
        value = np.repeat(np.arange(n, dtype=np.int64), len(digits))
        digits = np.column_stack([np.tile(digits, (n, 1)), value])
        hit = np.tile(hit, n) | bits[value]
        keep = len(targets) - np.bitwise_count(hit) <= points - 1 - x
        digits, hit = digits[keep], hit[keep]
    return digits


def h_quotient_basis(lattice: Lattice, points: int):
    """Indices of the functions whose image contains every irreducible.

    These represent the basis of the quotient by the span of the remaining
    functions; the list is empty when ``points`` is too small to cover."""
    data = irr_data(lattice)
    function_space_size(lattice, points)
    digits = _covering_digits(lattice.n, points, data.elems)
    return (digits @ lattice.n ** np.arange(points, dtype=np.int64)).tolist()


def retraction_exists(order: Poset, s: Correspondence) -> bool:
    """Whether some correspondence pulls ``s`` back onto the relation of
    ``order``.

    ``s`` must already absorb the order on the right.  Row by row, the union
    of all rows of ``s`` contained in the target row is the largest
    candidate, so feasibility reduces to one union per element."""
    r = order.leq
    if s.src_size != r.dst_size:
        raise ValueError("s must target the ordered set")
    if s.compose(r) != s:
        raise ValueError("precondition failed: s does not absorb the order")
    for e in range(r.dst_size):
        target = r.rows[e]
        union = 0
        for row in s.rows:
            if row & ~target == 0:
                union |= row
        if union != target:
            return False
    return True


# --- the kernel linear system ------------------------------------------------


def theta_conditions(phi: LatticeFunction, psi: LatticeFunction):
    """The six equivalent membership tests for one (function, ideal-function)
    pair, ``psi`` taking values in the upper-ideal lattice of ``phi``'s
    irreducibles; returned as six independently computed booleans."""
    lattice = phi.lattice
    data = irr_data(lattice)
    if psi.lattice != data.iup:
        raise ValueError("psi must take values in the upper-ideal lattice")
    if phi.points != psi.points:
        raise ValueError("point count mismatch")
    k = len(data.elems)
    enc_psi = [data.iup_enc[v] for v in psi.values]
    down_phi = [data.down_irr[v] for v in phi.values]

    # q = product correspondence on the irreducibles
    q_rows = []
    for e in range(k):
        acc = 0
        for mask, down in zip(enc_psi, down_phi):
            if mask >> e & 1:
                acc |= down
        q_rows.append(acc)

    join_vals = [lattice.join_many(phi.values[x] for x in range(phi.points)
                                   if enc_psi[x] >> e & 1)
                 for e in range(k)]
    cond_a = all(join_vals[e] == data.elems[e] for e in range(k))

    qi_vals = [lattice.join_many(data.elems[f] for f in _bits(q_rows[e]))
               for e in range(k)]
    cond_b = all(qi_vals[e] == data.elems[e] for e in range(k))

    cond_c = all(q_rows[e] >> e & 1 and q_rows[e] & ~data.sub.down[e] == 0
                 for e in range(k))

    cond_d = all(q_rows[e] == data.sub.down[e] for e in range(k))

    wedge = [lattice.meet_many(data.elems[i] for i in _bits(enc_psi[x]))
             for x in range(phi.points)]
    cond_e = (all(lattice.le(phi.values[x], wedge[x]) for x in range(phi.points))
              and all(any(phi.values[x] == data.elems[e]
                          and enc_psi[x] == data.sub.up[e]
                          for x in range(phi.points))
                      for e in range(k)))

    first_f = all(lattice.le(phi.values[x], data.elems[e])
                  for x in range(phi.points) for e in _bits(enc_psi[x]))
    second_f = True
    for e in range(k):
        union = 0
        for x in range(phi.points):
            if phi.values[x] == data.elems[e]:
                union |= enc_psi[x]
        if union != data.sub.up[e]:
            second_f = False
            break
    cond_f = first_f and second_f

    return cond_a, cond_b, cond_c, cond_d, cond_e, cond_f


def _theta_inputs(lattice: Lattice, points: int, cap: int, pruned: bool):
    """What every table over (ideal function, function) pairs starts from.

    Returns the digits of the columns (functions phi) and of the rows (ideal
    functions psi), the rows' ideals as masks over the irreducibles, for each
    irreducible e the index of the subset S_e(psi) of points whose ideal
    contains e, and the subset-OR table: row s, column phi holds the join of
    phi's down-masks of irreducibles over the points in s.  ``pruned`` keeps
    only the columns of functions hitting every irreducible and the rows of
    ideal functions hitting every principal upper ideal.  The table has
    2^points rows, which the function cap bounds only when the lattice has
    two or more elements, so it is capped on its own.  Unpruned, the
    (ideal function) x (function) tables built from these are dense, so
    their cells are capped too (``DENSE_CELL_CAP``).
    """
    data = irr_data(lattice)
    cols = function_space_size(lattice, points, cap)
    rows = function_space_size(data.iup, points, cap)
    if points >= cap.bit_length():  # 2^points > cap
        raise CapExceeded(f"2^{points} subsets of points exceed cap {cap}")
    if not pruned and rows * cols > DENSE_CELL_CAP:
        raise CapExceeded(f"{rows} x {cols} = {rows * cols} table cells exceed cap "
                          f"{DENSE_CELL_CAP}")
    phi = _covering_digits(lattice.n, points, data.elems if pruned else ())
    psi = _covering_digits(data.iup.n, points,
                           [data.iup_enc.index(m) for m in data.sub.up] if pruned else ())
    table = _subset_ors(lattice, phi)
    enc = np.array(data.iup_enc, dtype=table.dtype)[psi]
    weights = np.int64(1) << np.arange(points, dtype=np.int64)
    subsets = [(enc >> e & 1).astype(np.int64) @ weights for e in range(len(data.elems))]
    return phi, psi, enc, subsets, table


def _subset_ors(lattice: Lattice, phi: np.ndarray) -> np.ndarray:
    """The subset-OR table of the functions whose digits are the rows of
    ``phi``: row s, column f holds the OR of f's down-masks of irreducibles
    over the points in s, in the narrowest unsigned dtype holding a mask."""
    data = irr_data(lattice)
    down = np.array(data.down_irr, dtype=np.min_scalar_type((1 << len(data.elems)) - 1))[phi]
    table = np.zeros((1 << phi.shape[1], len(phi)), dtype=down.dtype)
    for x in range(phi.shape[1]):
        table[1 << x:2 << x] = table[:1 << x] | down[:, x]
    return table


def _all_of(shape, arrays) -> np.ndarray:
    """The AND of boolean arrays of one shape, taken one array at a time."""
    out = np.ones(shape, dtype=bool)
    for a in arrays:
        out &= a
    return out


def _condition_d(rop, subsets, table, shape) -> _Bits:
    """Condition (d) of ``theta_conditions`` on every (psi, phi) pair, from
    ``_theta_inputs``, packed eight columns to a byte (``_Bits``): for each
    irreducible e, the subset-OR table of phi's down-masks is compared with
    the opposite-order row of e, packed, and gathered at S_e(psi); the
    result is the AND of these.  It starts from all ones with zero padding
    bits, which is the answer when there is no irreducible."""
    nr, nc = shape
    out = np.tile(np.packbits(np.ones(nc, dtype=bool)), (nr, 1))
    for row, s in zip(rop, subsets):
        out &= np.packbits(table == row, axis=1)[s]
    return _Bits(shape, out)


def _theta_system(lattice: Lattice, points: int, cap: int, pruned: bool) -> _Bits:
    """The 0/1 kernel system, packed (``_condition_d``), rows over
    ideal-valued functions and columns over lattice-valued functions, in
    index order: a one where condition (d) holds.  Pruned rows and columns
    (see ``_theta_inputs``) are identically zero.
    """
    phi, psi, _, subsets, table = _theta_inputs(lattice, points, cap, pruned)
    return _condition_d(irr_data(lattice).sub.down, subsets, table, (len(psi), len(phi)))


def theta_condition_tables(lattice: Lattice, points: int):
    """The six conditions of ``theta_conditions`` on every pair at once.

    Yields six boolean arrays, (a) to (f), one at a time, each over (ideal
    function, function) in the row and column order of ``theta_matrix``.
    Each is built on its own, as ``theta_conditions`` builds its boolean:

    (a) a subset-join table of phi's values, gathered at S_e(psi);
    (b), (c), (d) the subset-OR table of down-masks, read through the joins
        of its masks, tested for bit e and containment in the opposite row
        of e, and compared with that row (this is the kernel system);
    (e) the pointwise order against the meet of each ideal, and a point
        where phi is e and psi is the principal upper ideal of e;
    (f) the pointwise order against each irreducible of each ideal, and the
        union of the ideals at the points where phi is e.
    """
    data = irr_data(lattice)
    phi, psi, enc, subsets, table = _theta_inputs(lattice, points, DEFAULT_FUNCTION_CAP,
                                                  pruned=False)
    elems, rop, up = data.elems, data.sub.down, data.sub.up
    k, shape = len(elems), (len(psi), len(phi))

    join = np.array(lattice.join, dtype=np.uint8)
    joins = np.full(table.shape, lattice.bottom, dtype=np.uint8)
    for x in range(points):
        joins[1 << x:2 << x] = join[joins[:1 << x], phi[:, x]]
    yield _all_of(shape, ((joins == elems[e])[subsets[e]] for e in range(k)))
    del joins

    masks, where = np.unique(table, return_inverse=True)
    mask_joins = np.array([lattice.join_many(elems[f] for f in _bits(int(m))) for m in masks],
                          dtype=np.uint8)
    joined = mask_joins[where].reshape(table.shape)
    yield _all_of(shape, ((joined == elems[e])[subsets[e]] for e in range(k)))
    del joined

    full = (1 << k) - 1
    yield _all_of(shape, (((table >> e & 1).astype(bool) & (table & (full ^ rop[e]) == 0))
                          [subsets[e]] for e in range(k)))
    yield _condition_d(rop, subsets, table, shape).dense().view(bool)

    le = _order_table(lattice)
    meets = np.array([lattice.meet_many(elems[i] for i in _bits(m)) for m in data.iup_enc])

    def witness(e):
        out = np.zeros(shape, dtype=bool)
        for x in range(points):
            np.logical_or(out, (enc[:, x] == up[e])[:, None], out=out,
                          where=phi[:, x] == elems[e])
        return out

    yield _all_of(shape, itertools.chain(
        (le[phi[:, x], meets[psi[:, x], None]] for x in range(points)),
        map(witness, range(k))))

    def union(e):
        out = np.zeros(shape, dtype=enc.dtype)
        for x in range(points):
            np.bitwise_or(out, enc[:, x, None], out=out,
                          where=phi[:, x] == elems[e])
        return out == up[e]

    yield _all_of(shape, itertools.chain(
        (~(enc[:, x, None] >> e & 1).astype(bool) | le[phi[:, x], elems[e]]
         for x in range(points) for e in range(k)), map(union, range(k))))


def theta_matrix(lattice: Lattice, points: int) -> np.ndarray:
    """The full 0/1 kernel system as an int8 array: rows over ideal-valued
    functions, columns over lattice-valued functions, a one where the
    product recovers the opposite order.  It is the packed system of
    ``theta_rank``, unpruned and unpacked."""
    return _theta_system(lattice, points, DEFAULT_FUNCTION_CAP, pruned=False).dense()


def _in_linear_order(lattice: Lattice) -> Lattice:
    """An isomorphic copy of ``lattice`` labeled along its linear extension
    sorted by (|down-set|, label), or ``lattice`` itself when it is already
    labeled so.  Its bottom is 0, its top n - 1, and a <= b implies that
    a's label is at most b's.

    The copy's order is the lattice's restricted to all its elements in
    that order (``Poset.restrict``), and its join and meet tables are the
    lattice's own, permuted, so it is built by the unchecked ``_trusted``
    path."""
    n, down = lattice.n, lattice.poset.down
    order = sorted(range(n), key=lambda a: (down[a].bit_count(), a))
    if order == list(range(n)):
        return lattice
    label = [0] * n
    for i, a in enumerate(order):
        label[a] = i

    def table(rows):
        return [[label[rows[a][b]] for b in order] for a in order]

    return Lattice._trusted(lattice.poset.restrict(order), table(lattice.join),
                            table(lattice.meet), 0, n - 1)


def theta_rank(lattice: Lattice, points: int, ring=RATIONALS,
               cap: int = DEFAULT_FUNCTION_CAP, stats: RankStats | None = None) -> int:
    """Rank of the kernel system, equal to the rank of the fundamental
    quotient at ``points``.

    Columns of functions missing an irreducible and rows of ideal functions
    missing a principal upper ideal are identically zero, so both are pruned
    before elimination.  The system is built and ranked packed eight columns
    to a byte (``_Bits``): it is unpacked into entries only when something
    prunes or peels, and mod 2 it is read from its bytes.  ``stats``, if
    given, receives the build time and what ``fast_int_rank`` records.

    The system ranked is that of the lattice relabeled along its linear
    extension (``_in_linear_order``), whatever labels ``lattice`` has, and
    mod 2 it is eliminated in the order that labeling suits (``_f2_rank``).
    So the work is the same under every labeling of a chain, and otherwise
    depends on the labels only through the order of elements with down-sets
    of one size.  Relabeling permutes rows and columns, which pruning and
    peeling commute with, so the rank and every field of ``stats`` but the
    two times are invariants of the lattice's isomorphism class.
    """
    start = time.perf_counter()
    system = _theta_system(_in_linear_order(lattice), points, cap, pruned=True)
    if stats is not None:
        stats.build_s = time.perf_counter() - start
    return fast_int_rank(system, ring, stats)


# --- duality ------------------------------------------------------------------


def pairing(phi: LatticeFunction, psi: LatticeFunction) -> int:
    """One when the first function is pointwise below the second, else zero."""
    if phi.lattice != psi.lattice or phi.points != psi.points:
        raise ValueError("pairing needs functions on the same lattice and points")
    lat = phi.lattice
    return 1 if all(lat.le(a, b) for a, b in zip(phi.values, psi.values)) else 0


def pairing_matrix(lattice: Lattice, points: int) -> np.ndarray:
    """The pairing of every pair of functions as an int8 0/1 array, rows
    indexed by the first function and columns by the second."""
    function_space_size(lattice, points)
    digits = _digits(lattice.n, points)
    return _order_table(lattice)[digits[:, None], digits[None, :]].all(axis=2).view(np.int8)


def _tensor(lattice: Lattice, columns) -> np.ndarray:
    """The Kronecker product of one coefficient column per point (``lattice.n``
    integers each), as an int64 vector in function-index order.  The function
    cap is checked first; the products are taken over Python integers and
    only then stored, so a coefficient past int64 raises OverflowError."""
    function_space_size(lattice, len(columns))
    out = np.ones(1, dtype=object)
    for column in reversed(columns):  # the last factor varies fastest: point 0
        out = np.kron(out, np.array(column, dtype=object))
    return out.astype(np.int64)


def dual_star(phi: LatticeFunction) -> np.ndarray:
    """The Mobius dual of a basis function, as an element of the dual-side
    module (coefficients on functions viewed against the opposite order): an
    int64 vector in function-index order, the Kronecker product over points
    of the Mobius column ``s -> mu(s, phi(x))``.

    Each coefficient is one product of a Mobius value per point.  Its int64
    value cannot wrap: the product is formed over Python integers and
    converted once (``_tensor``), raising OverflowError where int64 cannot
    hold it; past the function cap it raises ``CapExceeded`` first."""
    lat = phi.lattice
    mob = mobius(lat)
    return _tensor(lat, [[mob.get((s, v), 0) for s in range(lat.n)] for v in phi.values])


def gamma_t(lattice: Lattice) -> np.ndarray:
    """The alternating generator of the dual copy, at the irreducibles.

    The signed sum over subsets of irreducibles of the functions lowering the
    chosen ones to their unique maximal lower neighbour: the int64 Kronecker
    product over irreducibles e of the unit at e minus the unit below it."""
    data = irr_data(lattice)
    columns = []
    for e in data.elems:
        column = [0] * lattice.n
        column[e], column[r_of(lattice, e)] = 1, -1
        columns.append(column)
    return _tensor(lattice, columns)


def gamma_entries(lattice: Lattice, points: int, cap: int = DEFAULT_FUNCTION_CAP) -> _Entries:
    """The generators of the dual-side copy, one per upper-ideal-valued
    function (the alternating generator acted on by the matching
    correspondence), as an ``_Entries`` record: the coordinates and values
    of their nonzero entries, in row-major order.

    A generator's 2^k signed terms are columns, read from a table of meets
    per (upper ideal, term).  A block of rows at a time, each row's terms are
    sorted, equal columns summed and zero sums dropped.  The caps are checked
    first; the values take the dtype that holds 2^k in absolute value.
    """
    data = irr_data(lattice)
    size = function_space_size(lattice, points, cap)
    n_rows = function_space_size(data.iup, points, cap)
    k = len(data.elems)
    if 1 << k > cap:
        raise CapExceeded(f"2^{k} signed terms per generator exceed cap {cap}")
    lowered = [r_of(lattice, e) for e in data.elems]
    terms = [[lowered[i] if mask >> i & 1 else data.elems[i] for i in range(k)]
             for mask in range(1 << k)]
    meets = 2 * np.array([[lattice.meet_many(values[e] for e in _bits(enc)) for values in terms]
                          for enc in data.iup_enc], dtype=np.int64)
    odd = np.array([mask.bit_count() & 1 for mask in range(1 << k)], dtype=np.int64)
    psi = _digits(data.iup.n, points)
    step, parts = max(1, _GAMMA_BLOCK_CELLS >> k), []
    for lo in range(0, n_rows, step):  # n_rows >= 1: the empty ideal at every point
        block = psi[lo:lo + step]
        # twice the row-major cell plus the sign bit, so sorting each row sorts the block
        keys = odd + 2 * size * np.arange(lo, lo + len(block))[:, None]
        for x in range(points):
            keys += meets[block[:, x]] * lattice.n ** x
        keys.sort(axis=1)
        cells = keys.ravel() >> 1
        at = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        parts.append((cells[at], np.add.reduceat(1 - 2 * (keys.ravel() & 1), at)))
    cells, vals = map(np.concatenate, zip(*parts))
    nonzero = vals != 0
    return _Entries((n_rows, size), *np.divmod(cells[nonzero], size),
                    vals[nonzero].astype(np.min_scalar_type(-(1 << k) - 1)))


def gamma_span_rank(lattice: Lattice, points: int, ring=RATIONALS,
                    cap: int = DEFAULT_FUNCTION_CAP, stats: RankStats | None = None) -> int:
    """Rank of the span of the acted generators inside the dual-side module.

    ``stats``, if given, receives the build time and what ``fast_int_rank``
    records from the entries (``gamma_entries``).  As in ``theta_rank``,
    the generators ranked are those of the lattice relabeled along its
    linear extension (``_in_linear_order``), so the cost does not depend on
    the labels, and the rank and every field of ``stats`` but the times are
    isomorphism invariants."""
    start = time.perf_counter()
    gens = gamma_entries(_in_linear_order(lattice), points, cap)
    if stats is not None:
        stats.build_s = time.perf_counter() - start
    return fast_int_rank(gens, ring, stats)


def orth_check(lattice: Lattice, points: int, ring=RATIONALS) -> bool:
    """Whether the pairing-orthogonal complement of the dual-side copy equals
    the nullspace of the kernel system, as subspaces.

    The complement is the nullspace of the generators paired with every
    function, so the two nullspaces agree exactly when that matrix and the
    kernel system have the same row space."""
    gens = gamma_entries(lattice, points).dense().astype(np.int64)
    paired = gens @ pairing_matrix(lattice, points).T
    return subspace_equal(paired, theta_matrix(lattice, points), lattice.n ** points, ring)


# --- the permutation module ---------------------------------------------------


def perm_basis(e_size: int):
    """Permutations of ``0..e_size-1`` in lexicographic order."""
    return list(itertools.permutations(range(e_size)))


def fund_act(q: Correspondence, sigma, order: Poset):
    """Action of a relation on a basis permutation of the permutation module
    attached to an order; the action on the whole module is its linear
    extension.

    The basis permutation ``sigma`` survives exactly when some (then unique)
    permutation ``tau`` squeezes the relation between the diagonal and the
    conjugated order, ``delta(tau) <= q <= delta(tau sigma) leq
    delta(sigma)^op``, where ``delta(tau)`` is the graph ``{(tau(x), x)}``
    of ``tau``; its image is then ``tau sigma``, and otherwise the relation
    acts as zero and the result is None.

    ``tau`` is read off, not searched for.  Row ``y`` of the squeeze says
    that ``sigma^-1 tau^-1 (y)`` lies in ``sigma^-1`` of row ``y`` and below
    all of it: it is that set's least element.  So ``sigma`` survives exactly
    when each row has one and they are distinct, and ``tau sigma`` sends each
    least element to its row."""
    e = order.n
    if q.dst_size != e or q.src_size != e or sorted(sigma) != list(range(e)):
        raise ValueError(f"need a relation on {e} points and a permutation of them: {sigma!r}")
    image = [None] * e
    for y, row in enumerate(q.rows):
        least = _least_of(order.up, sum(1 << m for m in range(e) if row >> sigma[m] & 1))
        if least is None or image[least] is not None:
            return None
        image[least] = y
    return tuple(image)


def fixed_rank(target: Lattice, order: Poset) -> int:
    """Rank of the idempotent action of the opposite order on functions from
    the ordered set into ``target``: the number of fixed basis functions."""
    image = action_index(order.leq.opposite(), target)
    return int(np.count_nonzero(image == np.arange(len(image))))


def total_rank_formula(n: int, points: int) -> int:
    """Alternating binomial count of surjections-onto-the-irreducibles for a
    total order of height ``n``."""
    return sum((-1) ** (n - i) * math.comb(n, i) * (i + 1) ** points
               for i in range(n + 1))
