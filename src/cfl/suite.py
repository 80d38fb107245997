"""Declarative verification suites: every claim becomes a pass/fail check.

Each check is registered with a name, a self-describing anchor for the claim
it replays, and the suites it belongs to.  Checks receive a context carrying
limits, a seeded generator and the coefficient ring; they return ``None`` on
success or a replayable witness dictionary on failure.

Each criterion of the ``acceptance`` suite is a pair: the registered check
bodies that replay its claim, and one pinned ``Limits``.  It ignores the
limits and the ring it is given and always runs over the rationals.

A suite run computes each pure result once.  Every body runs, and its checks
share one memo (``Context.shared``) keyed by function and arguments (``_once``):
each kernel-system rank, and each outcome a body reads its limits into, whole
or per lattice.  A function that reads the ring takes it as an argument, and a
check that takes another check's result names it (``CheckResult.reused``).
``run_check`` starts from an empty memo, so it computes everything itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import enumerate_lattices, enumerate_posets, named_lattices
from .exact import (ExactMatrix, RATIONALS, bareiss_rank_int, det_int,
                    fast_int_rank, modp_rank)
from .functor import (LatticeFunction, _digits, _subset_ors, act, action_index, all_functions,
                      dual_star, fixed_rank, fund_act, gamma_corr, gamma_span_rank, gamma_t,
                      h_quotient_basis, irr_data, orth_check, pairing, pairing_matrix,
                      perm_basis, retraction_exists, star_act, theta_condition_tables,
                      theta_conditions, theta_matrix, theta_rank, total_rank_formula)
from .lattices import (CapExceeded, Lattice, LatticeError, Poset, chain,
                       canonical_surjection, derived_lattices, ideal_lattice,
                       irreducibles, is_distributive, join_maps, lattice_from_leq,
                       lattice_to_json, lattices_isomorphic, mobius,
                       posets_isomorphic, principal_embed)
from .morphisms import (Family, LinMorphism, TermNotInBasis, adjoint_op, beta,
                        compose_families, compose_pairs, e_t, first_product_mismatch,
                        lambda_of_tuple, max_tuple_size, p_tuples, pi_of_tuple, rho_y,
                        stack_families, tot_basis, unit_block, y_tuples)
from .relations import (Correspondence, order_flags, preorder_quotient,
                        reflexive_transitive_closure)


@dataclass(frozen=True)
class Limits:
    """Bounds of a run.  At least one lattice size (the catalog's smallest
    lattice has one element), points from zero, and at least one sample: a
    negative count fails inside a check, and with no lattices or no samples
    the checks that draw from them would visit nothing."""
    max_lattice: int = 5
    max_points: int = 2
    samples: int = 200

    def __post_init__(self):
        for name, least in (("max_lattice", 1), ("max_points", 0), ("samples", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


@dataclass
class Context:
    limits: Limits
    rng: random.Random
    ring: object
    shared: dict = field(default_factory=dict)  # the run's memo (_once): key -> (result, owner)
    reused: list = field(default_factory=list)  # the checks whose results it took
    name: str = ""                              # the check it runs


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str                 # "pass" | "fail" | "skip"
    witness: dict | None = None
    elapsed_ms: int = 0
    reused: tuple = ()          # checks whose stored results this one took


@dataclass
class PropertyReport:
    suite: str
    ring: str
    seed: int
    checks: list
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        out_checks = []
        for c in self.checks:
            entry = {"name": c.name, "paper_anchor": c.anchor, "status": c.status}
            if c.witness is not None:
                entry["witness"] = c.witness
            out_checks.append(entry)
        return {"suite": self.suite, "ring": self.ring, "seed": self.seed,
                "checks": out_checks, "elapsed_ms": self.elapsed_ms}

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (ring={self.ring}, seed={self.seed})"]
        if self.ring != "rat":
            lines.append("  note: prime-field ranks are probabilistic for "
                         "characteristic-zero claims")
        for c in self.checks:
            shared = f", shared with {', '.join(c.reused)}" if c.reused else ""
            lines.append(f"  [{c.status.upper():4}] {c.name} ({c.elapsed_ms} ms{shared}): "
                         f"{c.anchor}")
            if c.witness is not None:
                lines.append(f"         witness: {json.dumps(c.witness, sort_keys=True)}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} ({len(self.checks)} checks, {self.elapsed_ms} ms)")
        return "\n".join(lines)


_REGISTRY: list = []


def check(name: str, anchor: str, *suites: str):
    def wrap(fn):
        _REGISTRY.append((name, anchor, tuple(suites), fn))
        return fn
    return wrap


def suite_names():
    names = []
    for _, _, suites, _ in _REGISTRY:
        for s in suites:
            if s not in names:
                names.append(s)
    return names + ["all"]


def list_checks():
    return [(name, anchor, suites) for name, anchor, suites, _ in _REGISTRY]


def _selected(suite: str):
    if suite == "all":
        return list(_REGISTRY)
    picked = [entry for entry in _REGISTRY if suite in entry[2]]
    if not picked:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(suite_names())}")
    return picked


def run_suite(suite: str, limits: Limits | None = None, seed: int = 0,
              ring=RATIONALS) -> PropertyReport:
    """Run every check of a suite deterministically for the given seed, each
    pure result once (see the module docstring)."""
    start = time.monotonic()
    shared = {}
    results = [_run(entry, limits, seed, ring, shared) for entry in _selected(suite)]
    elapsed = int((time.monotonic() - start) * 1000)
    return PropertyReport(suite, ring.name, seed, results, elapsed)


def run_check(name: str, limits: Limits | None = None, seed: int = 0,
              ring=RATIONALS) -> CheckResult:
    for entry in _REGISTRY:
        if entry[0] == name:
            return _run(entry, limits, seed, ring, {})
    raise ValueError(f"unknown check {name!r}")


def _run(entry, limits, seed, ring, shared) -> CheckResult:
    """One registered check, its generator seeded by the seed and its name."""
    name, anchor, _, fn = entry
    ctx = Context(limits or Limits(), random.Random(f"{seed}:{name}"), ring, shared, name=name)
    start = time.perf_counter()
    try:
        outcome = fn(ctx)
    except CapExceeded as cap:
        status, witness = "skip", {"reason": str(cap)}
    else:
        if outcome is None:
            status, witness = "pass", None
        elif isinstance(outcome, tuple) and outcome[0] == "info":
            status, witness = "pass", outcome[1]
        else:
            status, witness = "fail", outcome
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckResult(name, anchor, status, witness, elapsed, tuple(ctx.reused))


def _once(ctx, fn, *args):
    """``fn(*args)``, a pure result, computed once per run.  The key is the
    function object and every argument, so a replaced function never reads
    another's values.  A check that takes another's result names it."""
    key = (fn, *args)
    if key not in ctx.shared:
        ctx.shared[key] = fn(*args), ctx.name
    result, owner = ctx.shared[key]
    if owner != ctx.name and owner not in ctx.reused:
        ctx.reused.append(owner)
    return result


def _first_outcome(ctx, fn, items, *rest):
    """The first ``fn(*item, *rest)`` over ``items`` that is not None, each
    once per run (``_once``), so a check at other limits shares its common items."""
    return next((out for item in items if (out := _once(ctx, fn, *item, *rest)) is not None), None)


# --- helpers -----------------------------------------------------------------


def _named(ctx, cap=None):
    bound = ctx.limits.max_lattice if cap is None else min(ctx.limits.max_lattice, cap)
    return [(n, l) for n, l in named_lattices().items() if l.n <= bound]


def _witness(lat, **extra):
    out = {"lattice": lattice_to_json(lat)}
    out.update(extra)
    return out


def _relations(dst, src):
    """Every relation from ``src`` points to ``dst`` points, rows in
    lexicographic order."""
    for rows in itertools.product(range(1 << src), repeat=dst):
        yield Correspondence(dst, src, rows)


def _rand_corr(rng, dst, src):
    return Correspondence(dst, src, (rng.getrandbits(src) for _ in range(dst)))


def _rand_function(rng, lat, points):
    return LatticeFunction(lat, (rng.randrange(lat.n) for _ in range(points)))


def _units(lat, max_size):
    """The top-avoiding chains of each size up to ``max_size``, the index
    pairs ``(d, c)`` of chains of one size, by size, then d, as two arrays,
    and the family of their matrix units ``f_dc``: each size's sections
    after its quotients (``unit_block``), stacked."""
    blocks = [unit_block(lat, n) for n in range(min(max_size, max_tuple_size(lat)) + 1)]
    tuples = [b for block, _, _ in blocks for b in block]
    pairs = [(d, c) for d, b in enumerate(tuples) for c, a in enumerate(tuples) if len(b) == len(a)]
    units = stack_families([compose_families(sections, quotients) for _, sections, quotients in blocks])
    return tuples, np.array(pairs).T, units


def _chain_image_count(lat, points):
    count = 0
    for f in all_functions(lat, points):
        image = set(f.values)
        if all(lat.le(a, b) or lat.le(b, a)
               for a, b in itertools.combinations(image, 2)):
            count += 1
    return count


def _level_drop_sum(n):
    """``sum over Y of (-1)^(n - |Y|) rho_Y``: the quotient of a chain after
    its section, and the top block ``beta(n, n)`` of the total order."""
    return LinMorphism(chain(n), chain(n),
                       [(rho_y(n, ys), (-1) ** (n - k)) for k in range(n + 1)
                        for ys in itertools.combinations(range(1, n + 1), k)])


def _has_splitting_section(lat) -> bool:
    """Search for a join-preserving right inverse s of the join-of-subset map.

    Such an s is fixed by its subsets s(e) at the join-irreducibles e and
    extends by unions, s(t) = union of s(e) over e <= t.  The set s(e)
    must join to e, and the elements strictly below an irreducible e join
    to less than e, so s(e) is e with any subset of the rest of its
    down-set.  Every extension of such a choice is a section: s(t) joins to
    the join of the irreducibles below t, which is t.  It is also monotone,
    so join preservation is left to test, on incomparable pairs only."""
    n, join, down = lat.n, lat.join, lat.poset.down
    elems, _ = irreducibles(lat)
    options = []
    for e in elems:
        rest = down[e] & ~(1 << e)
        sub, subs = rest, [1 << e | rest]
        while sub:
            sub = (sub - 1) & rest
            subs.append(1 << e | sub)
        options.append(subs)
    below = [[i for i, e in enumerate(elems) if down[t] >> e & 1] for t in range(n)]
    pairs = [(a, b, join[a][b]) for a in range(n) for b in range(a + 1, n)
             if not (lat.le(a, b) or lat.le(b, a))]
    for assign in itertools.product(*options):
        sigma = [0] * n
        for t, under in enumerate(below):
            for i in under:
                sigma[t] |= assign[i]
        if all(sigma[j] == sigma[a] | sigma[b] for a, b, j in pairs):
            return True
    return False


# --- relations ----------------------------------------------------------------


@check("relation-monoid",
       "relation composition is associative and the diagonal is its identity",
       "relations")
def _check_relation_monoid(ctx):
    two = list(_relations(2, 2))
    ident = Correspondence.identity(2)
    for r in two:
        if ident @ r != r or r @ ident != r:
            return {"pairs": sorted(r.pairs()), "law": "identity"}
    for r in two:
        for s in two:
            for t in two:
                if (r @ s) @ t != r @ (s @ t):
                    return {"r": sorted(r.pairs()), "s": sorted(s.pairs()),
                            "t": sorted(t.pairs()), "law": "associativity"}
    for _ in range(ctx.limits.samples):
        sizes = [ctx.rng.randint(1, 5) for _ in range(4)]
        r = _rand_corr(ctx.rng, sizes[0], sizes[1])
        s = _rand_corr(ctx.rng, sizes[1], sizes[2])
        t = _rand_corr(ctx.rng, sizes[2], sizes[3])
        if (r @ s) @ t != r @ (s @ t):
            return {"r": sorted(r.pairs()), "s": sorted(s.pairs()),
                    "t": sorted(t.pairs()), "law": "associativity"}
    return None


@check("relation-opposite",
       "transposition is an involution and an anti-automorphism for composition",
       "relations")
def _check_relation_opposite(ctx):
    for _ in range(ctx.limits.samples):
        zy = (ctx.rng.randint(1, 5), ctx.rng.randint(1, 5))
        yx = (zy[1], ctx.rng.randint(1, 5))
        r = _rand_corr(ctx.rng, *zy)
        s = _rand_corr(ctx.rng, *yx)
        if r.opposite().opposite() != r:
            return {"r": sorted(r.pairs()), "law": "involution"}
        if (r @ s).opposite() != s.opposite() @ r.opposite():
            return {"r": sorted(r.pairs()), "s": sorted(s.pairs()),
                    "law": "anti-automorphism"}
    return None


@check("relation-order-laws",
       "axiom flags match a brute-force scan; orders are idempotent and meet "
       "their opposite in the diagonal",
       "relations")
def _check_order_laws(ctx):
    for r in _relations(3, 3):
        flags = order_flags(r)
        refl = all((a, a) in r for a in range(3))
        trans = not any((a, b) in r and (b, c) in r and (a, c) not in r
                        for a in range(3) for b in range(3) for c in range(3))
        anti = not any(a != b and (a, b) in r and (b, a) in r
                       for a in range(3) for b in range(3))
        if (flags.reflexive, flags.antisymmetric) != (refl, anti) or flags.transitive != trans:
            return {"pairs": sorted(r.pairs()), "law": "axiom scan"}
    for p in enumerate_posets(min(4, ctx.limits.max_lattice)):
        r = p.leq
        if r @ r != r:
            return {"pairs": sorted(r.pairs()), "law": "idempotence"}
        if r & r.opposite() != Correspondence.identity(r.dst_size):
            return {"pairs": sorted(r.pairs()), "law": "diagonal intersection"}
    return None


@check("preorder-quotient",
       "collapsing mutual comparability yields an order with the same ideals",
       "relations", "lattices")
def _check_preorder_quotient(ctx):
    for _ in range(max(20, ctx.limits.samples // 4)):
        n = ctx.rng.randint(1, 5)
        pre = reflexive_transitive_closure(_rand_corr(ctx.rng, n, n))
        quo, proj = preorder_quotient(pre)
        if not order_flags(quo).is_order:
            return {"pairs": sorted(pre.pairs()), "law": "quotient order"}
        for x in range(n):
            for y in range(n):
                if ((x, y) in pre) != ((proj[x], proj[y]) in quo):
                    return {"pairs": sorted(pre.pairs()), "law": "projection compatible"}
        below = pre.opposite().rows
        pre_ideals = [m for m in range(1 << n)
                      if all(below[b] & ~m == 0 for b in range(n) if m >> b & 1)]
        k = len(pre_ideals)
        idx = {m: i for i, m in enumerate(pre_ideals)}
        pre_lat = lattice_from_leq(
            k, [(idx[a], idx[b]) for a in pre_ideals for b in pre_ideals
                if a & ~b == 0])
        quo_lat, _ = ideal_lattice(Poset(quo), "lower")
        if not lattices_isomorphic(pre_lat, quo_lat):
            return {"pairs": sorted(pre.pairs()), "law": "ideal lattices isomorphic"}
    cycle = reflexive_transitive_closure(
        Correspondence.from_pairs(3, 3, [(0, 1), (1, 2), (2, 0)]))
    quo, _ = preorder_quotient(cycle)
    if quo.dst_size != 1:
        return {"pairs": sorted(cycle.pairs()), "law": "cycle collapses"}
    return None


# --- lattices -----------------------------------------------------------------


@check("birkhoff-round-trip",
       "ideals of the irreducibles rebuild a distributive lattice; every poset "
       "is the irreducible poset of its ideal lattice",
       "lattices")
def _check_birkhoff(ctx):
    for name, lat in _named(ctx, 8):
        srj = canonical_surjection(lat)
        if not srj.is_surjective():
            return _witness(lat, name=name, law="surjection")
        bijective = srj.src.n == lat.n and len(set(srj.images)) == lat.n
        if bijective != is_distributive(lat):
            return _witness(lat, name=name, law="bijective iff distributive")
        if bijective and not lattices_isomorphic(srj.src, lat):
            return _witness(lat, name=name, law="isomorphism")
    for p in enumerate_posets(min(4, ctx.limits.max_lattice)):
        ideals, masks = ideal_lattice(p, "lower")
        elems, sub = irreducibles(ideals)
        if not posets_isomorphic(sub, p):
            return {"poset": sorted(p.leq.pairs()), "law": "irreducibles of ideals"}
        if sorted(principal_embed(p)) != elems:
            return {"poset": sorted(p.leq.pairs()), "law": "principal ideals"}
    return None


@check("mobius-duality",
       "the Mobius value of an interval in the opposite lattice is the value "
       "of the reversed interval",
       "lattices")
def _check_mobius_duality(ctx):
    for name, lat in _named(ctx, 8):
        mob = mobius(lat)
        mob_op = mobius(lat.opposite())
        for (a, b), v in mob.items():
            if mob_op[b, a] != v:
                return _witness(lat, name=name, interval=[a, b], law="duality")
        if any(mob[a, a] != 1 for a in range(lat.n)):
            return _witness(lat, name=name, law="diagonal")
        for a in range(lat.n):
            for b in range(lat.n):
                if a != b and lat.le(a, b):
                    total = sum(v for (x, c), v in mob.items()
                                if x == a and lat.le(c, b))
                    if total != 0:
                        return _witness(lat, name=name, interval=[a, b], law="sum zero")
    return None


@check("ideal-direction-duality",
       "upper ideals are the lower ideals of the opposite order, with the "
       "same subset encodings",
       "lattices")
def _check_ideal_duality(ctx):
    for p in enumerate_posets(min(4, ctx.limits.max_lattice)):
        up_lat, up_enc = ideal_lattice(p, "upper")
        dn_lat, dn_enc = ideal_lattice(p.opposite(), "lower")
        if up_enc != dn_enc or up_lat != dn_lat:
            return {"poset": sorted(p.leq.pairs()), "law": "direction duality"}
        if list(up_enc) != sorted(up_enc):
            return {"poset": sorted(p.leq.pairs()), "law": "ascending encodings"}
    return None


@check("distributive-splitting",
       "a lattice is distributive exactly when the join-of-subset map admits "
       "a join-preserving section",
       "lattices")
def _check_splitting(ctx):
    return _once(ctx, _splitting_failure, min(5, ctx.limits.max_lattice))


def _splitting_failure(top):
    for lat in enumerate_lattices(top):
        if _has_splitting_section(lat) != is_distributive(lat):
            return _witness(lat, law="splitting criterion")
    return None


@check("derived-lattices",
       "opposites are involutive, chains and the diamond are self-dual, and "
       "the join-of-subset map is a surjective join-map",
       "lattices")
def _check_derived(ctx):
    named = named_lattices()
    for name, lat in _named(ctx, 6):
        der = derived_lattices(lat)
        if der.opposite.opposite() != lat:
            return _witness(lat, name=name, law="opposite involution")
        if der.boolean.n != 2 ** lat.n or not der.upsilon.is_surjective():
            return _witness(lat, name=name, law="subset lattice")
    for name in ("chain3", "m3"):
        lat = named[name]
        if not lattices_isomorphic(lat.opposite(), lat):
            return _witness(lat, name=name, law="self-dual")
    return None


# --- enumeration ----------------------------------------------------------------


@check("enumeration-recount",
       "the factorized lattice enumeration matches a brute-force axiom scan "
       "over all labeled posets",
       "enumeration")
def _check_enumeration(ctx):
    top = min(5, ctx.limits.max_lattice)
    sizes = [lat.n for lat in enumerate_lattices(top)]
    for n in range(top + 1):
        posets = enumerate_posets(n)
        if len(posets) != (1, 1, 3, 19, 219, 4231)[n]:  # OEIS A001035
            return {"n": n, "posets": len(posets), "law": "labeled poset count"}
        brute = 0
        for p in posets:
            try:
                Lattice(p)
                brute += 1
            except LatticeError:
                pass
        if sizes.count(n) != brute:
            return {"n": n, "fast": sizes.count(n), "brute": brute}
    return None


# --- idempotents ----------------------------------------------------------------


@check("matrix-unit-products",
       "composites of section-quotient pairs multiply like matrix units",
       "idempotents")
def _check_matrix_units(ctx):
    return _first_outcome(ctx, _unit_product_mismatch, _named(ctx, 6))


def _unit_product_mismatch(name, lat):
    """The chains ``[d, c, b, a]`` of the first product ``f_dc`` after
    ``f_ba`` of units of size at most 3 that is not its matrix unit or zero."""
    tuples, (d, c), family = _units(lat, 3)
    # unit i = f_dc after unit j = f_ba is unit f_da when c = b, else zero (pick -1)
    position = np.full((len(tuples), len(tuples)), -1)
    position[d, c] = np.arange(len(d))
    bad = first_product_mismatch(family, family, family, lambda rows: np.where(
        c[rows, None] == d, position[d[rows, None], c], -1))
    if bad is None:
        return None
    i, j = divmod(bad, len(d))
    return _witness(lat, name=name, tuples=[list(tuples[t].entries)
                                            for t in (d[i], c[i], d[j], c[j])])


@check("section-quotient-identities",
       "the quotient after its section is the signed sum of level-drop maps, "
       "and the section after the quotient is idempotent",
       "idempotents")
def _check_section_quotient(ctx):
    return _first_outcome(ctx, _section_quotient_failure, _named(ctx, 6))


def _section_quotient_failure(name, lat):
    """The first chain of size at most 3 whose quotient after its section or
    whose diagonal unit ``f_bb`` squared fails, and the law it breaks."""
    for n in range(min(3, max_tuple_size(lat)) + 1):
        tuples, sections, quotients = unit_block(lat, n)
        want = _level_drop_sum(n)
        after, units = compose_pairs(quotients, sections), compose_pairs(sections, quotients)
        squares = compose_pairs(units, units)
        for i, b in enumerate(tuples):
            if after.member(i) != want:
                return _witness(lat, name=name, tuple=list(b.entries), law="quotient after section")
            if squares.member(i) != units.member(i):
                return _witness(lat, name=name, tuple=list(b.entries), law="idempotent")
    return None


@check("chain-central-idempotents",
       "the block idempotents of a total order are orthogonal, central, and "
       "sum to the identity",
       "idempotents")
def _check_chain_idempotents(ctx):
    return _first_outcome(ctx, _chain_block_failure,
                          [(n,) for n in range(min(4, ctx.limits.max_lattice) + 1)])


def _chain_block_failure(n):
    blocks = [beta(n, m) for m in range(n + 1)]
    if sum(blocks, LinMorphism.zero(chain(n), chain(n))) != LinMorphism.identity(chain(n)):
        return {"n": n, "law": "sum to identity"}
    family = Family(chain(n), chain(n), blocks)
    diagonal = np.where(np.eye(n + 1, dtype=bool), np.arange(n + 1), -1)
    bad = first_product_mismatch(family, family, family, lambda rows: diagonal[rows])
    if bad is not None:
        l, m = divmod(bad, n + 1)
        return {"n": n, "l": l, "m": m, "law": "orthogonality"}
    if blocks[n] != _level_drop_sum(n):
        return {"n": n, "law": "top block"}
    ends = join_maps(chain(n), chain(n))
    endos = Family(chain(n), chain(n), [LinMorphism.of_map(f) for f in ends])
    # beta_m after f_j is member m * |ends| + j, f_j after beta_m is j * (n + 1) + m
    swapped = np.arange(len(ends)) * (n + 1) + np.arange(n + 1)[:, None]
    bad = first_product_mismatch(family, endos, compose_families(endos, family),
                                 lambda rows: swapped[rows])
    if bad is not None:
        m, j = divmod(bad, len(ends))
        return {"n": n, "m": m, "images": list(ends[j].images), "law": "centrality"}
    return None


@check("chain-endo-structure",
       "a total order has a central-binomial count of join-endomorphisms and "
       "the matrix units span them with determinant +-1",
       "idempotents")
def _check_chain_endo(ctx):
    return _once(ctx, _chain_endo_failure, min(6, ctx.limits.max_lattice + 1),
                 min(4, ctx.limits.max_lattice), ctx.ring)


def _chain_endo_failure(count_top, rank_top, ring):
    """Chain endomorphisms counted up to ``count_top``, unit families ranked up to ``rank_top``."""
    bases = [tot_basis(chain(n)) for n in range(count_top + 1)]
    for n, basis in enumerate(bases):
        if len(basis) != math.comb(2 * n, n) or len(set(basis)) != len(basis):
            return {"n": n, "count": len(basis), "law": "endo count"}
        if n <= 3 and len(join_maps(chain(n), chain(n))) != len(basis):
            return {"n": n, "law": "brute endo count"}
    for n, basis in enumerate(bases[:rank_top + 1]):
        family = _units(chain(n), n)[2]
        coeffs = family.over(basis)
        if any(den != 1 for den in family.dens):
            return {"n": n, "law": "integer coefficients"}
        want = sum(math.comb(n, m) ** 2 for m in range(n + 1))
        got = fast_int_rank(coeffs, ring)
        if got != want or want != len(basis):
            return {"n": n, "rank": got, "want": want}
        if n <= 3:
            det = det_int(coeffs)
            if abs(det) != 1:
                return {"n": n, "det": det, "law": "unimodular change of basis"}
    return None


@check("matrix-units-span",
       "the matrix units are independent and span exactly the chain-image "
       "endomorphisms, where the central element acts as identity",
       "idempotents")
def _check_units_span(ctx):
    for name, lat in _named(ctx, 5):
        basis = tot_basis(lat)
        sizes = [len(p_tuples(lat, n)) for n in range(max_tuple_size(lat) + 1)]
        ysizes = [len(y_tuples(lat, n)) for n in range(max_tuple_size(lat) + 1)]
        if sizes != ysizes or len(basis) != sum(a * b for a, b in zip(sizes, ysizes)):
            return _witness(lat, name=name, law="tuple counts")
        family = _units(lat, len(sizes) - 1)[2]
        try:
            coeffs = family.over(basis)
        except TermNotInBasis as stray:
            return _witness(lat, name=name, images=list(stray.images), law="span inclusion")
        if any(den != 1 for den in family.dens):
            return _witness(lat, name=name, law="integer coefficients")
        if fast_int_rank(coeffs, ctx.ring) != len(basis):
            return _witness(lat, name=name, law="span equality")
        unit = Family(lat, lat, [e_t(lat)])
        span = Family(lat, lat, [LinMorphism.of_map(m) for m in basis])
        fixed = np.arange(len(basis))  # the unit fixes each basis element, both sides
        found = [first_product_mismatch(unit, span, span, lambda rows: fixed[None, :]),
                 first_product_mismatch(span, unit, span, lambda rows: fixed[rows, None])]
        bad = [j for j in found if j is not None]  # member j is basis[j] either way
        if bad:
            return _witness(lat, name=name, images=list(basis[min(bad)].images),
                            law="identity on the span")
    return None


@check("center-naturality",
       "the central element commutes with every morphism between lattices",
       "idempotents")
def _check_center_naturality(ctx):
    entries = _named(ctx, 4)
    units = {name: Family(lat, lat, [e_t(lat)]) for name, lat in entries}
    for name1, lat1 in entries:
        for name2, lat2 in entries:
            maps = join_maps(lat1, lat2)
            picks = maps if len(maps) <= 20 else ctx.rng.sample(maps, 20)
            thetas = Family(lat1, lat2, [LinMorphism.of_map(theta) for theta in picks])
            # member j of both products is built from theta_j
            same = np.arange(len(picks))[:, None]
            j = first_product_mismatch(thetas, units[name1], compose_families(units[name2], thetas),
                                       lambda rows: same[rows])
            if j is not None:
                return {"src": name1, "dst": name2, "images": list(picks[j].images)}
    return None


@check("adjoint-duality",
       "each join-map has a meet-preserving adjoint; taking adjoints reverses "
       "composition and swaps the chain-image factorizations",
       "idempotents")
def _check_adjoints(ctx):
    entries = _named(ctx, 4)
    for name1, lat1 in entries:
        for name2, lat2 in entries:
            for f in join_maps(lat1, lat2):
                g = adjoint_op(f)
                for t1 in range(lat1.n):
                    for t2 in range(lat2.n):
                        if lat2.le(f.images[t1], t2) != lat1.le(t1, g.images[t2]):
                            return {"src": name1, "dst": name2,
                                    "images": list(f.images), "law": "adjunction"}
                if adjoint_op(g) != f:
                    return {"src": name1, "dst": name2, "images": list(f.images),
                            "law": "involution"}
    lat = named_lattices()["b2"]
    maps = join_maps(lat, lat)[:12]
    for f in maps:
        for g in maps:
            if adjoint_op(g @ f) != adjoint_op(f) @ adjoint_op(g):
                return {"law": "anti-automorphism", "f": list(f.images),
                        "g": list(g.images)}
    for name, lat in _named(ctx, 5):
        op = lat.opposite()
        for n in range(max_tuple_size(lat) + 1):
            for u in p_tuples(lat, n):
                for v in y_tuples(lat, n):
                    m = lambda_of_tuple(v) @ pi_of_tuple(u)
                    urev = type(v)(op, tuple(reversed(u.entries)), "Y")
                    vrev = type(u)(op, tuple(reversed(v.entries)), "P")
                    want = lambda_of_tuple(urev) @ pi_of_tuple(vrev)
                    if adjoint_op(m) != want:
                        return _witness(lat, name=name, law="opposite basis element",
                                        u=list(u.entries), v=list(v.entries))
    return None


# --- functors -------------------------------------------------------------------


@check("functor-composition",
       "acting by a composite of relations equals acting in two steps, and "
       "the diagonal acts as identity",
       "functors")
def _check_functor_composition(ctx):
    for name, lat in _named(ctx, 5):
        if (action_index(Correspondence.identity(2), lat) != np.arange(lat.n ** 2)).any():
            return _witness(lat, name=name, law="identity")
        steps = [(r, action_index(r, lat)) for r in _relations(2, 1)]
        for s in itertools.chain(_relations(1, 2), _relations(2, 2)):
            s_image = action_index(s, lat)
            for r, r_image in steps:
                bad = np.flatnonzero(action_index(s @ r, lat) != s_image[r_image])
                if len(bad):
                    return _witness(lat, name=name, s=sorted(s.pairs()), r=sorted(r.pairs()),
                                    phi=_digits(lat.n, 1)[bad[0]].tolist())
    for _ in range(ctx.limits.samples):
        name, lat = ctx.rng.choice(_named(ctx, 7))
        x, y, z = (ctx.rng.randint(1, 3) for _ in range(3))
        s = _rand_corr(ctx.rng, z, y)
        r = _rand_corr(ctx.rng, y, x)
        f = _rand_function(ctx.rng, lat, x)
        if act(s @ r, f) != act(s, act(r, f)):
            return _witness(lat, name=name, s=sorted(s.pairs()),
                            r=sorted(r.pairs()), phi=list(f.values))
    return None


@check("map-naturality",
       "pushing along a formal sum of join-maps commutes with every relation "
       "action; the top chain idempotent kills non-covering functions",
       "functors")
def _check_map_naturality(ctx):
    # each (lattice, size)'s units, built at its first draw: f_dc is member d * len + c
    units = functools.cache(lambda lat, n: compose_families(*unit_block(lat, n)[1:]))
    for _ in range(ctx.limits.samples // 2):
        name, lat = ctx.rng.choice(_named(ctx, 5))
        blocks = [unit_block(lat, n)[0] for n in range(min(2, max_tuple_size(lat)) + 1)]
        d = ctx.rng.choice([b for block in blocks for b in block])
        block = blocks[len(d)]
        c = ctx.rng.choice(block)
        alpha = units(lat, len(d)).member(block.index(d) * len(block) + block.index(c))
        x, y = ctx.rng.randint(1, 2), ctx.rng.randint(1, 2)
        r = _rand_corr(ctx.rng, y, x)
        f = _rand_function(ctx.rng, lat, x)
        acted_then_pushed = _collect(_push(alpha, act(r, f)))
        pushed_then_acted = _collect((act(r, g), a) for g, a in _push(alpha, f))
        if acted_then_pushed != pushed_then_acted:
            return _witness(lat, name=name, r=sorted(r.pairs()))
    for n in range(1, 4):
        eps = beta(n, n)
        covering = set(h_quotient_basis(chain(n), 2))
        for f in all_functions(chain(n), 2):
            out = _collect(_push(eps, f))
            if f.index not in covering:
                if out:
                    return {"n": n, "phi": list(f.values), "law": "kills missing"}
            elif any(i in covering and c != (1 if i == f.index else 0) for i, c in out.items()):
                return {"n": n, "phi": list(f.values),
                        "law": "identity modulo the missing span"}
    return None


def _push(alpha, f):
    """Each term of the formal sum ``alpha`` applied to the basis function
    ``f``: the function ``m . f`` with the coefficient of ``m``."""
    return [(LatticeFunction(alpha.dst, (m.images[t] for t in f.values)), a)
            for m, a in alpha.terms.items()]


def _collect(terms):
    """(function, coefficient) terms summed as {function index: coefficient},
    zero sums dropped."""
    out = {}
    for g, a in terms:
        out[g.index] = out.get(g.index, 0) + a
    return {i: a for i, a in out.items() if a}


def _missing(lat, points):
    """Which functions on ``points`` points miss an irreducible, by index."""
    out = np.ones(lat.n ** points, dtype=bool)
    out[h_quotient_basis(lat, points)] = False
    return out


@check("missing-irreducible-span",
       "functions missing an irreducible form a stable subspace contained in "
       "the kernel of the quotient system",
       "functors")
def _check_h_subfunctor(ctx):
    for name, lat in _named(ctx, 5):
        missing = _missing(lat, 2)
        for q in _relations(2, 2):
            bad = np.flatnonzero(missing & ~missing[action_index(q, lat)])
            if len(bad):
                return _witness(lat, name=name, q=sorted(q.pairs()),
                                phi=_digits(lat.n, 2)[bad[0]].tolist(), law="stability")
        points = min(2, ctx.limits.max_points)
        bad = np.flatnonzero(_missing(lat, points) & theta_matrix(lat, points).any(axis=0))
        if len(bad):
            return _witness(lat, name=name, index=int(bad[0]), law="inside the kernel")
    return None


@check("gamma-correspondence",
       "the barcode of a function absorbs the opposite order, recovers the "
       "function on the irreducibles, and is natural for distributive lattices",
       "functors")
def _check_gamma_corr(ctx):
    for name, lat in _named(ctx, 6):
        data = irr_data(lat)
        iota = LatticeFunction(lat, data.elems)
        rop = Correspondence(len(data.elems), len(data.elems), data.sub.down)
        if gamma_corr(iota) != rop:
            return _witness(lat, name=name, law="inclusion barcode")
        # Both laws hold point by point, so the function taking each value
        # once, at the point of that index, decides them for every function.
        g = gamma_corr(LatticeFunction(lat, range(lat.n)))
        recovered = act(g, iota).values
        for v, (row, absorbed) in enumerate(zip(g.rows, (g @ rop).rows)):
            if absorbed != row:
                return _witness(lat, name=name, phi=[v], law="absorbs the order")
            if recovered[v] != v:
                return _witness(lat, name=name, phi=[v], law="recovers the function")
        failure = is_distributive(lat) and _naturality_failure(
            lat, ((1, 1), (1, 2), (2, 1), (2, 2)))
        if failure:
            return _witness(lat, name=name, law="naturality", **failure)
    return None


def _naturality_failure(lat, shapes):
    """The first ``{"s": s, "phi": phi}``, over functions ``phi`` on x points
    and ``s`` to y points for each (x, y) of ``shapes`` in turn, where the
    barcode of ``act(s, phi)`` is not ``s`` after that of ``phi``; None when
    there is none.  A barcode is a row of down-masks: the acted one is read at the
    index map of ``s``, and ``s`` after one ORs its masks over each row."""
    down = np.array(irr_data(lat).down_irr, dtype=np.int64)
    for x, y in shapes:
        phi = _digits(lat.n, x)
        ors = _subset_ors(lat, phi)
        for s in _relations(y, x):
            acted = down[_digits(lat.n, y)[action_index(s, lat)]]
            bad = np.flatnonzero((acted != ors[list(s.rows)].T).any(axis=1))
            if len(bad):
                return {"s": sorted(s.pairs()), "phi": phi[bad[0]].tolist()}
    return None


@check("gamma-naturality-probe",
       "search non-distributive lattices for failures of barcode naturality; "
       "findings are recorded, not asserted",
       "functors")
def _check_gamma_probe(ctx):
    findings = []
    for name in ("m3", "n5"):
        failure = _naturality_failure(named_lattices()[name], ((1, 1), (2, 1), (2, 2)))
        findings.append({"name": name, **(failure or {"counterexample": None})})
    return ("info", {"findings": findings})


@check("pairing-adjunction",
       "moving a relation across the pairing transposes it",
       "functors", "duality")
def _check_pairing_adjunction(ctx):
    for _ in range(ctx.limits.samples):
        name, lat = ctx.rng.choice(_named(ctx, 7))
        x, y = ctx.rng.randint(1, 3), ctx.rng.randint(1, 3)
        q = _rand_corr(ctx.rng, y, x)
        phi = _rand_function(ctx.rng, lat, y)
        psi = _rand_function(ctx.rng, lat, x)
        if pairing(phi, star_act(q, psi)) != pairing(act(q.opposite(), phi), psi):
            return _witness(lat, name=name, q=sorted(q.pairs()),
                            phi=list(phi.values), psi=list(psi.values))
    return None


@check("retraction-criterion",
       "a barcode admits a retraction onto the order exactly when the "
       "function covers all principal upper ideals",
       "functors")
def _check_retraction(ctx):
    for p in enumerate_posets(3):
        iup, enc = ideal_lattice(p, "upper")
        for x in range(1, min(3, ctx.limits.max_points) + 1):
            covering = set(h_quotient_basis(iup, x))
            barcodes = [(f, Correspondence(x, p.n, (enc[v] for v in f.values)))
                        for f in all_functions(iup, x)]
            for idx, (f, s) in enumerate(barcodes):
                if retraction_exists(p, s) != (idx in covering):
                    return {"poset": sorted(p.leq.pairs()), "psi": list(f.values),
                            "law": "criterion equivalence"}
            if p.n <= 2 and x <= 2:
                for f, s in barcodes:
                    brute = any(r @ s == p.leq for r in _relations(p.n, x))
                    if retraction_exists(p, s) != brute:
                        return {"poset": sorted(p.leq.pairs()),
                                "psi": list(f.values), "law": "brute search"}
    return None


@check("fixed-point-hom-count",
       "fixed functions of the opposite-order action count the join-maps out "
       "of the ideal lattice",
       "functors")
def _check_fixed_rank(ctx):
    targets = _named(ctx, 4)
    for p in enumerate_posets(2):
        idl, _ = ideal_lattice(p, "lower")
        rop = p.leq.opposite()
        for name, lat in targets:
            want = len(join_maps(idl, lat))
            got = fixed_rank(lat, p)
            rows = []
            for f in all_functions(lat, p.n):
                out = act(rop, f).index
                rows.append([1 if j == out else 0 for j in range(lat.n ** p.n)])
            mat_rank = fast_int_rank(rows)
            if got != want or mat_rank != want:
                return {"poset": sorted(p.leq.pairs()), "target": name,
                        "count": got, "maps": want, "rank": mat_rank}
    return None


# --- ranks ----------------------------------------------------------------------


@check("rank-formula-chains",
       "the kernel-system rank for a total order matches the alternating "
       "binomial formula and the covering-function census",
       "ranks")
def _check_rank_formula(ctx):
    for n in range(min(4, ctx.limits.max_lattice) + 1):
        for x in range(ctx.limits.max_points + 1):
            rk = _once(ctx, theta_rank, chain(n), x, ctx.ring)
            formula = total_rank_formula(n, x)
            census = len(h_quotient_basis(chain(n), x))
            if rk != formula or census != formula:
                return {"n": n, "points": x, "rank": rk, "formula": formula,
                        "census": census}
    return None


@check("rank-binomial-decomposition",
       "binomially weighted total-order ranks add up to the full function count",
       "ranks")
def _check_rank_decomposition(ctx):
    for n in range(min(4, ctx.limits.max_lattice) + 1):
        for x in range(ctx.limits.max_points + 1):
            total = sum(math.comb(n, m) * _once(ctx, theta_rank, chain(m), x, ctx.ring)
                        for m in range(n + 1))
            if total != (n + 1) ** x:
                return {"n": n, "points": x, "total": total,
                        "want": (n + 1) ** x}
    return None


@check("rank-irreducible-invariance",
       "the kernel-system rank depends only on the poset of irreducibles",
       "ranks")
def _check_rank_invariance(ctx):
    for a, b in _invariance_pairs():
        for x in range(min(3, ctx.limits.max_points) + 1):
            ra, rb = (_once(ctx, theta_rank, lat, x, ctx.ring) for lat in (a, b))
            if ra != rb:
                return {"x": x, "rank_a": ra, "rank_b": rb,
                        "witness": _witness(a)}
    return None


def _invariance_pairs():
    """Lattices sharing an irreducible poset: m3 with b3, and n5 with the
    lattice of lower ideals of its irreducibles."""
    named = named_lattices()
    return [(named["m3"], named["b3"]),
            (named["n5"], ideal_lattice(irreducibles(named["n5"])[1], "lower")[0])]


@check("rank-dual-construction",
       "the span of the acted alternating generator has the same rank as the "
       "kernel system of the opposite-ideal lattice",
       "ranks")
def _check_rank_dual(ctx):
    for name, lat in _named(ctx, 5):
        elems, sub = irreducibles(lat)
        dual_lat, _ = ideal_lattice(sub.opposite(), "lower")
        for x in range(min(3, ctx.limits.max_points) + 1):
            g = _once(ctx, gamma_span_rank, lat, x, ctx.ring)
            t = _once(ctx, theta_rank, dual_lat, x, ctx.ring)
            if g != t:
                return _witness(lat, name=name, points=x, gamma=g, theta=t)
    return None


@check("chain-summand-census",
       "functions with totally ordered image are counted by the chain ranks "
       "over all top-avoiding tuples",
       "ranks")
def _check_summand_census(ctx):
    for name, lat in _named(ctx, 6):
        for x in range(min(3, ctx.limits.max_points) + 1):
            lhs = _chain_image_count(lat, x)
            rhs = sum(len(p_tuples(lat, m)) * total_rank_formula(m, x)
                      for m in range(max_tuple_size(lat) + 1))
            if lhs != rhs:
                return _witness(lat, name=name, points=x, census=lhs, ranks=rhs)
    return None


@check("rank-method-agreement",
       "the kernel-system rank and the dual-copy span rank agree on every "
       "common input",
       "ranks")
def _check_method_agreement(ctx):
    for name, lat in _named(ctx, 5):
        for x in range(min(3, ctx.limits.max_points) + 1):
            t = _once(ctx, theta_rank, lat, x, ctx.ring)
            g = _once(ctx, gamma_span_rank, lat, x, ctx.ring)
            if t != g:
                return _witness(lat, name=name, points=x, theta=t, gamma=g)
    return None


@check("rank-cross-ring",
       "fraction-free rational ranks agree with elimination mod a random "
       "large prime on the suite matrices",
       "ranks")
def _check_cross_ring(ctx):
    primes = [999983, 1000003, 1000033, 1000211, 1048583, 2097169]
    named = named_lattices()
    for name in ("chain2", "b2", "m3", "n5"):
        lat = named[name]
        for x in range(1, min(2, ctx.limits.max_points) + 1):
            rows = theta_matrix(lat, x).tolist()
            exact_rank = bareiss_rank_int(rows)
            p = ctx.rng.choice(primes)
            mod_rank = modp_rank(rows, p)
            if exact_rank != mod_rank:
                return _witness(lat, name=name, points=x, prime=p,
                                exact=exact_rank, modular=mod_rank)
            if fast_int_rank(rows) != exact_rank:
                return _witness(lat, name=name, points=x, law="fast path")
    for _ in range(ctx.limits.samples // 10):
        rows = [[ctx.rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]
        m = ExactMatrix(rows, ring=RATIONALS)
        if m.rank() != m.transpose().rank():
            return {"rows": rows, "law": "transpose"}
        if m.rank() + len(m.nullspace()) != 6:
            return {"rows": rows, "law": "rank-nullity"}
    return None


@check("fundamental-factorial",
       "at as many points as irreducibles the kernel-system rank is the "
       "factorial of the irreducible count",
       "ranks", "fundamental")
def _check_factorial(ctx):
    for name, lat in _named(ctx):
        elems, _ = irreducibles(lat)
        k = len(elems)
        if k > 3:
            continue
        try:
            rk = _once(ctx, theta_rank, lat, k, ctx.ring)
        except CapExceeded:
            continue
        if rk != math.factorial(k):
            return _witness(lat, name=name, rank=rk, want=math.factorial(k))
    return None


# --- duality --------------------------------------------------------------------


@check("dual-basis",
       "Mobius duals form the dual basis of the pairing, whose matrix is "
       "unitriangular up to ordering",
       "duality")
def _check_dual_basis(ctx):
    return _first_outcome(ctx, _dual_basis_failure, _named(ctx, 5), min(2, ctx.limits.max_points))


def _dual_basis_failure(name, lat, top):
    for x in range(1, top + 1):
        size = lat.n ** x
        funcs = list(all_functions(lat, x))
        paired = pairing_matrix(lat, x)
        # row phi, column lam: the pairing of lam with the dual of phi
        duals = np.array([dual_star(phi) for phi in funcs]) @ paired.T
        bad = np.argwhere(duals != np.eye(size, dtype=np.int64))
        if len(bad):
            phi, lam = bad[0]
            return _witness(lat, name=name, phi=list(funcs[phi].values),
                            lam=list(funcs[lam].values), law="dual basis")
        order = sorted(range(size),
                       key=lambda i: sum(lat.poset.down[v].bit_count()
                                         for v in funcs[i].values))
        ordered = paired[np.ix_(order, order)]
        below, diagonal = np.tril(ordered != 0, -1), np.eye(size, dtype=bool)
        bad = np.argwhere(below | diagonal & (ordered != 1))
        if len(bad):
            pos_i, pos_j = bad[0]
            return _witness(lat, name=name,
                            law="unit diagonal" if pos_i == pos_j else "triangular")
    return None


@check("gamma-element",
       "the alternating generator is the Mobius dual of the inclusion and is "
       "fixed by the order action",
       "duality")
def _check_gamma_element(ctx):
    return _first_outcome(ctx, _gamma_element_failure, _named(ctx, 7))


def _gamma_element_failure(name, lat):
    data = irr_data(lat)
    if lat.n ** len(data.elems) > 20000:
        return None
    g = gamma_t(lat)
    if not np.array_equal(g, dual_star(LatticeFunction(lat, data.elems))):
        return _witness(lat, name=name, law="dual of inclusion")
    acted = np.zeros_like(g)
    np.add.at(acted, action_index(data.sub.leq, lat.opposite()), g)
    if not np.array_equal(acted, g):
        return _witness(lat, name=name, law="fixed by the order")
    return None


@check("orthogonal-kernel",
       "the pairing-orthogonal complement of the dual copy is the nullspace "
       "of the kernel system",
       "duality")
def _check_orthogonal(ctx):
    return _first_outcome(ctx, _orthogonal_failure, _named(ctx, 5),
                          min(2, ctx.limits.max_points), ctx.ring)


def _orthogonal_failure(name, lat, top, ring):
    for x in range(1, top + 1):
        if name in ("m3", "n5") and x > 1:
            continue
        if not orth_check(lat, x, ring):
            return _witness(lat, name=name, points=x)
    return None


@check("gamma-iso-invariance",
       "the dual-copy rank is an invariant of the irreducible poset",
       "duality")
def _check_gamma_invariance(ctx):
    for a, b in _invariance_pairs():
        for x in range(min(2, ctx.limits.max_points) + 1):
            ga, gb = (_once(ctx, gamma_span_rank, lat, x, ctx.ring) for lat in (a, b))
            if ga != gb:
                return {"x": x, "rank_a": ga, "rank_b": gb}
    return None


# --- fundamental ----------------------------------------------------------------


def _condition_points(limits) -> int:
    """Both condition checks cover 1..this many points.  At least three: a
    table that drops the pointwise order of (e) or (f) first disagrees there."""
    return max(limits.max_points, 3)


@check("kernel-condition-equivalence",
       "the six membership conditions for the kernel system always agree",
       "fundamental")
def _check_six_conditions(ctx):
    top = _condition_points(ctx.limits)
    for name, lat in _named(ctx):
        data = irr_data(lat)
        for _ in range(ctx.limits.samples):
            x = ctx.rng.randint(1, top)
            phi = _rand_function(ctx.rng, lat, x)
            psi = _rand_function(ctx.rng, data.iup, x)
            conds = theta_conditions(phi, psi)
            if len(set(conds)) > 1:
                return _witness(lat, name=name, phi=list(phi.values),
                                psi=list(psi.values), conditions=list(conds))
    return None


@check("kernel-condition-tables",
       "each of the six membership conditions, tabled over every pair, equals "
       "the kernel system",
       "fundamental")
def _check_condition_tables(ctx):
    return _first_outcome(ctx, _condition_table_failure, _named(ctx), _condition_points(ctx.limits))


def _condition_table_failure(name, lat, points):
    for x in range(1, points + 1):
        system = theta_matrix(lat, x).view(bool)
        tables = theta_condition_tables(lat, x)
        for letter in "abcdef":
            rows, cols = (next(tables) != system).nonzero()  # one table at a time
            if len(rows):
                row, col = int(rows[0]), int(cols[0])
                return _witness(lat, name=name, x=x, condition=letter,
                                psi=_digits(irr_data(lat).iup.n, x)[row].tolist(),
                                phi=_digits(lat.n, x)[col].tolist())
    return None


@check("fundamental-action",
       "the relation action on the permutation module is multiplicative and "
       "unital",
       "fundamental")
def _check_fund_action(ctx):
    for p in enumerate_posets(2):
        rels = list(_relations(2, 2))
        for sigma in perm_basis(2):
            if fund_act(Correspondence.identity(2), sigma, p) != sigma:
                return {"poset": sorted(p.leq.pairs()), "law": "identity"}
            for q1 in rels:
                for q2 in rels:
                    if fund_act(q1 @ q2, sigma, p) != _act_after(q1, q2, sigma, p):
                        return {"poset": sorted(p.leq.pairs()),
                                "q1": sorted(q1.pairs()), "q2": sorted(q2.pairs()),
                                "law": "multiplicative"}
    posets3, basis3 = enumerate_posets(3), perm_basis(3)
    for _ in range(ctx.limits.samples):
        p = ctx.rng.choice(posets3)
        q1 = _rand_corr(ctx.rng, 3, 3)
        q2 = _rand_corr(ctx.rng, 3, 3)
        sigma = basis3[ctx.rng.randrange(6)]
        if fund_act(q1 @ q2, sigma, p) != _act_after(q1, q2, sigma, p):
            return {"poset": sorted(p.leq.pairs()), "q1": sorted(q1.pairs()),
                    "q2": sorted(q2.pairs()), "law": "multiplicative"}
    return None


def _act_after(q1, q2, sigma, p):
    """``q1`` acting on the image of ``sigma`` under ``q2``; None is zero."""
    image = fund_act(q2, sigma, p)
    return None if image is None else fund_act(q1, image, p)


# --- acceptance (bounds pinned by the criteria) ----------------------------------


def _acceptance(name, anchor, limits, *bodies):
    """Register a criterion: registered check bodies run in order at pinned
    limits over the rationals, reusing the criterion's generator and the
    run's memo; the first witness wins."""
    def run(ctx):
        pinned = replace(ctx, limits=limits, ring=RATIONALS)
        return next((out for body in bodies if (out := body(pinned)) is not None), None)
    check(name, anchor, "acceptance")(run)


_acceptance("A01-chain-rank-formula",
            "rank(S_n(X)) = sum_i (-1)^(n-i) C(n,i) (i+1)^|X| = #covering maps, "
            "n <= 4, |X| <= 5",
            Limits(max_points=5), _check_rank_formula)

_acceptance("A02-rank-decomposition",
            "sum_m C(n,m) rank(S_m(X)) = (n+1)^|X|, n <= 4, |X| <= 4",
            Limits(max_points=4), _check_rank_decomposition)

_acceptance("A03-idempotent-calculus",
            "matrix-unit products, the level-drop expansion of the quotient after "
            "its section, and the block-idempotent partition of a total order",
            Limits(max_lattice=6),
            _check_matrix_units, _check_section_quotient, _check_chain_idempotents)

_acceptance("A04-chain-endomorphisms",
            "join-endomorphism count of the n-chain is C(2n,n) for n <= 6; the "
            "matrix-unit family has rank sum_m C(n,m)^2 for n <= 4",
            Limits(max_lattice=6), _check_chain_endo)

_acceptance("A05-irreducible-invariance",
            "kernel-system ranks agree for lattices sharing an irreducible poset, "
            "|X| <= 3",
            Limits(max_points=3), _check_rank_invariance)

_acceptance("A06-dual-construction",
            "dual-copy span rank equals the kernel-system rank of the "
            "opposite-ideal lattice, catalog <= 5, |X| <= 3",
            Limits(max_lattice=5, max_points=3), _check_rank_dual)

_acceptance("A07-duality",
            "dual-basis identity, unimodular pairing, the alternating generator "
            "as a Mobius dual and its fixedness, |T| <= 5, |X| <= 2",
            Limits(max_lattice=5, max_points=2),
            _check_gamma_element, _check_dual_basis)

_acceptance("A08-orthogonality",
            "orthogonal complement of the dual copy equals the kernel, catalog "
            "<= 5 at |X| <= 2 and the diamond/pentagon at |X| = 1",
            Limits(max_lattice=5, max_points=2), _check_orthogonal)

_acceptance("A09-distributive-splitting",
            "distributivity is equivalent to a join-preserving section of the "
            "join-of-subset map, all labeled lattices <= 5",
            Limits(max_lattice=5), _check_splitting)

_acceptance("A10-condition-equivalence",
            "every (ideal function, function) pair of every catalog lattice at "
            "|X| <= 3: each of the six kernel conditions equals the kernel system",
            Limits(max_lattice=8, max_points=3), _check_condition_tables)

_acceptance("A11-fundamental-module",
            "the permutation-module action is multiplicative (exhaustive at two "
            "points, sampled at three) and the rank at the irreducible count is "
            "factorial for |E| <= 3",
            Limits(max_lattice=8, samples=1000),
            _check_fund_action, _check_factorial)

_acceptance("A12-chain-summand-census",
            "chain-image function counts match the tuple-weighted chain ranks, "
            "catalog <= 6, |X| <= 3",
            Limits(max_lattice=6, max_points=3), _check_summand_census)
