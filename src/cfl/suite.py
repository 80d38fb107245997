"""Declarative verification suites: every claim becomes a pass/fail check.

Each check is registered with a name, a self-describing anchor for the claim
it replays, and the suites it belongs to.  Checks receive a context carrying
limits, a seeded generator and the coefficient ring; they return ``None`` on
success or a replayable witness dictionary on failure.

Each criterion of the ``acceptance`` suite is a pair: the registered check
bodies that replay its claim, and one pinned ``Limits``.  It ignores the
limits and the ring it is given and always runs over the rationals.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .catalog import enumerate_lattices, enumerate_posets, named_lattices
from .exact import (ExactMatrix, RATIONALS, bareiss_rank_int, det_int,
                    fast_int_rank, modp_rank)
from .functor import (FundElement, LatticeFunction, act, act_mod, all_functions,
                      apply_lin, dual_star, fixed_rank, fund_act, gamma_corr,
                      gamma_span_rank, gamma_t, h_quotient_basis, irr_data,
                      orth_check, pairing, retraction_exists, star_act,
                      star_act_mod, theta_condition_tables, theta_conditions,
                      theta_matrix, theta_rank, total_rank_formula)
from .lattices import (CapExceeded, LatticeError, Poset, chain,
                       canonical_surjection, derived_lattices, ideal_lattice,
                       irreducibles, is_distributive, join_maps, lattice_from_leq,
                       lattice_to_json, lattices_isomorphic, mobius,
                       posets_isomorphic, principal_embed)
from .morphisms import (Family, LinMorphism, adjoint_op, beta, compose_families,
                        e_t, epsilon, f_dc, j_of_tuple, lambda_of_tuple, lin_to_vector,
                        max_tuple_size, p_tuples, pi_of_tuple, rho_y, tot_basis,
                        y_tuples)
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


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str                 # "pass" | "fail" | "skip"
    witness: dict | None = None
    elapsed_ms: int = 0


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
            lines.append(f"  [{c.status.upper():4}] {c.name} ({c.elapsed_ms} ms): {c.anchor}")
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
    """Run every check of a suite deterministically for the given seed."""
    limits = limits or Limits()
    start = time.monotonic()
    results = []
    for name, anchor, _, fn in _selected(suite):
        ctx = Context(limits, random.Random(f"{seed}:{name}"), ring)
        results.append(_run_one(name, anchor, fn, ctx))
    elapsed = int((time.monotonic() - start) * 1000)
    return PropertyReport(suite, ring.name, seed, results, elapsed)


def run_check(name: str, limits: Limits | None = None, seed: int = 0,
              ring=RATIONALS) -> CheckResult:
    for cname, anchor, _, fn in _REGISTRY:
        if cname == name:
            ctx = Context(limits or Limits(), random.Random(f"{seed}:{name}"), ring)
            return _run_one(name, anchor, fn, ctx)
    raise ValueError(f"unknown check {name!r}")


def _run_one(name, anchor, fn, ctx) -> CheckResult:
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
    return CheckResult(name, anchor, status, witness, elapsed)


# --- helpers -----------------------------------------------------------------


def _named(ctx, cap=None):
    bound = ctx.limits.max_lattice if cap is None else min(ctx.limits.max_lattice, cap)
    return [(n, l) for n, l in named_lattices().items() if l.n <= bound]


def _witness(lat, **extra):
    out = {"lattice": lattice_to_json(lat)}
    out.update(extra)
    return out


def _rand_corr(rng, dst, src):
    return Correspondence(dst, src, (rng.getrandbits(src) for _ in range(dst)))


def _rand_function(rng, lat, points):
    return LatticeFunction(lat, (rng.randrange(lat.n) for _ in range(points)))


def _all_tuples(lat, max_size):
    return [b for n in range(min(max_size, max_tuple_size(lat)) + 1)
            for b in p_tuples(lat, n)]


def _chain_image_count(lat, points):
    count = 0
    for f in all_functions(lat, points):
        image = set(f.values)
        if all(lat.le(a, b) or lat.le(b, a)
               for a, b in itertools.combinations(image, 2)):
            count += 1
    return count


def _int_rows(vectors):
    return [[int(c) for c in v] for v in vectors]


def _has_splitting_section(lat) -> bool:
    """Search for a join-preserving right inverse of the join-of-subset map."""
    elems, _ = irreducibles(lat)
    if not elems:
        return True
    candidates = []
    for e in elems:
        opts = []
        below = lat.poset.down[e]
        members = [b for b in range(lat.n) if below >> b & 1]
        for r in range(len(members) + 1):
            for picks in itertools.combinations(members, r):
                if lat.join_many(picks) == e:
                    opts.append(sum(1 << b for b in picks))
        candidates.append(opts)
    for assign in itertools.product(*candidates):
        sigma = []
        for t in range(lat.n):
            acc = 0
            for e, mask in zip(elems, assign):
                if lat.le(e, t):
                    acc |= mask
            sigma.append(acc)
        if any(lat.join_many(b for b in range(lat.n) if m >> b & 1) != t
               for t, m in enumerate(sigma)):
            continue
        if all(sigma[lat.join[a][b]] == sigma[a] | sigma[b]
               for a in range(lat.n) for b in range(lat.n)):
            return True
    return False


# --- relations ----------------------------------------------------------------


@check("relation-monoid",
       "relation composition is associative and the diagonal is its identity",
       "relations")
def _check_relation_monoid(ctx):
    two = [Correspondence(2, 2, rows) for rows in itertools.product(range(4), repeat=2)]
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
    for rows in itertools.product(range(8), repeat=3):
        r = Correspondence(3, 3, rows)
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
        pre_ideals = [m for m in range(1 << n)
                      if all(pre.opposite().rows[b] & ~m == 0
                             for b in range(n) if m >> b & 1)]
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
    for lat in enumerate_lattices(min(5, ctx.limits.max_lattice)):
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
    for n in range(1, top + 1):
        posets = enumerate_posets(n)
        brute = 0
        for p in posets:
            try:
                lattice_from_leq(n, list(p.leq.pairs()))
                brute += 1
            except LatticeError:
                pass
        fast = sum(1 for lat in enumerate_lattices(n) if lat.n == n)
        if fast != brute:
            return {"n": n, "fast": fast, "brute": brute}
        if n == 5 and len(posets) != 4231:
            return {"n": n, "posets": len(posets), "law": "labeled poset count"}
    return None


# --- idempotents ----------------------------------------------------------------


@check("matrix-unit-products",
       "composites of section-quotient pairs multiply like matrix units",
       "idempotents")
def _check_matrix_units(ctx):
    for name, lat in _named(ctx, 6):
        tuples = _all_tuples(lat, 3)
        pairs = [(d, c) for d in tuples for c in tuples if len(d) == len(c)]
        keys = [(d.entries, c.entries) for d, c in pairs]
        units = [f_dc(d, c) for d, c in pairs]
        family = Family(lat, lat, units)
        position = {key: i for i, key in enumerate(keys)}
        for (dk, ck), unit in zip(keys, units):
            # f_dc f_ba is f_da when c = b and zero otherwise (index -1)
            picks = [position[dk, ak] if ck == bk else -1 for bk, ak in keys]
            bad = compose_families(Family(lat, lat, [unit]), family).first_mismatch(family, picks)
            if bad is not None:
                bk, ak = keys[bad[1]]
                return _witness(lat, name=name, tuples=[list(dk), list(ck),
                                                        list(bk), list(ak)])
    return None


@check("section-quotient-identities",
       "the quotient after its section is the signed sum of level-drop maps, "
       "and the section after the quotient is idempotent",
       "idempotents")
def _check_section_quotient(ctx):
    for name, lat in _named(ctx, 6):
        tuples = _all_tuples(lat, 3)
        for n in range(len(tuples[-1]) + 1):
            bs = [b for b in tuples if len(b) == n]
            sign = -1 if n % 2 else 1
            want = LinMorphism.zero(chain(n), chain(n))
            for k in range(n + 1):
                for ys in itertools.combinations(range(1, n + 1), k):
                    want = want + (sign * (-1) ** k) * LinMorphism.of_map(rho_y(n, ys))
            pis = Family(lat, chain(n), [LinMorphism.of_map(pi_of_tuple(b)) for b in bs])
            sections = Family(chain(n), lat, [j_of_tuple(b) for b in bs])
            # each batch multiplies all pairs; only the diagonal (b, b) is read
            after = compose_families(pis, sections)
            units = compose_families(sections, pis)
            fbbs = [units.member(i, i) for i in range(len(bs))]
            squares = compose_families(Family(lat, lat, fbbs), Family(lat, lat, fbbs))
            for i, b in enumerate(bs):
                if after.member(i, i) != want:
                    return _witness(lat, name=name, tuple=list(b.entries),
                                    law="quotient after section")
                if squares.member(i, i) != fbbs[i]:
                    return _witness(lat, name=name, tuple=list(b.entries),
                                    law="idempotent")
    return None


@check("chain-central-idempotents",
       "the block idempotents of a total order are orthogonal, central, and "
       "sum to the identity",
       "idempotents")
def _check_chain_idempotents(ctx):
    for n in range(min(4, ctx.limits.max_lattice) + 1):
        blocks = [beta(n, m) for m in range(n + 1)]
        total = LinMorphism.zero(chain(n), chain(n))
        for b in blocks:
            total = total + b
        if total != LinMorphism.identity(chain(n)):
            return {"n": n, "law": "sum to identity"}
        family = Family(chain(n), chain(n), blocks)
        picks = [l if l == m else -1 for l in range(n + 1) for m in range(n + 1)]
        bad = compose_families(family, family).first_mismatch(family, picks)
        if bad is not None:
            return {"n": n, "l": bad[0], "m": bad[1], "law": "orthogonality"}
        if epsilon(n) != blocks[n]:
            return {"n": n, "law": "top block"}
        ends = join_maps(chain(n), chain(n))
        endos = Family(chain(n), chain(n), [LinMorphism.of_map(f) for f in ends])
        after = compose_families(family, endos)
        before = compose_families(endos, family)
        for m, j in itertools.product(range(n + 1), range(len(ends))):
            if after.member(m, j) != before.member(j, m):
                return {"n": n, "m": m, "images": list(ends[j].images), "law": "centrality"}
    return None


@check("chain-endo-structure",
       "a total order has a central-binomial count of join-endomorphisms and "
       "the matrix units span them with determinant +-1",
       "idempotents")
def _check_chain_endo(ctx):
    for n in range(min(6, ctx.limits.max_lattice + 1) + 1):
        basis = tot_basis(chain(n))
        if len(basis) != math.comb(2 * n, n) or len(set(basis)) != len(basis):
            return {"n": n, "count": len(basis), "law": "endo count"}
        if n <= 3 and len(join_maps(chain(n), chain(n))) != len(basis):
            return {"n": n, "law": "brute endo count"}
    for n in range(min(4, ctx.limits.max_lattice) + 1):
        basis = tot_basis(chain(n))
        family = [f_dc(d, c)
                  for m in range(n + 1)
                  for d in p_tuples(chain(n), m) for c in p_tuples(chain(n), m)]
        rows = _int_rows(lin_to_vector(f, basis) for f in family)
        want = sum(math.comb(n, m) ** 2 for m in range(n + 1))
        got = fast_int_rank(rows, ctx.ring)
        if got != want or want != len(basis):
            return {"n": n, "rank": got, "want": want}
        if n <= 3:
            det = det_int(rows)
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
        family = [f_dc(d, c)
                  for n in range(len(sizes))
                  for d in p_tuples(lat, n) for c in p_tuples(lat, n)]
        rows = _int_rows(lin_to_vector(f, basis) for f in family)
        if fast_int_rank(rows, ctx.ring) != len(basis):
            return _witness(lat, name=name, law="span equality")
        unit = Family(lat, lat, [e_t(lat)])
        span = Family(lat, lat, [LinMorphism.of_map(m) for m in basis])
        fixed = range(len(basis))      # the unit fixes each basis element, both sides
        bad = []
        for products in (compose_families(unit, span), compose_families(span, unit)):
            pair = products.first_mismatch(span, fixed)
            if pair is not None:
                bad.append(max(pair))  # (0, j) or (j, 0): basis[j] either way
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
            after = compose_families(thetas, units[name1])
            before = compose_families(units[name2], thetas)
            for j, theta in enumerate(picks):
                if after.member(j, 0) != before.member(0, j):
                    return {"src": name1, "dst": name2, "images": list(theta.images)}
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
    for f in join_maps(lat, lat)[:12]:
        for g in join_maps(lat, lat)[:12]:
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
        for f in all_functions(lat, 2):
            if act(Correspondence.identity(2), f) != f:
                return _witness(lat, name=name, law="identity")
        for (sy, sx) in ((1, 2), (2, 2)):
            for s_rows in itertools.product(range(1 << 2), repeat=sy):
                s = Correspondence(sy, sx, s_rows)
                for r_rows in itertools.product(range(1 << 1), repeat=sx):
                    r = Correspondence(sx, 1, r_rows)
                    for f in all_functions(lat, 1):
                        if act(s @ r, f) != act(s, act(r, f)):
                            return _witness(lat, name=name,
                                            s=sorted(s.pairs()), r=sorted(r.pairs()),
                                            phi=list(f.values))
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
    from .functor import ModVec
    for _ in range(ctx.limits.samples // 2):
        name, lat = ctx.rng.choice(_named(ctx, 5))
        tuples = _all_tuples(lat, 2)
        d = ctx.rng.choice(tuples)
        c = ctx.rng.choice([t for t in tuples if len(t) == len(d)])
        alpha = f_dc(d, c)
        x, y = ctx.rng.randint(1, 2), ctx.rng.randint(1, 2)
        r = _rand_corr(ctx.rng, y, x)
        v = ModVec.basis_vector(_rand_function(ctx.rng, lat, x))
        if apply_lin(alpha, act_mod(r, v)) != act_mod(r, apply_lin(alpha, v)):
            return _witness(lat, name=name, r=sorted(r.pairs()))
    for n in range(1, 4):
        eps = epsilon(n)
        covering = set(h_quotient_basis(chain(n), 2))
        for f in all_functions(chain(n), 2):
            out = apply_lin(eps, ModVec.basis_vector(f))
            if f.index not in covering:
                if any(c for _, c in out.nonzero()):
                    return {"n": n, "phi": list(f.values), "law": "kills missing"}
            else:
                for i, c in out.nonzero():
                    if i in covering and c != (1 if i == f.index else 0):
                        return {"n": n, "phi": list(f.values),
                                "law": "identity modulo the missing span"}
    return None


def h_complement(lat, points):
    basis = set(h_quotient_basis(lat, points))
    return [i for i in range(lat.n ** points) if i not in basis]


@check("missing-irreducible-span",
       "functions missing an irreducible form a stable subspace contained in "
       "the kernel of the quotient system",
       "functors")
def _check_h_subfunctor(ctx):
    for name, lat in _named(ctx, 5):
        comp = set(h_complement(lat, 2))
        for q_rows in itertools.product(range(4), repeat=2):
            q = Correspondence(2, 2, q_rows)
            for idx in comp:
                f = LatticeFunction.from_index(lat, 2, idx)
                if act(q, f).index not in comp:
                    return _witness(lat, name=name, q=sorted(q.pairs()),
                                    phi=list(f.values), law="stability")
        points = min(2, ctx.limits.max_points)
        m = theta_matrix(lat, points)
        for idx in h_complement(lat, points):
            if m[:, idx].any():
                return _witness(lat, name=name, index=idx, law="inside the kernel")
    return None


@check("gamma-correspondence",
       "the barcode of a function absorbs the opposite order, recovers the "
       "function on the irreducibles, and is natural for distributive lattices",
       "functors")
def _check_gamma_corr(ctx):
    for name, lat in _named(ctx, 6):
        data = irr_data(lat)
        iota = LatticeFunction(lat, data.elems)
        rop = Correspondence(len(data.elems), len(data.elems), data.rop_rows)
        if gamma_corr(lat, iota) != rop:
            return _witness(lat, name=name, law="inclusion barcode")
        for x in range(1, 3):
            for f in all_functions(lat, x):
                g = gamma_corr(lat, f)
                if g @ rop != g:
                    return _witness(lat, name=name, phi=list(f.values),
                                    law="absorbs the order")
                if act(g, iota) != f:
                    return _witness(lat, name=name, phi=list(f.values),
                                    law="recovers the function")
        if is_distributive(lat):
            for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)):
                for s_rows in itertools.product(range(1 << x), repeat=y):
                    s = Correspondence(y, x, s_rows)
                    for f in all_functions(lat, x):
                        if gamma_corr(lat, act(s, f)) != s @ gamma_corr(lat, f):
                            return _witness(lat, name=name, phi=list(f.values),
                                            s=sorted(s.pairs()), law="naturality")
    return None


@check("gamma-naturality-probe",
       "search non-distributive lattices for failures of barcode naturality; "
       "findings are recorded, not asserted",
       "functors")
def _check_gamma_probe(ctx):
    findings = []
    for name in ("m3", "n5"):
        lat = named_lattices()[name]
        found = None
        for x, y in ((1, 1), (2, 1), (2, 2)):
            for s_rows in itertools.product(range(1 << x), repeat=y):
                s = Correspondence(y, x, s_rows)
                for f in all_functions(lat, x):
                    if gamma_corr(lat, act(s, f)) != s @ gamma_corr(lat, f):
                        found = {"name": name, "s": sorted(s.pairs()),
                                 "phi": list(f.values)}
                        break
                if found:
                    break
            if found:
                break
        findings.append(found or {"name": name, "counterexample": None})
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
        r = p.leq
        for x in range(1, min(3, ctx.limits.max_points) + 1):
            covering = set(h_quotient_basis(iup, x))
            for idx in range(iup.n ** x):
                f = LatticeFunction.from_index(iup, x, idx)
                s = Correspondence(x, p.n, (enc[v] for v in f.values))
                if retraction_exists(r, s) != (idx in covering):
                    return {"poset": sorted(p.leq.pairs()), "psi": list(f.values),
                            "law": "criterion equivalence"}
            if p.n <= 2 and x <= 2:
                for idx in range(iup.n ** x):
                    f = LatticeFunction.from_index(iup, x, idx)
                    s = Correspondence(x, p.n, (enc[v] for v in f.values))
                    brute = any(
                        Correspondence(p.n, x, rows) @ s == r
                        for rows in itertools.product(range(1 << x), repeat=p.n))
                    if retraction_exists(r, s) != brute:
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
        r = p.leq
        for name, lat in targets:
            want = len(join_maps(idl, lat))
            got = fixed_rank(lat, r)
            rop = r.opposite()
            rows = []
            for f in all_functions(lat, p.n):
                out = act(rop, f).index
                rows.append([1 if j == out else 0 for j in range(lat.n ** p.n)])
            mat_rank = ExactMatrix(list(map(list, zip(*rows))),
                                   cols=len(rows), ring=RATIONALS).rank()
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
            rk = theta_rank(chain(n), x, ctx.ring)
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
            total = sum(math.comb(n, m) * theta_rank(chain(m), x, ctx.ring)
                        for m in range(n + 1))
            if total != (n + 1) ** x:
                return {"n": n, "points": x, "total": total,
                        "want": (n + 1) ** x}
    return None


@check("rank-irreducible-invariance",
       "the kernel-system rank depends only on the poset of irreducibles",
       "ranks")
def _check_rank_invariance(ctx):
    named = named_lattices()
    pairs = [(named["m3"], named["b3"])]
    elems, sub = irreducibles(named["n5"])
    pairs.append((named["n5"], ideal_lattice(sub, "lower")[0]))
    for a, b in pairs:
        for x in range(min(3, ctx.limits.max_points) + 1):
            ra, rb = theta_rank(a, x, ctx.ring), theta_rank(b, x, ctx.ring)
            if ra != rb:
                return {"x": x, "rank_a": ra, "rank_b": rb,
                        "witness": _witness(a)}
    return None


@check("rank-dual-construction",
       "the span of the acted alternating generator has the same rank as the "
       "kernel system of the opposite-ideal lattice",
       "ranks")
def _check_rank_dual(ctx):
    for name, lat in _named(ctx, 5):
        elems, sub = irreducibles(lat)
        dual_lat, _ = ideal_lattice(sub.opposite(), "lower")
        for x in range(min(3, ctx.limits.max_points) + 1):
            g = gamma_span_rank(lat, x, ctx.ring)
            t = theta_rank(dual_lat, x, ctx.ring)
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
            t = theta_rank(lat, x, ctx.ring)
            g = gamma_span_rank(lat, x, ctx.ring)
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
            rk = theta_rank(lat, k, ctx.ring)
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
    for name, lat in _named(ctx, 5):
        for x in range(1, min(2, ctx.limits.max_points) + 1):
            size = lat.n ** x
            funcs = list(all_functions(lat, x))
            for phi in funcs:
                star = dual_star(phi)
                acc = [Fraction(0)] * size
                for rho, c in star.functions():
                    for lam in funcs:
                        if pairing(lam, rho):
                            acc[lam.index] += c
                for lam in funcs:
                    want = 1 if lam.index == phi.index else 0
                    if acc[lam.index] != want:
                        return _witness(lat, name=name, phi=list(phi.values),
                                        lam=list(lam.values), law="dual basis")
            order = sorted(range(size),
                           key=lambda i: sum(lat.poset.down[v].bit_count()
                                             for v in funcs[i].values))
            for pos_i, i in enumerate(order):
                for pos_j, j in enumerate(order):
                    val = pairing(funcs[i], funcs[j])
                    if pos_i == pos_j and val != 1:
                        return _witness(lat, name=name, law="unit diagonal")
                    if pos_i > pos_j and val != 0:
                        return _witness(lat, name=name, law="triangular")
    return None


@check("gamma-element",
       "the alternating generator is the Mobius dual of the inclusion and is "
       "fixed by the order action",
       "duality")
def _check_gamma_element(ctx):
    for name, lat in _named(ctx, 7):
        data = irr_data(lat)
        if lat.n ** len(data.elems) > 20000:
            continue
        iota = LatticeFunction(lat, data.elems)
        g = gamma_t(lat)
        if g != dual_star(iota):
            return _witness(lat, name=name, law="dual of inclusion")
        if star_act_mod(data.sub.leq, g) != g:
            return _witness(lat, name=name, law="fixed by the order")
    return None


@check("orthogonal-kernel",
       "the pairing-orthogonal complement of the dual copy is the nullspace "
       "of the kernel system",
       "duality")
def _check_orthogonal(ctx):
    for name, lat in _named(ctx, 5):
        for x in range(1, min(2, ctx.limits.max_points) + 1):
            if name in ("m3", "n5") and x > 1:
                continue
            if not orth_check(lat, x, ctx.ring):
                return _witness(lat, name=name, points=x)
    return None


@check("gamma-iso-invariance",
       "the dual-copy rank is an invariant of the irreducible poset",
       "duality")
def _check_gamma_invariance(ctx):
    named = named_lattices()
    elems, sub = irreducibles(named["n5"])
    pairs = [(named["m3"], named["b3"]),
             (named["n5"], ideal_lattice(sub, "lower")[0])]
    for a, b in pairs:
        for x in range(min(2, ctx.limits.max_points) + 1):
            ga, gb = gamma_span_rank(a, x, ctx.ring), gamma_span_rank(b, x, ctx.ring)
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
            conds = theta_conditions(lat, phi, psi)
            if len(set(conds)) > 1:
                return _witness(lat, name=name, phi=list(phi.values),
                                psi=list(psi.values), conditions=list(conds))
    return None


@check("kernel-condition-tables",
       "each of the six membership conditions, tabled over every pair, equals "
       "the kernel system",
       "fundamental")
def _check_condition_tables(ctx):
    for name, lat in _named(ctx):
        for x in range(1, _condition_points(ctx.limits) + 1):
            system = theta_matrix(lat, x).view(bool)
            tables = theta_condition_tables(lat, x)
            for letter in "abcdef":
                rows, cols = (next(tables) != system).nonzero()  # one table at a time
                if len(rows):
                    row, col = int(rows[0]), int(cols[0])
                    psi = LatticeFunction.from_index(irr_data(lat).iup, x, row)
                    phi = LatticeFunction.from_index(lat, x, col)
                    return _witness(lat, name=name, x=x, condition=letter,
                                    psi=list(psi.values), phi=list(phi.values))
    return None


@check("fundamental-action",
       "the relation action on the permutation module is multiplicative and "
       "unital",
       "fundamental")
def _check_fund_action(ctx):
    for p in enumerate_posets(2):
        r = p.leq
        rels = [Correspondence(2, 2, rows)
                for rows in itertools.product(range(4), repeat=2)]
        for v_idx in range(2):
            v = FundElement(2)
            v.coeffs[v_idx] = Fraction(1)
            if fund_act(Correspondence.identity(2), v, r) != v:
                return {"poset": sorted(r.pairs()), "law": "identity"}
            for q1 in rels:
                for q2 in rels:
                    left = fund_act(q1 @ q2, v, r)
                    right = fund_act(q1, fund_act(q2, v, r), r)
                    if left != right:
                        return {"poset": sorted(r.pairs()),
                                "q1": sorted(q1.pairs()), "q2": sorted(q2.pairs()),
                                "law": "multiplicative"}
    posets3 = enumerate_posets(3)
    for _ in range(ctx.limits.samples):
        p = ctx.rng.choice(posets3)
        r = p.leq
        q1 = _rand_corr(ctx.rng, 3, 3)
        q2 = _rand_corr(ctx.rng, 3, 3)
        v = FundElement(3)
        v.coeffs[ctx.rng.randrange(6)] = Fraction(1)
        if fund_act(q1 @ q2, v, r) != fund_act(q1, fund_act(q2, v, r), r):
            return {"poset": sorted(r.pairs()), "q1": sorted(q1.pairs()),
                    "q2": sorted(q2.pairs()), "law": "multiplicative"}
    return None


# --- acceptance (bounds pinned by the criteria) ----------------------------------


def _acceptance(name, anchor, limits, *bodies):
    """Register a criterion: registered check bodies run in order at pinned
    limits over the rationals, reusing the criterion's generator; the first
    witness wins."""
    def run(ctx):
        pinned = Context(limits, ctx.rng, RATIONALS)
        for body in bodies:
            outcome = body(pinned)
            if outcome is not None:
                return outcome
        return None
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
