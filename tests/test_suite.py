import hashlib
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cfl.functor as functor_mod
import cfl.morphisms as morphisms_mod
import cfl.suite as suite_mod
from cfl.catalog import enumerate_lattices, named_lattices, product_lattice
from cfl.exact import RATIONALS, PrimeField
from cfl.functor import LatticeFunction, all_functions, h_quotient_basis
from cfl.lattices import CapExceeded, JoinMap, chain, irreducibles, is_distributive
from cfl.morphisms import Family, LinMorphism, beta, j_of_tuple, p_tuples, pi_of_tuple
from cfl.relations import Correspondence
from cfl.suite import (Limits, PropertyReport, check, list_checks, run_check, run_suite,
                       suite_names)


def small():
    return Limits(max_lattice=4, max_points=2, samples=30)


def test_idempotents_suite_passes():
    report = run_suite("idempotents", Limits(max_lattice=5, max_points=2, samples=30))
    assert report.passed
    assert all(c.status == "pass" for c in report.checks)


def test_ranks_suite_passes():
    report = run_suite("ranks", Limits(max_lattice=4, max_points=3, samples=30))
    assert report.passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")
    with pytest.raises(ValueError):
        run_check("no-such-check")


def test_suite_names_include_the_documented_ones():
    names = suite_names()
    for expected in ("relations", "lattices", "idempotents", "ranks", "duality",
                     "fundamental", "acceptance", "all"):
        assert expected in names


def test_report_json_schema():
    report = run_suite("relations", small(), seed=3)
    blob = report.to_json()
    assert set(blob) == {"suite", "ring", "seed", "checks", "elapsed_ms"}
    assert blob["suite"] == "relations" and blob["ring"] == "rat" and blob["seed"] == 3
    for entry in blob["checks"]:
        assert set(entry) <= {"name", "paper_anchor", "status", "witness"}
        assert entry["status"] in ("pass", "fail", "skip")
    json.dumps(blob)  # serializable


def test_reports_are_deterministic():
    a = run_suite("relations", small(), seed=9).to_json()
    b = run_suite("relations", small(), seed=9).to_json()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_checks_carry_their_own_time():
    @check("tmp-sleep-probe", "sleeps for 30 ms", "tmpsuite")
    def probe(ctx):
        time.sleep(0.03)

    try:
        report = run_suite("tmpsuite")
        assert report.checks[0].status == "pass"
        assert report.checks[0].elapsed_ms >= 30
        assert f"tmp-sleep-probe ({report.checks[0].elapsed_ms} ms)" in report.to_text()
    finally:
        suite_mod._REGISTRY[:] = [e for e in suite_mod._REGISTRY
                                  if e[0] != "tmp-sleep-probe"]


def test_limits_reject_empty_ranges():
    assert Limits(max_lattice=1, max_points=0, samples=1).max_points == 0
    for bad in ({"max_lattice": 0}, {"max_points": -1}, {"samples": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            Limits(**bad)


def test_tampered_mobius_fails_with_witness(monkeypatch):
    real = suite_mod.mobius

    def corrupted(obj):
        table = dict(real(obj))
        for key in table:
            a, b = key
            if a != b:
                table[key] += 1
                break
        return table

    monkeypatch.setattr(suite_mod, "mobius", corrupted)
    result = run_check("mobius-duality", small())
    assert result.status == "fail"
    assert result.witness is not None and "lattice" in result.witness


def _members(family):
    return [family.member(i) for i in range(len(family))]


def _spoil_blocks(monkeypatch, spoil):
    """The suite's unit blocks with their families replaced by
    ``spoil(lattice, tuples, sections, quotients)``; the real blocks, built
    once per lattice and size, are never changed."""
    real = suite_mod.unit_block

    def spoiled(lattice, n):
        tuples, sections, quotients = real(lattice, n)
        return (tuples, *spoil(lattice, tuples, sections, quotients))

    monkeypatch.setattr(suite_mod, "unit_block", spoiled)


def _routed(lat, sections, quotients, extra, gates):
    """A block's families through ``chain(n) x lat`` instead of ``chain(n)``,
    so that unit ``(d, c)`` becomes ``f_dc + extra[d] @ gates[c]``: each
    quotient keeps ``gates[c](t)`` beside its level of ``t``, and each
    section adds ``extra[d]`` after the second projection.  Every unit of a
    real block factors through a chain; these need not."""
    mid = product_lattice(sections.src, lat)

    def after(alpha, images):  # the terms of alpha after the projection with these images
        return [(JoinMap(mid, lat, [m.images[i] for i in images]), c)
                for m, c in alpha.terms.items()]

    first, second = [i // lat.n for i in range(mid.n)], [i % lat.n for i in range(mid.n)]
    routed = [LinMorphism(mid, lat, after(s, first) + after(x, second))
              for s, x in zip(_members(sections), extra)]
    keeps = [LinMorphism.of_map(JoinMap(lat, mid, [pi.images[t] * lat.n + gate.images[t]
                                                  for t in range(lat.n)]))
             for pi, gate in zip((next(iter(q.terms)) for q in _members(quotients)), gates)]
    return Family(mid, lat, routed), Family(lat, mid, keeps)


def test_perturbed_matrix_unit_fails_with_witness(monkeypatch):
    # The section of the chain (0) of each 4-element lattice gains 1 on one
    # term, so each of its units f_(0)c does; f_()() after f_(0)(0) is then
    # that sum of coefficients times the bottom map, not zero.
    def perturbed(lat, tuples, sections, quotients):
        members = _members(sections)
        if lat.n == 4 and tuples[0].entries == (0,):
            m, coeff = next(iter(members[0].terms.items()))
            members[0] = LinMorphism(sections.src, lat, {**members[0].terms, m: coeff + 1})
        return Family(sections.src, lat, members), quotients

    _spoil_blocks(monkeypatch, perturbed)
    result = run_check("matrix-unit-products", small())
    assert result.status == "fail"
    assert result.witness["lattice"]["size"] == 4
    assert result.witness["name"] == "chain3"
    # (d, c, b, a): f_dc after f_ba differs from its expected product
    assert result.witness["tuples"] == [[], [], [0], [0]]


def test_unit_outside_the_span_fails_with_witness(monkeypatch):
    # The identity of b2 is a join-map whose image is no chain, so it lies
    # outside the chain-image basis that the matrix units span; b2 is the
    # first named lattice where that happens.  Each unit gains the identity.
    def widened(lat, tuples, sections, quotients):
        return _routed(lat, sections, quotients, [LinMorphism.identity(lat)] * len(tuples),
                       [JoinMap.identity(lat)] * len(tuples))

    _spoil_blocks(monkeypatch, widened)
    result = run_check("matrix-units-span", small())
    assert result.status == "fail"
    assert result.witness["law"] == "span inclusion"
    assert result.witness["name"] == "b2" and result.witness["lattice"]["size"] == 4
    assert result.witness["images"] == [0, 1, 2, 3]


@pytest.mark.parametrize("budget", [1, morphisms_mod._TABLE_BYTES, 2 ** 18])
def test_doubled_chain5_unit_fails_past_the_first_block(monkeypatch, budget):
    # chain5 has 226 units over 226 distinct join-maps.  Doubling the last
    # unit raises the weight bound past int8, so a unit's table is 226 x 226
    # int16 cells, and the doubling first shows in unit 135 after it, past
    # the first block at each budget (blocks of 1, 1 and 2 units); the
    # witness must be that of the unit-by-unit loop.  The last section adds
    # its own unit after a gate that only the last quotient opens; behind the
    # other gates, the bottom map, it adds its sum of coefficients, zero.
    assert budget // (2 * 226 ** 2) < 135
    top = (2, 3, 4)
    blocks = []

    def doubled(lat, tuples, sections, quotients):
        if lat != chain(5) or len(tuples[0]) != 3:
            return sections, quotients
        last = j_of_tuple(tuples[-1]) @ pi_of_tuple(tuples[-1])
        assert sum(last.terms.values()) == 0
        zero, bottom = LinMorphism.zero(lat, lat), JoinMap(lat, lat, [0] * lat.n)
        extra = [last if b.entries == top else zero for b in tuples]
        gates = [JoinMap.identity(lat) if b.entries == top else bottom for b in tuples]
        return _routed(lat, sections, quotients, extra, gates)

    def spy(outer, inner, expected, picks):
        def seen(rows):
            blocks.append(rows.stop - rows.start)
            return picks(rows)
        return real_check(outer, inner, expected, seen)

    real_check = suite_mod.first_product_mismatch
    _spoil_blocks(monkeypatch, doubled)
    monkeypatch.setattr(suite_mod, "first_product_mismatch", spy)
    monkeypatch.setattr(morphisms_mod, "_TABLE_BYTES", budget)
    result = run_check("A03-idempotent-calculus")
    assert result.status == "fail"
    assert result.witness["name"] == "chain5"
    assert result.witness["tuples"] == [[0, 1, 2], [2, 3, 4], [2, 3, 4], [2, 3, 4]]
    assert blocks[-1] == max(1, budget // (2 * 226 ** 2))


def test_matrix_unit_products_key_composites_once_per_call(monkeypatch):
    # one keying of all composites per comparison, however many blocks
    # (building the next lattice's units keys rows too, outside the count)
    real_key, real_check = morphisms_mod._distinct_rows, suite_mod.first_product_mismatch
    keyings, calls, inside = [], [], []

    def counted(*args):
        if inside:
            keyings[-1] += 1
        return real_key(*args)

    def spy(outer, inner, expected, picks):
        calls.append(len(outer))
        keyings.append(0)
        inside.append(True)
        try:
            return real_check(outer, inner, expected, picks)
        finally:
            inside.pop()

    monkeypatch.setattr(morphisms_mod, "_distinct_rows", counted)
    monkeypatch.setattr(suite_mod, "first_product_mismatch", spy)
    assert run_check("matrix-unit-products", Limits(max_lattice=6)).status == "pass"
    assert 226 in calls and keyings == [1] * len(calls)


def test_matrix_unit_products_trace_at_most_1_6_mb():
    def ctx():
        return suite_mod.Context(Limits(max_lattice=6), random.Random(0), RATIONALS)

    assert suite_mod._check_matrix_units(ctx()) is None  # fills the lattice caches
    tracemalloc.start()
    try:
        assert suite_mod._check_matrix_units(ctx()) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6


def test_perturbed_section_fails_with_witness(monkeypatch):
    def doubled(lat, tuples, sections, quotients):
        if len(tuples[0]) == 2:
            sections = Family(sections.src, lat, [2 * s for s in _members(sections)])
        return sections, quotients

    _spoil_blocks(monkeypatch, doubled)
    result = run_check("section-quotient-identities", small())
    assert result.status == "fail"
    assert result.witness["name"] == "chain2" and result.witness["tuple"] == [0, 1]
    assert result.witness["law"] == "quotient after section"


def test_non_central_blocks_fail_with_witness(monkeypatch):
    # Conjugating the blocks by a unit gives them back, since they are
    # central.  Moving one diagonal matrix unit of chain(2) from the size-1
    # block into the size-0 block keeps an orthogonal decomposition of the
    # identity with the same top block, but that unit is not central.
    real = suite_mod.beta
    b = p_tuples(chain(2), 1)[0]
    unit = j_of_tuple(b) @ pi_of_tuple(b)

    def skewed(n, m):
        block = real(n, m)
        if n == 2 and m < 2:
            block = block + (unit if m == 0 else -unit)
        return block

    monkeypatch.setattr(suite_mod, "beta", skewed)
    result = run_check("chain-central-idempotents", small())
    assert result.status == "fail"
    assert result.witness["n"] == 2 and result.witness["law"] == "centrality"


def test_swapped_top_block_fails_with_witness(monkeypatch):
    # Swapping the size-0 and size-2 blocks of chain(2) keeps an orthogonal
    # decomposition of the identity into central idempotents; only the closed
    # form of the top block tells the swap apart.
    real = morphisms_mod.beta

    def swapped(n, m):
        return real(n, {0: 2, 2: 0}.get(m, m) if n == 2 else m)

    monkeypatch.setattr(suite_mod, "beta", swapped)
    monkeypatch.setattr(morphisms_mod, "beta", swapped)
    result = run_check("chain-central-idempotents", small())
    assert result.status == "fail"
    assert result.witness == {"n": 2, "law": "top block"}
    assert run_check("A03-idempotent-calculus").witness == {"n": 2, "law": "top block"}


def test_fractional_matrix_unit_fails_with_witness(monkeypatch):
    # int() would truncate the coefficients 3/2 to 1 and keep the family
    # unimodular over the chain-image basis
    def scaled(lat, tuples, sections, quotients):
        members = _members(sections)
        if lat == chain(2) and tuples[0].entries == (0,):
            members[0] = Fraction(3, 2) * members[0]
        return Family(sections.src, lat, members), quotients

    _spoil_blocks(monkeypatch, scaled)
    endo = run_check("chain-endo-structure", small())
    assert endo.status == "fail" and endo.witness == {"n": 2, "law": "integer coefficients"}
    span = run_check("matrix-units-span", small())
    assert span.status == "fail" and span.witness["name"] == "chain2"
    assert span.witness["law"] == "integer coefficients"
    assert run_check("A04-chain-endomorphisms").witness == endo.witness


def test_push_identity_and_epsilon():
    # map-naturality pushes a basis function through a formal sum term by
    # term; the identity fixes it and the top chain idempotent kills every
    # function missing an irreducible
    two = chain(2)
    ident = LinMorphism.identity(two)
    for f in all_functions(two, 2):
        assert suite_mod._collect(suite_mod._push(ident, f)) == {f.index: 1}
    eps = beta(2, 2)
    covering = set(h_quotient_basis(two, 2))
    assert 0 < len(covering) < 9
    for f in all_functions(two, 2):
        out = suite_mod._collect(suite_mod._push(eps, f))
        if f.index not in covering:
            assert out == {}
        else:
            assert {i: c for i, c in out.items() if i in covering} == {f.index: 1}


def test_spoiled_dual_fails_at_the_first_pair_in_row_order(monkeypatch):
    # b2 at two points: the function (3, 1), index 7, gets the dual of (1, 1),
    # index 5, so its row first differs from the identity at (1, 1)
    b2 = named_lattices()["b2"]
    real = suite_mod.dual_star

    def spoiled(phi):
        if phi.lattice == b2 and phi.values == (3, 1):
            return real(LatticeFunction(b2, (1, 1)))
        return real(phi)

    monkeypatch.setattr(suite_mod, "dual_star", spoiled)
    result = run_check("dual-basis")
    assert result.status == "fail"
    assert result.witness["name"] == "b2" and result.witness["law"] == "dual basis"
    assert (result.witness["phi"], result.witness["lam"]) == ([3, 1], [1, 1])


def test_spoiled_alternating_generator_fails_with_witness(monkeypatch):
    real_gamma, real_dual = suite_mod.gamma_t, suite_mod.dual_star
    monkeypatch.setattr(suite_mod, "gamma_t", lambda lat: 2 * real_gamma(lat))
    result = run_check("gamma-element")
    assert result.status == "fail"
    assert result.witness["name"] == "chain0" and result.witness["law"] == "dual of inclusion"

    # The dual of the constant top function on chain2's two irreducibles is
    # moved by the order: (2, 1) goes to (1, 1) and cancels it.
    def top_dual(lat):
        return real_dual(LatticeFunction(lat, [lat.top] * len(irreducibles(lat)[0])))

    monkeypatch.setattr(suite_mod, "gamma_t", top_dual)
    monkeypatch.setattr(suite_mod, "dual_star", lambda phi: top_dual(phi.lattice))
    result = run_check("gamma-element")
    assert result.status == "fail"
    assert result.witness["name"] == "chain2" and result.witness["law"] == "fixed by the order"


def test_spoiled_matrix_unit_term_breaks_naturality(monkeypatch):
    # The first term of each nonempty b2 section is replaced by the map
    # sending everything to the top, and so is one term of each of its
    # units, which then moves the bottom: the empty relation, drawn first
    # for such a unit, tells the two sides apart.
    b2 = named_lattices()["b2"]

    def spoiled(lat, tuples, sections, quotients):
        if lat != b2 or not tuples[0].entries:
            return sections, quotients
        members = []
        for s in _members(sections):
            m, coeff = next(iter(s.terms.items()))
            terms = {k: v for k, v in s.terms.items() if k != m}
            terms[JoinMap._trusted(m.src, m.dst, (m.dst.top,) * m.src.n)] = coeff
            members.append(LinMorphism(s.src, s.dst, terms))
        return Family(sections.src, lat, members), quotients

    _spoil_blocks(monkeypatch, spoiled)
    result = run_check("map-naturality")
    assert result.status == "fail"
    assert result.witness["name"] == "b2" and result.witness["r"] == []


@pytest.mark.parametrize("spoil, witness", [
    (lambda real, n, m: LinMorphism.identity(chain(n)),
     {"n": 2, "phi": [0, 0], "law": "kills missing"}),
    (lambda real, n, m: 2 * real(n, m),
     {"n": 2, "phi": [2, 1], "law": "identity modulo the missing span"}),
], ids=["identity", "doubled"])
def test_spoiled_top_chain_idempotent_fails_with_witness(monkeypatch, spoil, witness):
    real = suite_mod.beta
    monkeypatch.setattr(suite_mod, "beta",
                        lambda n, m: spoil(real, n, m) if n == 2 else real(n, m))
    result = run_check("map-naturality")
    assert result.status == "fail" and result.witness == witness


def test_condition_tables_reach_three_points_at_the_default_limits(monkeypatch):
    # at two points no table can miss the pointwise order of (e) or (f)
    real = suite_mod.theta_condition_tables
    seen = set()

    def spy(lat, x):
        seen.add(x)
        return real(lat, x)

    monkeypatch.setattr(suite_mod, "theta_condition_tables", spy)
    assert run_check("kernel-condition-tables", Limits()).status == "pass"
    assert seen == {1, 2, 3}


def test_condition_tables_skip_past_the_cell_cap():
    result = run_check("kernel-condition-tables", Limits(max_points=9))
    assert result.status == "skip"
    assert "table cells exceed cap" in result.witness["reason"]


def _calls(monkeypatch, name):
    """The argument tuples of every call the suite makes to ``name``."""
    real, calls = getattr(suite_mod, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(suite_mod, name, spy)
    return calls


def _only(monkeypatch, *names):
    """Keep only the named checks registered, in their order."""
    monkeypatch.setattr(suite_mod, "_REGISTRY",
                        [e for e in suite_mod._REGISTRY if e[0] in names])


def test_a_suite_run_computes_each_pure_result_once(monkeypatch):
    splits = _calls(monkeypatch, "_has_splitting_section")
    run_check("distributive-splitting")
    alone = len(splits)
    assert alone == 425
    splits.clear()
    ranks = {name: _calls(monkeypatch, name) for name in ("theta_rank", "gamma_span_rank")}
    report = run_suite("all")
    assert report.passed
    assert len(splits) == alone  # A09 takes the plain check's outcome
    for name, calls in ranks.items():
        assert calls and len(calls) == len(set(calls)), name
    # each check names the checks whose results it took, in the order taken
    reused = {c.name: c.reused for c in report.checks if c.reused}
    assert reused == {
        "rank-binomial-decomposition": ("rank-formula-chains",),
        "rank-dual-construction": ("rank-formula-chains", "rank-irreducible-invariance"),
        "rank-method-agreement": ("rank-formula-chains", "rank-dual-construction",
                                  "rank-irreducible-invariance"),
        "fundamental-factorial": ("rank-formula-chains", "rank-dual-construction"),
        "gamma-iso-invariance": ("rank-dual-construction",),
        "A01-chain-rank-formula": ("rank-formula-chains", "fundamental-factorial"),
        "A02-rank-decomposition": ("rank-formula-chains", "A01-chain-rank-formula",
                                   "fundamental-factorial"),
        "A03-idempotent-calculus": ("matrix-unit-products", "section-quotient-identities",
                                    "chain-central-idempotents"),
        "A04-chain-endomorphisms": ("chain-endo-structure",),
        "A05-irreducible-invariance": ("rank-irreducible-invariance", "fundamental-factorial"),
        "A06-dual-construction": ("rank-dual-construction", "rank-formula-chains",
                                  "A01-chain-rank-formula", "fundamental-factorial",
                                  "rank-irreducible-invariance", "A05-irreducible-invariance"),
        "A07-duality": ("gamma-element", "dual-basis"),
        "A08-orthogonality": ("orthogonal-kernel",),
        "A09-distributive-splitting": ("distributive-splitting",),
        "A10-condition-equivalence": ("kernel-condition-tables",),
        "A11-fundamental-module": ("rank-formula-chains", "fundamental-factorial",
                                   "rank-dual-construction", "A05-irreducible-invariance")}
    a09 = next(c for c in report.checks if c.name == "A09-distributive-splitting")
    assert (f"A09-distributive-splitting ({a09.elapsed_ms} ms, shared with "
            f"distributive-splitting)") in report.to_text()


def test_a_suite_run_builds_each_unit_block_once():
    morphisms_mod.unit_block.cache_clear()
    assert run_suite("all").passed
    info = morphisms_mod.unit_block.cache_info()
    assert info.misses == info.currsize > 0 and info.hits > 0


def test_a03_takes_the_plain_checks_outcomes_per_lattice(monkeypatch):
    # at the defaults the plain checks cover the lattices of at most five
    # elements and n <= 4; A03, at six, adds only chain5 and grid2x3
    seen = {name: _calls(monkeypatch, name) for name in (
        "_unit_product_mismatch", "_section_quotient_failure", "_chain_block_failure")}
    report = run_suite("all")
    named = sorted(name for name, lat in named_lattices().items() if lat.n <= 6)
    for name in ("_unit_product_mismatch", "_section_quotient_failure"):
        lattices = [args[0] for args in seen[name]]
        assert sorted(lattices) == named and lattices[-2:] == ["chain5", "grid2x3"]
    assert seen["_chain_block_failure"] == [(n,) for n in range(5)]
    a03 = next(c for c in report.checks if c.name == "A03-idempotent-calculus")
    assert a03.reused == ("matrix-unit-products", "section-quotient-identities",
                          "chain-central-idempotents")
    alone = run_check("A03-idempotent-calculus")
    assert (a03.status, a03.witness) == (alone.status, alone.witness) == ("pass", None)


def test_a03_shares_the_plain_checks_lattices_over_another_ring(monkeypatch):
    # the three per-lattice outcomes read no ring, so A03 over the rationals
    # takes those of the plain checks run over the field of two elements
    units = _calls(monkeypatch, "_unit_product_mismatch")
    report = run_suite("all", ring=PrimeField(2))
    assert [args[0] for args in units[-2:]] == ["chain5", "grid2x3"]
    assert len(units) == len(set(units))
    a03 = next(c for c in report.checks if c.name == "A03-idempotent-calculus")
    assert a03.status == "pass" and "matrix-unit-products" in a03.reused


def test_a04_takes_the_chain_endomorphisms_of_the_plain_check(monkeypatch):
    # chain-endo-structure builds the bases of chain0..chain6 and
    # matrix-units-span those of the eight catalog lattices of at most five
    # elements; A04, at the same count and rank bounds, builds none
    bases = _calls(monkeypatch, "tot_basis")
    report = run_suite("all")
    assert report.passed and len(bases) == 15
    a04 = next(c for c in report.checks if c.name == "A04-chain-endomorphisms")
    assert f"A04-chain-endomorphisms ({a04.elapsed_ms} ms, shared with chain-endo-structure)" in (
        report.to_text())


def test_a10_tables_only_the_lattices_past_the_plain_check(monkeypatch):
    tables = _calls(monkeypatch, "theta_condition_tables")
    run_check("kernel-condition-tables")
    plain = list(tables)
    tables.clear()
    report = run_suite("all")
    assert report.passed and tables[:len(plain)] == plain
    assert tables[len(plain):] == [(lat, x) for lat in named_lattices().values()
                                   if 6 <= lat.n <= 8 for x in (1, 2, 3)]


@pytest.mark.parametrize("limits, ring, reused", [
    (Limits(), PrimeField(2), {"A09-distributive-splitting": ("distributive-splitting",)}),
    (Limits(max_lattice=4), RATIONALS, {"A08-orthogonality": ("orthogonal-kernel",)})],
    ids=["other-ring", "other-limits"])
def test_a_result_is_shared_exactly_when_function_and_arguments_match(
        monkeypatch, limits, ring, reused):
    # A08 and A09 run at Limits(max_lattice=5) over the rationals whatever
    # they are given.  The splitting outcome is keyed by its size bound and
    # reads no ring; orth_check reads the ring, and each lattice's outcome is
    # keyed by the lattice, the point bound and the ring.
    names = ("distributive-splitting", "orthogonal-kernel", "A08-orthogonality",
             "A09-distributive-splitting")
    _only(monkeypatch, *names)
    calls = {fn: _calls(monkeypatch, fn)
             for fn in ("_splitting_failure", "_orthogonal_failure", "orth_check")}
    for name in names:
        run_check(name, limits, ring=ring)
    distinct = {fn: list(dict.fromkeys(args)) for fn, args in calls.items()}
    for args in calls.values():
        args.clear()
    report = run_suite("all", limits, ring=ring)
    assert report.passed and calls == distinct
    assert {c.name: c.reused for c in report.checks if c.reused} == reused
    assert {args[2] for args in calls["orth_check"]} == {ring, RATIONALS}


def test_a_body_that_draws_from_its_generator_runs_every_time(monkeypatch):
    # Every body runs again in A11, fundamental-factorial too, which finds
    # the irreducibles of each lattice again; only its ranks are taken.
    _only(monkeypatch, "fundamental-action", "fundamental-factorial",
          "A11-fundamental-module")
    limits = Limits(max_lattice=8, samples=1000)
    perms, irrs = _calls(monkeypatch, "perm_basis"), _calls(monkeypatch, "irreducibles")
    run_check("fundamental-action", limits)
    run_check("fundamental-factorial", limits)
    counts = len(perms), len(irrs)
    perms.clear()
    irrs.clear()
    report = run_suite("all", limits)
    assert report.passed
    assert (len(perms), len(irrs)) == (2 * counts[0], 2 * counts[1])
    assert [c.reused for c in report.checks] == [(), (), ("fundamental-factorial",)]


def test_run_check_always_runs_its_body(monkeypatch):
    splits = _calls(monkeypatch, "_has_splitting_section")
    for name in ("distributive-splitting", "A09-distributive-splitting",
                 "A09-distributive-splitting"):
        result = run_check(name)
        assert result.status == "pass" and result.reused == ()
    assert len(splits) == 3 * 425


def _per_check(seed, ring):
    """The report of suite ``all`` rebuilt from ``run_check`` of each check."""
    checks = [run_check(name, seed=seed, ring=ring) for name, _, _ in list_checks()]
    return PropertyReport("all", ring.name, seed, checks, 0)


def _without_time(report):
    blob = report.to_json()
    blob.pop("elapsed_ms")
    return blob


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(2)], ids=["rat", "p:2"])
def test_a_suite_run_reports_what_each_check_reports_alone(seed, ring):
    assert _without_time(run_suite("all", seed=seed, ring=ring)) == _without_time(
        _per_check(seed, ring))


def test_a_spoiled_rank_fails_the_same_checks_in_a_suite_run(monkeypatch):
    # chain2's rank at two points is one too high; every check that reads it
    # fails, the dual and method checks against gamma ranks of the same inputs
    real = suite_mod.theta_rank
    monkeypatch.setattr(suite_mod, "theta_rank", lambda lat, x, ring: real(lat, x, ring) + (
        lat == chain(2) and x == 2))
    report = run_suite("all")
    assert [c.name for c in report.checks if c.status == "fail"] == [
        "rank-formula-chains", "rank-binomial-decomposition", "rank-dual-construction",
        "rank-method-agreement", "fundamental-factorial", "A01-chain-rank-formula",
        "A02-rank-decomposition", "A06-dual-construction", "A11-fundamental-module"]
    assert _without_time(report) == _without_time(_per_check(0, RATIONALS))


def _exhaustive_splitting_section(lat) -> bool:
    """The section search that ``_has_splitting_section`` replaced, kept as
    its oracle: every subset of each irreducible's down-set that joins to
    it, and a section test and a join test on all pairs per assignment."""
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


def test_splitting_section_search_matches_the_exhaustive_one():
    lattices = list(enumerate_lattices(5)) + list(named_lattices().values())
    assert len(lattices) == 425 + 12
    for lat in lattices:
        found = suite_mod._has_splitting_section(lat)
        assert found == _exhaustive_splitting_section(lat) == is_distributive(lat)


def test_cap_exceeded_marks_skip():
    @check("tmp-skip-probe", "always exceeds a cap", "tmpsuite")
    def probe(ctx):
        raise CapExceeded("synthetic cap")

    try:
        result = run_check("tmp-skip-probe")
        assert result.status == "skip"
        assert "synthetic" in result.witness["reason"]
    finally:
        suite_mod._REGISTRY[:] = [e for e in suite_mod._REGISTRY
                                  if e[0] != "tmp-skip-probe"]


def test_prime_field_run_notes_probabilistic():
    report = run_suite("ranks", small(), ring=PrimeField(1000003))
    assert report.passed
    assert report.ring == "p:1000003"
    assert "probabilistic" in report.to_text()


def test_probe_check_records_findings_without_failing():
    # naturality genuinely fails on both; each finding is the first failing
    # (relation, function) in the search order
    result = run_check("gamma-naturality-probe", small())
    assert result.status == "pass"
    assert result.witness == {"findings": [
        {"name": "m3", "s": [(0, 0), (0, 1)], "phi": [2, 1]},
        {"name": "n5", "s": [(0, 0), (0, 1)], "phi": [3, 1]}]}


def test_spoiled_barcode_fails_naturality_on_a_distributive_lattice(monkeypatch):
    # The down-mask table that the naturality search reads puts every
    # irreducible below every value; the other laws read the true barcodes.
    # On chain1 the empty relation sends [0] to [0], whose spoiled barcode
    # is full, while the empty relation after any barcode is empty.
    real = suite_mod.irr_data

    def spoiled(lat):
        data = real(lat)
        return data._replace(down_irr=((1 << len(data.elems)) - 1,) * lat.n)

    monkeypatch.setattr(suite_mod, "irr_data", spoiled)
    result = run_check("gamma-correspondence")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "phi", "s", "law")}
    assert witness == {"name": "chain1", "phi": [0], "s": [], "law": "naturality"}


def test_functor_composition_builds_each_digit_table_once():
    functor_mod._digits.cache_clear()
    run_check("functor-composition")
    info = functor_mod._digits.cache_info()
    assert info.misses == info.currsize and info.hits > 0


def test_spoiled_identity_fails_functor_composition(monkeypatch):
    # The diagonal on two points swaps them; chain0's one function on two
    # points is fixed by that, so chain1 is the first lattice to show it.
    real = suite_mod.action_index
    swap = Correspondence(2, 2, (2, 1))
    monkeypatch.setattr(suite_mod, "action_index", lambda r, lat: real(
        swap if r == Correspondence.identity(2) else r, lat))
    result = run_check("functor-composition")
    assert result.status == "fail"
    assert result.witness == {"lattice": result.witness["lattice"], "name": "chain1",
                              "law": "identity"}


def test_spoiled_composite_fails_functor_composition_at_the_first_pair(monkeypatch):
    # The full relation on one point acts as the empty one.  The first (s, r)
    # composing to it relate point 0 to point 0 each, and the first function
    # it moves is chain1's top.
    real = suite_mod.action_index
    full, empty = Correspondence.full(1, 1), Correspondence.empty(1, 1)
    monkeypatch.setattr(suite_mod, "action_index",
                        lambda r, lat: real(empty if r == full else r, lat))
    result = run_check("functor-composition")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "s", "r", "phi")}
    assert witness == {"name": "chain1", "s": [(0, 0)], "r": [(0, 0)], "phi": [1]}


def test_spoiled_missing_mask_fails_stability_at_the_first_relation(monkeypatch):
    # chain1's [1, 0] covers its one irreducible.  Marked missing, it is sent
    # to the covering [0, 1] by the first relation that leaves point 0 empty
    # and moves point 0's value to point 1.
    real = suite_mod._missing

    def spoiled(lat, points):
        out = real(lat, points)
        if lat.n > 1:
            out[1] = True
        return out

    monkeypatch.setattr(suite_mod, "_missing", spoiled)
    result = run_check("missing-irreducible-span")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "q", "phi", "law")}
    assert witness == {"name": "chain1", "q": [(1, 0)], "phi": [1, 0], "law": "stability"}


def test_spoiled_missing_mask_fails_the_kernel_law_at_the_first_column(monkeypatch):
    # Past chain0 every function is marked missing, which every relation
    # keeps; chain1's first covering function, [1, 0], has a nonzero column.
    real = suite_mod._missing
    monkeypatch.setattr(suite_mod, "_missing", lambda lat, points: real(lat, points)
                        if lat.n == 1 else np.ones(lat.n ** points, dtype=bool))
    result = run_check("missing-irreducible-span")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "index", "law")}
    assert witness == {"name": "chain1", "index": 1, "law": "inside the kernel"}


def test_spoiled_barcode_fails_the_order_law_at_the_first_value(monkeypatch):
    # A barcode row of two or more irreducibles loses its lowest one, except
    # in the barcode of the inclusion: chain2's top keeps only itself, which
    # does not absorb the order, and still joins to the top.
    real = suite_mod.gamma_corr

    def spoiled(f):
        g = real(f)
        if list(f.values) == irreducibles(f.lattice)[0]:
            return g
        return Correspondence(g.dst_size, g.src_size,
                              (row & row - 1 if row & row - 1 else row for row in g.rows))

    monkeypatch.setattr(suite_mod, "gamma_corr", spoiled)
    result = run_check("gamma-correspondence")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "phi", "law")}
    assert witness == {"name": "chain2", "phi": [2], "law": "absorbs the order"}


def test_spoiled_action_fails_to_recover_the_function(monkeypatch):
    # The empty join is taken to be the top: the empty barcode of chain1's
    # bottom no longer recovers it.
    real = suite_mod.act

    def spoiled(r, f):
        out = real(r, f)
        return LatticeFunction(f.lattice, (f.lattice.top if not row else v
                                           for row, v in zip(r.rows, out.values)))

    monkeypatch.setattr(suite_mod, "act", spoiled)
    result = run_check("gamma-correspondence")
    assert result.status == "fail"
    witness = {key: result.witness[key] for key in ("name", "phi", "law")}
    assert witness == {"name": "chain1", "phi": [0], "law": "recovers the function"}


def test_check_listing_carries_anchors():
    listing = list_checks()
    assert all(anchor for _, anchor, _ in listing)
    names = [name for name, _, _ in listing]
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("A")) == 12


# (number of checks, sha256 of the repr of each listed check, one per line, in order)
LISTING = (52, "1d3a57508de515a4f42aee48b1de38c608118e9ddc2fea26a4015afffd0b1197")


def test_check_listing_is_pinned():
    listing = list_checks()
    blob = "\n".join(repr(entry) for entry in listing).encode()
    assert (len(listing), hashlib.sha256(blob).hexdigest()) == LISTING
