import json
import time

import pytest

import cfl.suite as suite_mod
from cfl.exact import PrimeField
from cfl.lattices import CapExceeded, chain
from cfl.morphisms import LinMorphism, f_dc, p_tuples
from cfl.suite import Limits, check, list_checks, run_check, run_suite, suite_names


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


def test_perturbed_matrix_unit_fails_with_witness(monkeypatch):
    real = suite_mod.f_dc

    def perturbed(d, c):
        unit = real(d, c)
        if d.entries == c.entries == (0,) and d.lattice.n == 4:
            m, coeff = next(iter(unit.terms.items()))
            unit = LinMorphism(unit.src, unit.dst, {**unit.terms, m: coeff + 1})
        return unit

    monkeypatch.setattr(suite_mod, "f_dc", perturbed)
    result = run_check("matrix-unit-products", small())
    assert result.status == "fail"
    assert result.witness["lattice"]["size"] == 4
    assert len(result.witness["tuples"]) == 4
    assert [0] in result.witness["tuples"]


def test_perturbed_section_fails_with_witness(monkeypatch):
    real = suite_mod.j_of_tuple

    def doubled(b):
        return 2 * real(b) if len(b) == 2 else real(b)

    monkeypatch.setattr(suite_mod, "j_of_tuple", doubled)
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
    unit = f_dc(b, b)

    def skewed(n, m):
        block = real(n, m)
        if n == 2 and m < 2:
            block = block + (unit if m == 0 else -unit)
        return block

    monkeypatch.setattr(suite_mod, "beta", skewed)
    result = run_check("chain-central-idempotents", small())
    assert result.status == "fail"
    assert result.witness["n"] == 2 and result.witness["law"] == "centrality"


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
    result = run_check("gamma-naturality-probe", small())
    assert result.status == "pass"
    assert result.witness and "findings" in result.witness
    diamond = next(f for f in result.witness["findings"] if f["name"] == "m3")
    assert diamond.get("phi") is not None  # naturality genuinely fails there


def test_check_listing_carries_anchors():
    listing = list_checks()
    assert all(anchor for _, anchor, _ in listing)
    names = [name for name, _, _ in listing]
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("A")) == 12
