import json

import pytest

import cfl.suite as suite_mod
from cfl.catalog import named_lattices
from cfl.cli import main
from cfl.lattices import lattice_to_json


@pytest.fixture
def m3_file(tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(lattice_to_json(named_lattices()["m3"])))
    return str(path)


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(json.dumps({"size": 3, "leq": [[0, 1], [1, 2]]}))
    return str(path)


def test_lattice_check(m3_file, capsys):
    assert main(["lattice", "check", m3_file]) == 0
    out = capsys.readouterr().out
    assert "not distributive" in out and "3 irreducibles" in out


def test_lattice_check_json(m3_file, capsys):
    assert main(["lattice", "check", m3_file, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["size"] == 5 and blob["distributive"] is False
    assert blob["irreducibles"] == [1, 2, 3]
    assert blob["bottom"] == 0 and blob["top"] == 4


def test_axiom_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 4, "leq": [[0, 1], [0, 2]]}))
    assert main(["lattice", "check", str(bad)]) == 1
    assert "least upper bound" in capsys.readouterr().err


def test_malformed_json_distinguished(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["lattice", "check", str(broken)]) == 1
    assert "JSON parse error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["lattice", "check", "/nonexistent/x.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


CHAIN2 = {"size": 3, "leq": [[0, 1], [1, 2]]}
# The diamond with 40 atoms: its irreducibles form a 40-point antichain.
M40 = {"size": 42,
       "leq": [[0, a] for a in range(1, 41)] + [[a, 41] for a in range(1, 41)]}


def _chain_json(n):
    return {"size": n + 1, "leq": [[i, i + 1] for i in range(n)]}


@pytest.mark.parametrize("content, argv, message", [
    ({"size": 3, "leq": 5}, ["lattice", "check", "FILE"], "leq must be a list"),
    ({"size": 100, "leq": [[0, 1]]}, ["lattice", "ideals", "FILE"],
     "size must be an integer in 0..64"),
    (CHAIN2, ["rank", "FILE", "--points", "-1"], "--points must be non-negative"),
    (CHAIN2, ["rank", "FILE", "--points", "-1", "--method", "formula"],
     "--points must be non-negative"),
    (CHAIN2, ["rank", "FILE", "--points", "2", "--ring", "p:4294967311"], "p < 2^31"),
    ({"size": 40, "leq": []}, ["lattice", "ideals", "FILE"],
     "ideal scan capped at 20 points"),
    (M40, ["rank", "FILE", "--points", "1"], "ideal scan capped at 20 points"),
    ({"size": 8, "leq": []}, ["lattice", "ideals", "FILE"],
     "256 ideals exceed the 64-element lattice limit"),
    (_chain_json(29), ["lattice", "endo", "FILE"],  # a 30-element chain
     "chain scan of 23751 4-subsets exceeds cap 16384"),
    (_chain_json(10), ["lattice", "endo", "FILE"],
     "1024 chain tuples exceed cap 512"),
    (_chain_json(15), ["rank", "FILE", "--points", "1", "--method", "gamma"],
     "2^15 signed terms per generator exceed cap 20000"),
    ({"size": 1, "leq": []}, ["rank", "FILE", "--points", "70"],
     "2^70 subsets of points exceed cap 20000"),
    ({"size": 1, "leq": []}, ["rank", "FILE", "--points", "34"],
     "2^34 subsets of points exceed cap 20000"),
    ({"size": 1, "leq": []}, ["rank", "FILE", "--points", "100000000", "--method", "gamma"],
     "100000000 points exceed cap 20000"),
    (CHAIN2, ["verify", "--suite", "all", "--max-lattice", "0", "--max-points", "-1",
              "--samples", "0"], "max_lattice must be at least 1, got 0"),
    (CHAIN2, ["verify", "--max-points", "-1"], "max_points must be at least 0, got -1"),
    (CHAIN2, ["verify", "--samples", "0"], "samples must be at least 1, got 0"),
    (CHAIN2, ["catalog", "--max-size", "-3"], "--max-size must be non-negative, got -3"),
    (CHAIN2, ["catalog", "--exhaustive", "-1"], "--exhaustive must be non-negative"),
    ({"size": True, "leq": []}, ["lattice", "check", "FILE"],
     "size must be an integer in 0..64, got True"),
    ({"size": 2, "leq": [[True, 1]]}, ["lattice", "check", "FILE"],
     "leq entries must be [a, b] pairs, got [True, 1]"),
])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, content, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main([str(path) if a == "FILE" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_lattice_ideals(chain2_file, capsys):
    assert main(["lattice", "ideals", chain2_file, "--direction", "upper",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["size"] == 4 and blob["encodings"] == [0, 4, 6, 7]


def test_lattice_mobius(chain2_file, capsys):
    assert main(["lattice", "mobius", chain2_file]) == 0
    out = capsys.readouterr().out
    assert "mu(0,1) = -1" in out and "mu(0,2) = 0" in out


def test_lattice_endo(tmp_path, capsys):
    b2 = tmp_path / "b2.json"
    b2.write_text(json.dumps(lattice_to_json(named_lattices()["b2"])))
    assert main(["lattice", "endo", str(b2), "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["tuple_counts"] == [1, 3, 2]
    assert blob["chain_image_endomorphisms"] == 14
    assert blob["matrix_unit_dimension"] == 14


def test_rank_methods_agree(chain2_file, capsys):
    for method in ("theta", "gamma", "formula"):
        assert main(["rank", chain2_file, "--points", "2",
                     "--method", method]) == 0
    outputs = capsys.readouterr().out.split()
    assert outputs == ["2", "2", "2"]


def test_rank_lattice_flag(chain2_file, capsys):
    assert main(["rank", "--lattice", chain2_file, "--points", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["rank", "--points", "1"]) == 1
    assert main(["rank", chain2_file, "--lattice", "/other.json",
                 "--points", "1"]) == 1


def test_rank_formula_json_has_no_system(chain2_file, capsys):
    assert main(["rank", chain2_file, "--points", "2", "--method", "formula",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rank"] == 2 and blob["shape"] is None and blob["path"] == "formula"
    assert blob["build_s"] == blob["eliminate_s"] == 0


def test_rank_formula_rejects_non_chains(m3_file, capsys):
    assert main(["rank", m3_file, "--points", "2", "--method", "formula"]) == 1
    assert "totally ordered" in capsys.readouterr().err


def test_rank_json_and_prime_ring(m3_file, capsys):
    assert main(["rank", m3_file, "--points", "3", "--ring", "p:1000003",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    timings = {key: blob.pop(key) for key in ("build_s", "eliminate_s")}
    assert blob == {"exact": False, "method": "theta", "points": 3,
                    "rank": 6, "ring": "p:1000003",
                    "shape": [6, 6], "path": "prime-field"}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert main(["rank", m3_file, "--points", "3", "--method", "gamma", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rank"] == 6 and blob["path"] == "modp-certified"
    assert blob["exact"] is True and min(blob["shape"]) == 6


def test_rank_ring_env_override(chain2_file, capsys, monkeypatch):
    monkeypatch.setenv("CFL_RING", "p:7")
    assert main(["rank", chain2_file, "--points", "2"]) == 0
    assert "probabilistic" in capsys.readouterr().out
    monkeypatch.setenv("CFL_RING", "bogus")
    assert main(["rank", chain2_file, "--points", "2"]) == 1


def test_rank_cap(m3_file, capsys):
    assert main(["rank", m3_file, "--points", "3", "--cap", "10"]) == 1
    assert "cap" in capsys.readouterr().err


def test_verify_small_suite(capsys):
    code = main(["verify", "--suite", "relations", "--samples", "20",
                 "--max-lattice", "3"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_json_schema(capsys):
    assert main(["verify", "--suite", "enumeration", "--max-lattice", "4",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"suite", "ring", "seed", "checks", "elapsed_ms"}


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "mobius-duality" in out and "A01-chain-rank-formula" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    real = suite_mod.mobius

    def corrupted(obj):
        table = dict(real(obj))
        for key in table:
            if key[0] != key[1]:
                table[key] += 1
                break
        return table

    monkeypatch.setattr(suite_mod, "mobius", corrupted)
    code = main(["verify", "--suite", "lattices", "--max-lattice", "3",
                 "--samples", "10"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_catalog_listing(capsys):
    assert main(["catalog", "--max-size", "5", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in blob}
    assert "m3" in names and "b3" not in names
    entry = next(e for e in blob if e["name"] == "m3")
    assert entry["distributive"] is False and entry["irreducibles"] == 3
