import dataclasses
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import cfl
import cfl.suite as suite_mod
from cfl.catalog import named_lattices
from cfl.cli import _MAX_RANK_DIGITS, _build_parser, _limits, main
from cfl.functor import DEFAULT_FUNCTION_CAP
from cfl.lattices import lattice_to_json
from cfl.suite import Limits


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


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-100000-deep"])
@pytest.mark.parametrize("argv", [["lattice", "check"], ["rank", "--points", "1"]],
                         ids=["lattice-check", "rank"])
def test_unreadable_json_exits_1_with_one_line(tmp_path, capsys, content, argv):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: JSON parse error") and err.count("\n") == 1


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
    (CHAIN2, ["rank", "FILE", "--points", "2", "--ring", "p:abc"],
     "unknown ring 'p:abc'; expected 'rat' or 'p:PRIME'"),
    (CHAIN2, ["rank", "FILE", "--points", "2", "--ring", "p:" + "9" * 5000], "p < 2^31"),
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


def test_rank_lattice_flag(capsys):
    assert main(["rank", "--points", "1"]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: file\n"


USAGE_ERRORS = [
    ([], "required: command"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["lattice"], "required: subcommand"),
    (["lattice", "check"], "required: file"),
    (["lattice", "ideals", "FILE", "--direction", "sideways"], "invalid choice: 'sideways'"),
    (["lattice", "endo", "FILE", "--bogus"], "unrecognized arguments: --bogus"),
    (["rank", "FILE"], "required: --points"),
    (["rank", "FILE", "--points", "two"], "argument --points: invalid int value: 'two'"),
    (["rank", "FILE", "--points", "1", "--method", "nope"], "invalid choice: 'nope'"),
    (["rank", "FILE", "--points", "1", "--cap", "1e6"], "argument --cap: invalid int value"),
    (["verify", "--max-points", "abc"], "argument --max-points: invalid int value: 'abc'"),
    (["verify", "--seed"], "argument --seed: expected one argument"),
    (["catalog", "--max-size", "x"], "argument --max-size: invalid int value: 'x'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-command" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_1_with_one_line(chain2_file, capsys, argv, message):
    assert main([chain2_file if a == "FILE" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"], ["verify", "-h"]],
                         ids=["cfl", "rank", "verify"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert "usage: cfl" in capsys.readouterr().out


def test_rank_formula_json_has_no_system(chain2_file, capsys):
    assert main(["rank", chain2_file, "--points", "2", "--method", "formula",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rank"] == 2 and blob["shape"] is None and blob["path"] == "formula"
    assert blob["build_s"] == blob["eliminate_s"] == 0


@pytest.mark.parametrize("points", [10000, 10 ** 9])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_rank_formula_refuses_a_count_too_long_to_print(chain2_file, capsys, points,
                                                        json_flag):
    start = time.perf_counter()
    assert main(["rank", chain2_file, "--points", str(points), "--method", "formula",
                 *json_flag]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the formula rank at {points} points has more than "
                            f"{_MAX_RANK_DIGITS} digits\n")


def test_rank_formula_prints_every_count_of_at_most_the_digit_limit(tmp_path, capsys):
    # 2^p - 1 on the two-element chain: 14284 points give the last count of
    # 4300 digits, 14285 the first of 4301
    path = tmp_path / "chain1.json"
    path.write_text(json.dumps({"size": 2, "leq": [[0, 1]]}))
    assert main(["rank", str(path), "--points", "14284", "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert len(out) == _MAX_RANK_DIGITS + 1 and int(out) == 2 ** 14284 - 1
    assert main(["rank", str(path), "--points", "14285", "--method", "formula"]) == 1
    assert "more than 4300 digits" in capsys.readouterr().err


@pytest.mark.parametrize("method, builder", [("theta", "_covering_digits"),
                                             ("gamma", "_digits")])
def test_rank_out_of_memory_exits_1_with_one_line(m3_file, capsys, monkeypatch, method,
                                                  builder):
    # A table too large for the address space: numpy raises MemoryError.
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.15 GiB for an array")

    monkeypatch.setattr(f"cfl.functor.{builder}", too_large)
    assert main(["rank", m3_file, "--points", "2", "--method", method]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.15 GiB for an array\n"


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
                    "shape": [6, 6], "path": "prime-field", "peeled": 6,
                    "prime": 1000003}
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert main(["rank", m3_file, "--points", "3", "--method", "gamma", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rank"] == 6 and blob["path"] == "structural" and blob["peeled"] == 6
    assert blob["exact"] is True and min(blob["shape"]) == 6


def test_rank_cap(m3_file, capsys):
    assert main(["rank", m3_file, "--points", "3", "--cap", "10"]) == 1
    assert "cap" in capsys.readouterr().err
    for cap in ("0", "-5"):
        assert main(["rank", m3_file, "--points", "1", "--cap", cap]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --cap must be at least 1, got {cap}\n"
    # 1 is a cap, which m3's five functions at one point exceed
    assert main(["rank", m3_file, "--points", "1", "--cap", "1"]) == 1
    assert "functions exceed cap 1" in capsys.readouterr().err
    assert main(["rank", m3_file, "--points", "1", "--cap", "8"]) == 0


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


@pytest.mark.parametrize("argv, message", [
    (["--ring", "bogus"], "unknown ring 'bogus'"),
    (["--suite", "nope"], "unknown suite 'nope'"),
    (["--max-points", "-5"], "max_points must be at least 0, got -5"),
], ids=["ring", "suite", "max-points"])
def test_verify_list_validates_its_options_first(capsys, argv, message):
    assert main(["verify", "--list", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


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


def test_parser_defaults_come_from_their_sources():
    parser = _build_parser()
    assert _limits(parser.parse_args(["verify"])) == Limits()
    assert _limits(parser.parse_args(["verify", "--samples", "7"])) == Limits(samples=7)
    assert parser.parse_args(["rank", "FILE", "--points", "2"]).cap == DEFAULT_FUNCTION_CAP


# --- what each command imports -----------------------------------------------------

# A fresh interpreter runs the CLI in-process, then prints its exit code and
# every cfl module it has loaded on its last line.
_PROBE = """
import sys
from cfl.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as done:
    code = done.code
print(code, *sorted(m for m in sys.modules if m == "cfl" or m.startswith("cfl.")))
"""
_RANK_MODULES = ["cfl", "cfl.cli", "cfl.exact", "cfl.functor", "cfl.lattices", "cfl.relations"]


def _fresh_python(*args):
    """``python -W error`` on ``args`` in a new process, with the cfl under
    test first on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfl.__file__)))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["rank", "FILE", "--points", "3", "--json"],
    ["rank", "FILE", "--points", "3", "--method", "gamma", "--json"],
    ["lattice", "check", "FILE"],
], ids=["rank-theta", "rank-gamma", "lattice-check"])
def test_commands_load_neither_the_suite_nor_morphisms(m3_file, argv):
    done = _fresh_python("-c", _PROBE, *[m3_file if a == "FILE" else a for a in argv])
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0" and loaded == _RANK_MODULES


def test_the_rank_path_defines_no_dataclass():
    # read off each module's namespace, not sys.modules, since numpy may
    # load the dataclasses module itself
    for name in _RANK_MODULES:
        found = [key for key, value in vars(importlib.import_module(name)).items()
                 if dataclasses.is_dataclass(value)]
        assert not found, (name, found)


def test_verify_help_exits_0_without_the_suite():
    done = _fresh_python("-c", _PROBE, "verify", "-h")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cfl verify")
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0" and "cfl.suite" not in loaded and "cfl.morphisms" not in loaded


def test_package_names_resolve_on_first_use():
    done = _fresh_python("-c", """
import sys
import cfl
assert "cfl.suite" not in sys.modules and "cfl.morphisms" not in sys.modules
from cfl import Limits, run_suite, LinMorphism, ChainTuple
import cfl.morphisms, cfl.suite
assert (Limits, run_suite) == (cfl.suite.Limits, cfl.suite.run_suite)
assert (LinMorphism, ChainTuple) == (cfl.morphisms.LinMorphism, cfl.morphisms.ChainTuple)
names = {}
exec("from cfl import *", names)
assert set(cfl.__all__) <= set(names) and names["Limits"] is Limits
try:
    cfl.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("cfl.no_such_name resolved")
print("ok")
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
