"""The acceptance gate: one test per criterion, each at its pinned bounds.

Every test prints its own pass/fail line so the gate can be read off the
output directly; bounds live inside the registered checks, not here.

The same run also pins what each criterion visits: every call the suite
makes to one of the functions in ``SPIED`` is recorded as a (function,
lattice, points or size) triple, and the set of triples must keep its size
and its sha256.  A refactor of the suite that changes the inputs a
criterion covers therefore fails here even when the criterion still passes.

A block of matrix units (``unit_block(lattice, n)``) is recorded as the calls
it stands for: ``p_tuples(lattice, n)``, which lists its chains, and one
``f_dc(d, c)`` per unit it gives, each pair of its chains.
"""

import hashlib

import pytest

import cfl.suite as suite_mod
from cfl.lattices import Lattice
from cfl.morphisms import ChainTuple
from cfl.suite import run_check

CRITERIA = [
    "A01-chain-rank-formula",
    "A02-rank-decomposition",
    "A03-idempotent-calculus",
    "A04-chain-endomorphisms",
    "A05-irreducible-invariance",
    "A06-dual-construction",
    "A07-duality",
    "A08-orthogonality",
    "A09-distributive-splitting",
    "A10-condition-equivalence",
    "A11-fundamental-module",
    "A12-chain-summand-census",
]

SPIED = ("theta_rank", "gamma_span_rank", "orth_check", "theta_conditions",
         "h_quotient_basis", "tot_basis", "p_tuples", "all_functions", "irr_data",
         "gamma_t", "dual_star", "unit_block", "enumerate_lattices",
         "_chain_image_count", "_has_splitting_section", "fund_act",
         "theta_condition_tables")

# (number of distinct triples, sha256 of their sorted reprs) per criterion.
VISITED = {
    "A01-chain-rank-formula": (
        60, "de7c4bf90186653c56d920be2e4d199dac9d9125b0dc3432085be647d9536715"),
    "A02-rank-decomposition": (
        25, "5e7c8d52a8e9f0cf9250a00f4e3db88e36e5961466256693cc25dbc162f3fa09"),
    "A03-idempotent-calculus": (
        514, "b986fb81dae3e8a47735781118a4d7e9aa70a370eed2dcb5cb01538752a102cc"),
    "A04-chain-endomorphisms": (
        121, "8d1f246c2f7c36751c163c42cfeabb2ea96667a818e2f87894f5fb286768f7b5"),
    "A05-irreducible-invariance": (
        16, "de9fe57c4e9fcbab7e7dc13407c188402a7129eefc2385f5698576bc45100d4c"),
    "A06-dual-construction": (
        64, "522d2b029ab1291e33fa2e6ad2a1170163f2a8fce4d55b1c2c546cae37e05b99"),
    "A07-duality": (
        40, "1217eacfafb11de1d3d75eaf79ca046b3c0349ba2fe7a7553a52ac41966f2440"),
    "A08-orthogonality": (
        14, "e3e7a18201186f983392bf1e66a0d04d70994ed4522cc5d2b289e685c01277ef"),
    "A09-distributive-splitting": (
        426, "646602b42f033abab372186f283ff702aaaf13a90990daec3af5c5784acf38b3"),
    "A10-condition-equivalence": (
        36, "7c166ea21e7d57d301b98c9fd4f778aca3726e78a4107c8e25c4e3ea2b404ab0"),
    "A11-fundamental-module": (
        10, "c3c3f8846b7c28285fbccaba6a9bd584fa6ba23ba0a16b78fcc4f1a7b20d923a"),
    "A12-chain-summand-census": (
        115, "910f5eeac4809c8c09483a741a8b09ccad93409fca683d0876fff458a7c669cd"),
}


def _lattice_key(obj):
    lat = obj if isinstance(obj, Lattice) else getattr(obj, "lattice", None)
    if not isinstance(lat, Lattice):
        return None
    return (lat.n, lat.poset.leq.rows)


def _triple(name, args):
    """(function, lattice as (n, leq rows), points or size) for one call.

    Integer arguments are point counts or sizes; a matrix unit ``f_dc(d, c)``
    is identified by the entries of its two chain tuples.
    """
    rest = tuple(a.entries if isinstance(a, ChainTuple) else a
                 for a in args if isinstance(a, (int, ChainTuple)))
    return (name, _lattice_key(args[0]), rest)


def _block_triples(lattice, n, tuples):
    return [_triple("p_tuples", (lattice, n))] + [
        _triple("f_dc", (d, c)) for d in tuples for c in tuples]


def _spy(monkeypatch, visited):
    for name in SPIED:
        fn = getattr(suite_mod, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            if _name != "unit_block":
                visited.add(_triple(_name, args))
                return _fn(*args, **kwargs)
            out = _fn(*args, **kwargs)
            visited.update(_block_triples(*args, out[0]))
            return out

        monkeypatch.setattr(suite_mod, name, wrapper)


def _fingerprint(visited):
    blob = "\n".join(sorted(repr(t) for t in visited)).encode()
    return len(visited), hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance_criterion(name, monkeypatch):
    visited = set()
    _spy(monkeypatch, visited)
    result = run_check(name, seed=0)
    line = f"{result.status.upper()} {name}: {result.anchor}"
    print(line)
    if result.witness is not None:
        print(f"  witness: {result.witness}")
    print(f"  visited: {_fingerprint(visited)}")
    assert result.status == "pass", result.witness
    assert _fingerprint(visited) == VISITED[name]
