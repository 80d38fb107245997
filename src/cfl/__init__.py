"""cfl: exact computations on finite lattices, relations, and their modules.

``Limits``, ``run_suite``, ``ChainTuple`` and ``LinMorphism`` are imported on
first use (PEP 562), so that importing ``cfl`` does not load the verification
suite or the morphism algebra.
"""

import importlib

from .exact import ExactMatrix, PrimeField, RATIONALS, parse_ring
from .lattices import (JoinMap, Lattice, LatticeError, Poset, chain,
                       ideal_lattice, irreducibles, is_distributive,
                       lattice_from_json, lattice_from_leq, lattice_to_json,
                       mobius)
from .relations import Correspondence, order_flags

_LAZY = {"ChainTuple": "morphisms", "LinMorphism": "morphisms",
         "Limits": "suite", "run_suite": "suite"}

__all__ = [
    "ChainTuple", "Correspondence", "ExactMatrix", "JoinMap", "Lattice",
    "LatticeError", "Limits", "LinMorphism", "Poset", "PrimeField",
    "RATIONALS", "chain", "ideal_lattice", "irreducibles", "is_distributive",
    "lattice_from_json", "lattice_from_leq", "lattice_to_json", "mobius",
    "order_flags", "parse_ring", "run_suite",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
