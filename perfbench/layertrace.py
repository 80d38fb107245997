"""Per-layer call counts and self times, added to cfl from outside.

``Tracer.install`` wraps the public functions of each ``cfl`` module, the
constructors, public methods and algebra operators of the classes defined
there, and rebinds every wrapped function in each ``cfl.*`` namespace that
imported it.  Nothing under ``src/`` is edited; the wrappers live only in the
process that installs them.

Timing is a stack of open frames.  A frame's self time is its duration minus
the durations of the wrapped calls made inside it, so self time lands on the
innermost wrapped layer and the self times plus the time outside every
wrapped call add up to the traced wall time exactly.  Counts and self times
are aggregated per function in memory; no per-call record is kept.

O(1) hot calls are counted but not timed: their cost would be mostly the
clock, and A03 alone makes millions of them.  Their time stays with the
caller's frame.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("relations", "lattices", "exact", "morphisms", "functor", "catalog",
          "suite", "cli")

# Counted, never timed.  Poset.le is here because Lattice.le calls it.
COUNT_ONLY = frozenset({
    "lattices.Lattice.__eq__", "lattices.Lattice.__hash__", "lattices.Lattice.le",
    "lattices.Poset.le", "lattices.JoinMap.__call__",
})

# Operators that do algebra, timed like public methods.  Equality is timed
# only on the formal sums, where it compares whole term tables; on the small
# value types it is a tuple comparison and stays with the caller.
OPERATORS = frozenset({
    "__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__",
    "__rmul__", "__matmul__", "__rmatmul__", "__or__", "__and__", "__le__",
    "__contains__",
})
TIMED_EQ = frozenset({"morphisms.LinMorphism", "functor.ModVec",
                      "functor.FundElement"})

# Private helpers the per-layer table names.
PRIVATE = frozenset({"exact._rref_field"})

# Functor self time under these calls is the kernel-system build.
KERNEL_BUILD_CALLS = frozenset({"functor.theta_rank", "functor.gamma_span_rank",
                             "functor.theta_matrix"})
RANK_ENTRIES = frozenset({"exact.fast_int_rank", "exact.modp_rank"})


def _cells(args):
    rows = args[0] if args else None
    if isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], (list, tuple)):
        return len(rows) * len(rows[0])
    return 0


class Tracer:
    """Aggregated per-function statistics for one traced process."""

    def __init__(self):
        self._calls = {}       # key -> [number of calls]
        self._own = {}         # key -> [seconds of self time] (timed keys only)
        self.yields = {}       # key -> items yielded (generator functions)
        self.cells = {}        # key -> summed rows x cols of rank-kernel inputs
        self.kernel_build_s = 0.0
        self.kernel_cells = 0
        self.bareiss_fallbacks = 0
        self._inner = []       # per open frame: seconds spent in wrapped callees
        self._keys = []        # per open frame: its key
        self._kernel_depth = 0

    # --- wrappers -------------------------------------------------------------

    def _enter(self, key, args):
        """Counters kept at the boundary into the rank kernels."""
        cells = _cells(args)
        self.cells[key] = self.cells.get(key, 0) + cells
        caller = self._keys[-1] if self._keys else ""
        if key in RANK_ENTRIES and caller.startswith("functor."):
            self.kernel_cells += cells
        if key == "exact.bareiss_rank_int" and caller == "exact.fast_int_rank":
            self.bareiss_fallbacks += 1

    def timed(self, key, fn):
        count = self._calls.setdefault(key, [0])
        own = self._own.setdefault(key, [0.0])
        inner, keys = self._inner, self._keys
        clock = time.perf_counter
        hooked = key in RANK_ENTRIES or key == "exact.bareiss_rank_int"
        builds = key in KERNEL_BUILD_CALLS
        in_functor = key.startswith("functor.")

        def open_frame():
            inner.append(0.0)
            keys.append(key)
            return clock()

        def close_frame(start):
            elapsed = clock() - start
            keys.pop()
            spent = elapsed - inner.pop()
            own[0] += spent
            if in_functor and self._kernel_depth:
                self.kernel_build_s += spent
            if inner:
                inner[-1] += elapsed

        if inspect.isgeneratorfunction(fn):
            self.yields.setdefault(key, 0)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                count[0] += 1
                gen = fn(*args, **kwargs)
                while True:
                    start = open_frame()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_frame(start)
                    self.yields[key] += 1
                    yield item
            return gen_wrapper

        if hooked or builds or in_functor:
            @functools.wraps(fn)
            def hooked_wrapper(*args, **kwargs):
                count[0] += 1
                if hooked:
                    self._enter(key, args)
                self._kernel_depth += builds
                start = open_frame()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_frame(start)
                    self._kernel_depth -= builds
            return hooked_wrapper

        # The common case, with open_frame/close_frame inlined: this path
        # runs millions of times under A03.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            inner.append(0.0)
            keys.append(key)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                keys.pop()
                own[0] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed
        return wrapper

    def counted(self, key, fn):
        """Count-only wrapper; these methods are always called positionally."""
        count = self._calls.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    # --- installation ---------------------------------------------------------

    def _wrap(self, key, fn):
        return self.counted(key, fn) if key in COUNT_ONLY else self.timed(key, fn)

    def _patch_class(self, layer, cls):
        qual = f"{layer}.{cls.__name__}"
        for name, raw in list(vars(cls).items()):
            public = not name.startswith("_")
            wanted = (public or name in OPERATORS or f"{qual}.{name}" in COUNT_ONLY
                      or (name == "__eq__" and qual in TIMED_EQ))
            if not wanted:
                continue
            key = f"{qual}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(key, raw))

    def install(self):
        """Wrap every layer of cfl and rebind the wrapped names everywhere."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cfl.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._patch_class(layer, obj)
                    continue
                key = f"{layer}.{name}"
                is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if is_function and (not name.startswith("_") or key in PRIVATE):
                    replaced[id(obj)] = (obj, self._wrap(key, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cfl" and not mod_name.startswith("cfl."):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def snapshot(self) -> dict:
        """Everything run.py needs, as plain JSON-ready values."""
        return {"calls": {key: v[0] for key, v in self._calls.items()},
                "self_s": {key: v[0] for key, v in self._own.items()},
                "yields": self.yields,
                "cells": self.cells, "kernel_build_s": self.kernel_build_s,
                "kernel_cells": self.kernel_cells,
                "bareiss_fallbacks": self.bareiss_fallbacks}


def layer_totals(snapshot) -> dict:
    """``{layer: (timed calls, self seconds)}`` summed over a snapshot."""
    out = {layer: [0, 0.0] for layer in LAYERS}
    for key, seconds in snapshot["self_s"].items():
        out[key.split(".", 1)[0]][1] += seconds
    for key, n in snapshot["calls"].items():
        if key not in COUNT_ONLY:
            out[key.split(".", 1)[0]][0] += n
    return {layer: tuple(v) for layer, v in out.items()}
