"""One fresh process of the benchmark: set up, run one pass, report.

The parent times set-up from spawning this process to the ``ready`` line,
which is printed as soon as ``import cfl.cli`` has finished.  Speed probes
(``speedo.py``) run just before and just after the import, and the ready line
carries their durations so that the parent can correct the set-up time.  The
workload's inputs are then prepared, tracing is installed if asked for, and
only the pass itself is timed: untraced passes under the speedometer, traced
ones without it.  The last line of standard output is one JSON object with
the pass's outputs; the parent checks them.

Usage (the parent builds these arguments):
    python3 perfbench/child.py --probe
    python3 perfbench/child.py WORKLOAD SEED PASS TRACE SPEC_JSON WORKDIR
"""

import os
import sys

import speedo

SETUP_PROBES = 3
_samples = speedo.probes(SETUP_PROBES)
import cfl.cli  # noqa: E402

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.abspath(cfl.cli.__file__).startswith(_SRC + os.sep):
    sys.exit(f"cfl was imported from {cfl.cli.__file__}, not from {_SRC}")
_samples += speedo.probes(SETUP_PROBES)
print("ready", *_samples, flush=True)

import contextlib  # noqa: E402  (set-up ends at the ready line above)
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import numpy  # noqa: E402

from cfl import catalog, functor, lattices, suite  # noqa: E402


def _cli(argv):
    """``cfl.cli.main`` in-process; returns (exit code, parsed JSON stdout).

    An exception escaping the CLI is a failed operation, not a crash of the
    benchmark: it comes back as the exit code ``"raised ..."``.
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cfl.cli.main(argv)
    except Exception as err:  # noqa: BLE001  (reported to run.py as a failure)
        return f"raised {type(err).__name__}: {err}", None
    text = buf.getvalue().strip()
    return code, (json.loads(text) if text else None)


# --- verify-all ----------------------------------------------------------------


def _verify_untraced(spec, seed, _inputs):
    code, report = _cli(["verify", "--suite", spec["suite"], "--json", "--seed", str(seed)])
    return {"exit": code, "report": report}


def _verify_traced(spec, seed, _inputs):
    # Per-check times: run_check seeds each check exactly as run_suite does.
    names = [name for name, _, suites in suite.list_checks()
             if spec["suite"] == "all" or spec["suite"] in suites]
    results, check_s = [], {}
    start = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        results.append(suite.run_check(name, suite.Limits(), seed))
        check_s[name] = time.perf_counter() - t0
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    report = suite.PropertyReport(spec["suite"], suite.RATIONALS.name, seed, results,
                                  elapsed_ms)
    return {"exit": 0 if report.passed else 2, "report": report.to_json(),
            "check_s": check_s}


# --- rank-large ----------------------------------------------------------------


def _relabeled(lat, name, seed, pass_index):
    """The lattice's JSON under a seeded random relabeling of its elements.

    Passes take the rows of random Latin squares: over passes 0..n-1, then
    n..2n-1 and so on, every element takes every label exactly once.  Each
    pass on its own still gets a uniformly random labeling, so the expected
    cost is that of independent draws.  But the cost of a query depends
    mostly on the labels of single elements (of chain3.theta.6, on the label
    of the top), and balancing them across the passes of a run keeps one
    run's mean from hanging on a few lucky or unlucky draws.
    """
    n = lat.n
    block, row = divmod(pass_index, n)
    rng = random.Random(f"rank-large:{seed}:{name}:{block}")
    sigma, tau = rng.sample(range(n), n), rng.sample(range(n), n)
    perm = [sigma[(tau[x] + row) % n] for x in range(n)]
    leq = lattices.lattice_to_json(lat)["leq"]
    return {"size": n, "leq": sorted([perm[a], perm[b]] for a, b in leq)}


def _rank_inputs(spec, seed, pass_index, workdir):
    named = catalog.named_lattices()
    paths = []
    for name, _method, _points, _cap in spec["queries"]:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(_relabeled(named[name], name, seed, pass_index), handle)
        paths.append(path)
    return paths


def _rank_pass(spec, _seed, paths):
    out = []
    for (name, method, points, cap), path in zip(spec["queries"], paths):
        argv = ["rank", path, "--points", str(points), "--method", method, "--json"]
        if cap is not None:
            argv += ["--cap", str(cap)]
        t0 = time.perf_counter()
        code, payload = _cli(argv)
        out.append({"query": f"{name}.{method}.{points}", "exit": code,
                    "rank": payload["rank"] if payload else None,
                    "seconds": time.perf_counter() - t0})
    return {"queries": out}


# --- sweep-small ---------------------------------------------------------------


def _sweep_one(lat) -> bool:
    """Every identity the sweep checks on one lattice."""
    text = json.dumps(lattices.lattice_to_json(lat))
    if lattices.lattice_from_json(json.loads(text)) != lat:
        return False
    elems, _ = lattices.irreducibles(lat)
    mob = lattices.mobius(lat)
    if sum(mob[lat.bottom, c] for c in range(lat.n)
           if lat.le(lat.bottom, c)) != (1 if lat.n == 1 else 0):
        return False
    distributive = lattices.is_distributive(lat)
    surj = lattices.canonical_surjection(lat)
    if (surj.src.n == lat.n and surj.is_surjective()) != distributive:
        return False
    k = len(elems)
    return k > 3 or functor.theta_rank(lat, k) == math.factorial(k)


def _sweep_pass(spec, seed, _inputs):
    found = list(catalog.enumerate_lattices(spec["max_size"]))
    random.Random(f"sweep-small:{seed}").shuffle(found)
    failed = 0
    for lat in found:
        try:
            ok = _sweep_one(lat)
        except Exception:  # an identity that raises counts as failed
            ok = False
        failed += not ok
    return {"lattices": len(found), "failed": failed}


PASSES = {
    "verify-all": (lambda *_: None, _verify_untraced, _verify_traced),
    "rank-large": (_rank_inputs, _rank_pass, _rank_pass),
    "sweep-small": (lambda *_: None, _sweep_pass, _sweep_pass),
}


def main(argv):
    if argv == ["--probe"]:
        return 0
    workload, seed, pass_index, traced, spec, workdir = argv
    seed, pass_index, traced = int(seed), int(pass_index), traced == "1"
    spec = json.loads(spec)
    prepare, untraced_pass, traced_pass = PASSES[workload]
    inputs = prepare(spec, seed, pass_index, workdir)
    tracer = None
    if traced:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    meter = contextlib.nullcontext() if traced else speedo.Speedometer()
    start = time.perf_counter()
    with meter:
        outputs = (traced_pass if traced else untraced_pass)(spec, seed, inputs)
    wall = time.perf_counter() - start
    result = {"wall_s": wall}
    if not traced:
        result["wall_s"] = wall = wall - meter.probe_s
        result["wall_norm_s"] = speedo.correct(wall, meter.samples)
        result["probes"] = len(meter.samples)
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    })
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
