"""Benchmark runner for cfl: three workloads, fresh processes, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 50 --trace 0

Every pass runs in a fresh child process (``perfbench/child.py``), one child
at a time.  With ``--trace 0`` passes repeat while the next one should end
within ``--seconds`` (at least one pass).  The end-to-end metrics are
times corrected for the machine's speed while they were measured
(``speedo.py``): the mean wall time of the passes and the median set-up
time, and the median peak memory.
With ``--trace 1`` this runs one untraced and one traced pass at the
same seed and reports the per-layer metrics of the traced one.  ``--tiny``
shrinks every workload for the self-test.

Standard output ends with two JSON lines: a report (environment, every
pass, ``fail_ratio``) and the result object.  It exits 1 without a
result when the library cannot be found or a child cannot start, and 2 when
the result is printed but the outputs were wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedo
from layertrace import LAYERS, layer_totals

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORKDIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 8          # set-up-only children per untraced run, besides the passes
RUN_LIMIT_S = 170.0       # a run stops its last child by this deadline

# (lattice, method, points, cap) -> expected rank.  Each full-size rank was
# confirmed by two methods: chain3.theta.6 by total_rank_formula(3, 6),
# b2.gamma.6 and n5.gamma.5 by theta_rank, m3.theta.5 by gamma_span_rank.
RANK_QUERIES = {
    False: {("chain3", "theta", 6, None): 2100, ("b2", "gamma", 6, None): 2702,
            ("m3", "theta", 5, 40000): 750, ("n5", "gamma", 5, None): 750},
    True: {("chain3", "theta", 4, None): 60, ("b2", "gamma", 4, None): 110,
           ("m3", "theta", 3, 40000): 6, ("n5", "gamma", 4, None): 84},
}
VERIFY_SUITE = {False: ("all", 51), True: ("relations", 4)}     # suite, checks
SWEEP_SIZE = {False: (6, 6815), True: (4, 45)}                  # max size, lattices

CHECK_METRICS = [
    "A01-chain-rank-formula", "A02-rank-decomposition", "A03-idempotent-calculus",
    "A04-chain-endomorphisms", "A05-irreducible-invariance", "A06-dual-construction",
    "A07-duality", "A08-orthogonality", "A09-distributive-splitting",
    "A10-condition-equivalence", "A11-fundamental-module", "A12-chain-summand-census",
    "matrix-unit-products", "enumeration-recount",
]

END_TO_END = [("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = (
    [("lattices.self_s", "s"), ("lattices.calls", "count"),
     ("lattices.joinmap_new", "count"), ("lattices.lattice_new", "count"),
     ("lattices.lattice_eq", "count"),
     ("relations.self_s", "s"), ("relations.calls", "count"),
     ("catalog.self_s", "s"), ("catalog.lattices_yielded", "count"),
     ("morphisms.self_s", "s"), ("morphisms.calls", "count"),
     ("morphisms.compose_calls", "count"), ("morphisms.linmorphism_new", "count"),
     ("functor.self_s", "s"), ("functor.calls", "count"),
     ("functor.kernel_build_s", "s"), ("functor.kernel_cells", "count"),
     ("functor.theta_conditions_calls", "count"),
     ("exact.self_s", "s"), ("exact.calls", "count"),
     ("exact.modp_rank.self_s", "s"), ("exact.modp_rank.cells", "count"),
     ("exact.bareiss.self_s", "s"), ("exact.bareiss.calls", "count"),
     ("exact.rref.self_s", "s"), ("exact.certified_ratio", "ratio"),
     ("suite.self_s", "s")]
    + [(f"suite.check.{name}_s", "s") for name in CHECK_METRICS]
    + [("cli.self_s", "s")]
    + [(f"cli.rank.{lat}.{method}.{points}_s", "s")
       for lat, method, points, _ in RANK_QUERIES[False]]
    + [("trace.overhead_s", "s"), ("trace.traced_wall_s", "s"),
       ("trace.bench_self_s", "s")]
)


def workload_specs(tiny: bool) -> dict:
    """What each child runs; the expected values stay in this process."""
    return {
        "verify-all": {"suite": VERIFY_SUITE[tiny][0]},
        "rank-large": {"queries": list(RANK_QUERIES[tiny])},
        "sweep-small": {"max_size": SWEEP_SIZE[tiny][0]},
    }


# --- output checks: (attempted, failed) for one pass ---------------------------


def check_verify(outputs, tiny):
    want = VERIFY_SUITE[tiny][1]
    checks = outputs["report"]["checks"] if outputs.get("report") else []
    failed = sum(c["status"] != "pass" for c in checks) + max(0, want - len(checks))
    if outputs["exit"] != 0:
        failed = max(failed, 1)
    return max(want, len(checks)), failed


def check_rank(outputs, tiny, expected=None):
    expected = expected or RANK_QUERIES[tiny]
    got = {q["query"]: q for q in outputs["queries"]}
    failed = 0
    for (lat, method, points, _), rank in expected.items():
        q = got.get(f"{lat}.{method}.{points}")
        failed += q is None or q["exit"] != 0 or q["rank"] != rank
    return len(expected), failed


def check_sweep(outputs, tiny):
    want = SWEEP_SIZE[tiny][1]
    return max(want, outputs["lattices"]), outputs["failed"] + abs(want - outputs["lattices"])


CHECKS = {"verify-all": check_verify, "rank-large": check_rank, "sweep-small": check_sweep}


# --- children --------------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run one child to completion; returns (set-up times, parsed last line).

    The set-up times are the measured seconds, without the child's speed
    probes, and the same corrected to the reference speed (``speedo.py``).
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - start
        if not ready or ready[0] != "ready":
            raise ChildError("child did not finish importing cfl.cli")
        samples = [float(p) for p in ready[1:]]
        setup_s -= sum(samples)
        setup = {"setup_s": setup_s, "setup_norm_s": speedo.correct(setup_s, samples)}
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError("child ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildError(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_pass(workload, seed, index, traced, spec, deadline):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    args = [workload, str(seed), str(index), "1" if traced else "0",
            json.dumps(spec), str(WORKDIR)]
    setup, result = spawn(args, deadline)
    result.update(setup)
    return result


# --- metrics ---------------------------------------------------------------------


def layer_metrics(untraced, traced) -> dict:
    snap = traced["trace"]
    calls, self_s = snap["calls"], snap["self_s"]
    totals = layer_totals(snap)
    fast = calls.get("exact.fast_int_rank", 0)
    outputs = traced["outputs"]
    query_s = [q["seconds"] for q in outputs.get("queries", [])]
    values = {
        "lattices.joinmap_new": calls.get("lattices.JoinMap.__init__", 0),
        "lattices.lattice_new": calls.get("lattices.Lattice.__init__", 0),
        "lattices.lattice_eq": calls.get("lattices.Lattice.__eq__", 0),
        "catalog.lattices_yielded": snap["yields"].get("catalog.enumerate_lattices", 0),
        "morphisms.compose_calls": calls.get("morphisms.LinMorphism.compose", 0),
        "morphisms.linmorphism_new": calls.get("morphisms.LinMorphism.__init__", 0),
        "functor.kernel_build_s": snap["kernel_build_s"],
        "functor.kernel_cells": snap["kernel_cells"],
        "functor.theta_conditions_calls": calls.get("functor.theta_conditions", 0),
        "exact.modp_rank.self_s": self_s.get("exact.modp_rank", 0.0),
        "exact.modp_rank.cells": snap["cells"].get("exact.modp_rank", 0),
        "exact.bareiss.self_s": self_s.get("exact.bareiss_rank_int", 0.0),
        "exact.bareiss.calls": calls.get("exact.bareiss_rank_int", 0),
        "exact.rref.self_s": self_s.get("exact._rref_field", 0.0),
        # Share of fast_int_rank calls settled by the mod-p certificate.
        "exact.certified_ratio": (fast - snap["bareiss_fallbacks"]) / fast if fast else 1.0,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        # Time outside every wrapped call: the benchmark's own code.
        "trace.bench_self_s": traced["wall_s"] - sum(self_s.values()),
    }
    for layer in LAYERS:
        values[f"{layer}.calls"] = totals[layer][0]
        values[f"{layer}.self_s"] = totals[layer][1]
    for name in CHECK_METRICS:
        values[f"suite.check.{name}_s"] = outputs.get("check_s", {}).get(name, 0.0)
    rank_names = [name for name, _ in PER_LAYER if name.startswith("cli.rank.")]
    for i, name in enumerate(rank_names):
        values[name] = query_s[i] if i < len(query_s) else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def end_to_end_metrics(passes, setup_samples) -> dict:
    values = {
        # A mean, not a median: each pass runs other inputs (rank-large
        # relabels per pass) and there are only one to four passes.
        "wall_norm_s": statistics.fmean(p["wall_norm_s"] for p in passes),
        "setup_s": statistics.median(s["setup_norm_s"] for s in setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def environment(seed, versions) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": versions["python"], "numpy": versions["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- one run ---------------------------------------------------------------------


def run(workload, seed, seconds, trace, tiny=False, rank_expected=None):
    """One benchmark run; returns (report, result) as printed.

    ``rank_expected`` replaces the expected ranks of rank-large; the
    self-test uses it to show that a wrong rank is counted as a failure.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = workload_specs(tiny)[workload]
    check = CHECKS[workload]
    if rank_expected is not None:
        check = functools.partial(check_rank, expected=rank_expected)
    setup_samples = []
    if trace:
        passes = [run_pass(workload, seed, 0, False, spec, deadline),
                  run_pass(workload, seed, 0, True, spec, deadline)]
    else:
        # The median set-up time shrugs off the first child of a fresh
        # checkout, which also writes the bytecode caches.
        setup_samples = [spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        # Another pass starts only if it should end within --seconds, judged
        # by the longest pass so far; the first pass always runs.
        passes, longest = [], 0.0
        start = time.monotonic()
        while not passes or time.monotonic() - start + longest <= seconds:
            t0 = time.monotonic()
            passes.append(run_pass(workload, seed, len(passes), False, spec, deadline))
            longest = max(longest, time.monotonic() - t0)
    setup_samples += [{k: p[k] for k in ("setup_s", "setup_norm_s")} for p in passes]

    attempted = failed = 0
    for p in passes:
        a, f = check(p["outputs"], tiny)
        p["attempted"], p["failed"] = a, f
        attempted += a
        failed += f
    correct = failed == 0
    if trace and workload == "verify-all":
        # The traced report must match the untraced one except for timing.
        untraced, traced = ({k: v for k, v in p["outputs"]["report"].items()
                             if k != "elapsed_ms"} for p in passes)
        correct = correct and untraced == traced

    metrics = (layer_metrics(*passes) if trace
               else end_to_end_metrics(passes, setup_samples))
    for p in passes:
        p.pop("trace", None)
    report = {"workload": workload, "tiny": tiny, "trace": trace,
              "env": environment(seed, passes[0]["versions"]),
              "fail_ratio": failed / attempted, "setup_samples": setup_samples,
              "passes": passes}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so that the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "cfl" / "__init__.py").is_file():
        print(f"error: no cfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.tiny)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
