"""Fast self-test of the benchmark, at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Checks, for every workload, that a run emits exactly the metrics listed in
BENCHMARK.json (end-to-end untraced, per-layer traced) with their units, that
the outputs check as correct, that every untraced pass and set-up sample was
probed for the speed correction, that the per-layer self times and the
benchmark's own time add up to the traced wall time, and that a deliberately
wrong expected rank drives ``fail_ratio`` above 0.
"""

import json
import sys

import run
from layertrace import LAYERS

SEED = 7


def fail(message):
    sys.exit(f"self-test failed: {message}")


def check_metrics(workload, trace, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, or units differ)")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{workload} trace={trace}: a metric value is not a number")


def check_probed(workload, report):
    if any(p["probes"] < 2 or p["wall_norm_s"] <= 0 for p in report["passes"]):
        fail(f"{workload}: an untraced pass was not probed")
    if any(s["setup_norm_s"] <= 0 for s in report["setup_samples"]):
        fail(f"{workload}: a set-up sample was not corrected")


def check_accounting(workload, metrics):
    value = {name: m["value"] for name, m in metrics.items()}
    parts = sum(value[f"{layer}.self_s"] for layer in LAYERS) + value["trace.bench_self_s"]
    if value["trace.bench_self_s"] < 0 or abs(parts - value["trace.traced_wall_s"]) > 1e-6:
        fail(f"{workload}: self times do not account for the traced wall time")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in run.CHECKS:
        for trace in (0, 1):
            report, result = run.run(workload, SEED, 0.5, bool(trace), tiny=True)
            check_metrics(workload, trace, result, declared[trace])
            if not result["correct"] or report["fail_ratio"] != 0:
                fail(f"{workload} trace={trace}: outputs did not check")
            if trace:
                check_accounting(workload, result["metrics"])
            else:
                check_probed(workload, report)
            print(f"ok  {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)

    expected = dict(run.RANK_QUERIES[True])
    query = next(iter(expected))
    expected[query] += 1
    report, result = run.run("rank-large", SEED, 0.5, False, tiny=True,
                             rank_expected=expected)
    if report["fail_ratio"] <= 0 or result["correct"]:
        fail("a wrong expected rank was not counted as a failure")
    print(f"ok  wrong expected rank for {'.'.join(map(str, query[:3]))}: "
          f"fail_ratio {report['fail_ratio']}")
    print("self-test passed")


if __name__ == "__main__":
    main()
