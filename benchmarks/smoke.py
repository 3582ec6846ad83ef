"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 benchmarks/smoke.py

It asserts that every workload emits every metric that BENCHMARK.json names,
with its unit; that operation counts are nonzero; that each workload reaches
the layers it exists for; that no timed operation fails; that bounds-stream's
edge probe reaches the known defects; and that a mutated closed form is
caught. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3

#: per-layer counters that must be nonzero on each workload's traced run
MUST_REACH = {
    "registry": ("specfun.grotzsch_mu.calls", "geometry.rho_disk.calls", "optimize.golden_min.calls", "verify.self_s"),
    "bounds-stream": ("specfun.distortion_A.calls", "geometry.rho_disk.calls", "qcbounds.self_s", "lambert.self_s"),
    "sweep-export": ("cli.sweep.mu.rows_per_s", "specfun.grotzsch_mu.calls", "cli.self_s", "cli.main.qc-bound.p50_us"),
}
#: workload-specific metrics of the record, with their units
NAMED = {
    "registry": {"verify_fast_s": "s", "verify_thorough_s": "s"},
    "bounds-stream": {
        "bounds_ok_per_s": "1/s",
        "bounds_req_p50_us": "us",
        "bounds_req_p90_us": "us",
        "edge_failed_ratio": "ratio",
    },
    "sweep-export": {"sweep_rows_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "failed_ratio": "ratio", "peak_rss_mb": "MB"}


def check(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def run_workload(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(p.returncode == 0, f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return last, json.load(fh)


def check_spec(spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(wl.WORKLOADS), f"BENCHMARK.json workloads {names}")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_workload(workload: str, spec: dict):
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        last, record = run_workload(workload, trace)
        check(set(last) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(last["correct"] is True, f"{workload}: unexplained failures {record['failures']['unexplained']}")
        check(last["attempted"] >= 1, f"{workload}: no operations")
        check(last["failed"] == 0, f"{workload}: timed operations failed: {record['failures']['causes']}")
        if workload == "bounds-stream":
            check(record["edge_probe"]["failed"] > 0, "bounds-stream: the edge probe reached no known defect")
        metrics = last["metrics"]
        check(set(metrics) == {m["name"] for m in listed}, f"{workload} trace={trace}: metric names")
        for m in listed:
            got = metrics[m["name"]]
            check(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}")
            check(math.isfinite(got["value"]), f"{m['name']}: {got['value']}")
            if trace == 0:
                check(got["value"] > 0, f"{workload}: {m['name']} is {got['value']}")
        if trace == 1:
            for name in MUST_REACH[workload]:
                check(metrics[name]["value"] > 0, f"{workload}: {name} is zero")
        named = record["workload_metrics"]
        expected = {**NAMED[workload], **COMMON}
        if trace == 1:  # a traced registry run does not repeat the thorough profile untraced
            expected.pop("verify_thorough_s", None)
        for name, unit in expected.items():
            check(named.get(name, {}).get("unit") == unit, f"{workload}: {name} missing or wrong unit")
    print(f"ok  {workload}")


def check_mutation():
    """A product_bound scaled by (1 + 1e-6) must raise bounds-stream's failures."""
    from hyplam import lambert

    ctx = wl.Context(ROOT, SEED, 1.0, False, True)  # no HostSpeed: only failures count here
    base = wl.bounds_stream(ctx)
    original = lambert.product_bound
    lambert.product_bound = lambda L: original(L) * (1.0 + 1e-6)
    try:
        mutated = wl.bounds_stream(ctx)
    finally:
        lambert.product_bound = original

    def ratio(res):
        return sum(not op.ok for op in res.ops) / len(res.ops)

    check(ratio(mutated) > ratio(base), f"mutation not caught: {ratio(mutated)} <= {ratio(base)}")
    unexplained = sum(any(f[2] is None for f in op.failures) for op in mutated.ops)
    check(unexplained > 0, "mutation explained away as a known defect")
    print(f"ok  mutation: failed_ratio {ratio(base):.3f} -> {ratio(mutated):.3f}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    for workload in wl.WORKLOADS:
        check_workload(workload, spec)
    check_mutation()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
