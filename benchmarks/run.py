"""hyplam benchmark: run one workload, check every output, print every metric.

    python3 benchmarks/run.py --workload bounds-stream --seed 1 --seconds 15 --trace 0

Workloads: registry, bounds-stream, sweep-export, or ``all`` (each in turn,
in its own child process). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the workload's operations under the span
tracer and reports the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
record (environment, workload-specific metrics, failures by known defect) is
written to benchmarks/out/, and a traced run also writes its spans there.

Run it from the root of a source checkout; it imports ``hyplam`` from
``src/`` and exits with status 2 if there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import NOMINAL_PROBE_S, HostSpeed  # noqa: E402
from tracer import LAYERS, TIMED  # noqa: E402

SETUP_REPEATS = 3

# name -> (unit, better, bound); every workload reports every one of them
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ok_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

SWEEPS = (
    "arc-orthogonality", "crossratio-distance", "crossratio-invariance", "isometry", "midpoint",
    "chord-midpoint-circle", "symmetric-geodesic-distance", "fc-decreasing", "fc-product-unimodal",
    "gc-sum-range", "h1-h-shape", "gle2-monotonicity", "slope-ratio-decreasing", "hp-range",
    "gpq-monotonicity", "arth-mean-extremum", "arth-convexity-region", "hyperbolic-mean-bound",
    "mu-identities", "distortion-bracket", "product-sharpness", "sum-cases", "thsq-identity",
    "beardon-identity", "lambert-oracle-agreement", "ideal-extrema", "ideal-subdivision",
    "qc-ml-exceeds-one", "qc-branch-continuity", "qc-k1-reduction", "qc-k-monotonicity", "qc-domination",
)  # fmt: skip


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better). A layer a workload does not exercise reads 0."""
    m = {}
    for fn in TIMED["specfun"]:
        m[f"specfun.{fn}.p50_us"] = ("us", "lower")
        if fn in ("mu_inverse", "distortion_A"):
            m[f"specfun.{fn}.p99_us"] = ("us", "lower")
    for fn in TIMED["specfun"]:
        m[f"specfun.{fn}.calls"] = ("count", "lower")
    for fn in TIMED["geometry"]:
        unit = "ms" if fn == "geodesic_distance" else "us"
        m[f"geometry.{fn}.p50_{unit}"] = (unit, "lower")
    for fn in TIMED["geometry"]:
        m[f"geometry.{fn}.calls"] = ("count", "lower")
    for fn in TIMED["lambert"]:
        m[f"lambert.{fn}.p50_us"] = ("us", "lower")
    for fn in TIMED["qcbounds"]:
        m[f"qcbounds.{fn}.p50_us"] = ("us", "lower")
        m[f"qcbounds.{fn}.p99_us"] = ("us", "lower")
    m["optimize.golden_min.calls"] = ("count", "lower")
    m["optimize.bisect_root.calls"] = ("count", "lower")
    for profile in ("fast", "thorough"):
        for sweep in SWEEPS:
            m[f"verify.{profile}.{sweep}.s"] = ("s", "lower")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ("s", "lower")
    m["cli.interp_floor_ms"] = ("ms", "lower")
    m["cli.import_hyplam_ms"] = ("ms", "lower")
    for sub in ("lambert", "ideal", "qc-bound", "specfun"):
        m[f"cli.main.{sub}.p50_us"] = ("us", "lower")
    for target in ("product", "sum", "ideal", "mu"):
        m[f"cli.sweep.{target}.rows_per_s"] = ("1/s", "higher")
    m["trace.overhead_s"] = ("s", "lower")
    return m


PER_LAYER = _per_layer()

# ---------------------------------------------------------------------------
# set-up and environment probes

_SETUP_CHILD = """
import json, sys, time
t0, c0 = time.perf_counter(), time.process_time()
import hyplam
t1, c1 = time.perf_counter(), time.process_time()
sys.path.insert(0, {here!r})
import inputs
{generate}
print(json.dumps({{"t0": t0, "t_end": time.perf_counter(), "import_s": t1 - t0, "import_cpu_s": c1 - c0}}))
"""


def _cpu_children() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def _child_json(ctx: wl.Context, code: str) -> dict:
    """The child's printed JSON, plus its CPU time (all threads) as cpu_s."""
    cpu0 = _cpu_children()
    with ctx.speed.paused():
        p = subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.root, env=ctx.child_env(), capture_output=True, text=True, timeout=120
        )
    cpu_s = _cpu_children() - cpu0
    if p.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{p.stderr}")
    return {**json.loads(p.stdout.strip().splitlines()[-1]), "cpu_s": cpu_s}


def setup_probe(ctx: wl.Context, workload: str) -> list[dict]:
    """Fresh interpreters that import hyplam and generate the workload's
    inputs. The median discounts a first one that compiles the bytecode.
    setup_s is their CPU time: over two sets of ten runs, the children's
    import wall time rose by a third in the second set while their CPU time
    stayed within 8% (they were waiting for a processor, not working)."""
    generate = wl.SETUP_INPUTS[workload].format(seed=ctx.seed)
    code = _SETUP_CHILD.format(here=HERE, generate=generate)
    return [_child_json(ctx, code) for _ in range(1 if ctx.tiny else SETUP_REPEATS)]


def interp_floor_ms(ctx: wl.Context) -> float:
    """Median wall time of a fresh interpreter that imports numpy only."""
    times = []
    for _ in range(SETUP_REPEATS):
        with ctx.speed.paused():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=ctx.root, check=True, timeout=60)
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(seed: int, load_at_start, setups: list[dict]) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "loadavg_at_start": list(load_at_start),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        # a cold import can use more CPU than wall time (BLAS threads)
        "cold_import_wall_s": [s["import_s"] for s in setups],
        "cold_import_cpu_s": [s["import_cpu_s"] for s in setups],
    }


# ---------------------------------------------------------------------------
# metrics

# workload-specific names: name -> (end-to-end metric, scale, unit); the
# registry's two are the times of its two operations
NAMED = {
    "registry": {},
    "bounds-stream": {
        "bounds_ok_per_s": ("ok_per_s", 1.0, "1/s"),
        "bounds_req_p50_us": ("op_p50_ms", 1e3, "us"),
        "bounds_req_p90_us": ("op_tail_ms", 1e3, "us"),
    },
    "sweep-export": {"sweep_rows_per_s": ("ok_per_s", 1.0, "1/s")},
}


def end_to_end(res: wl.Result, setups: list[dict], speed: HostSpeed | None) -> dict[str, float]:
    """The end-to-end metrics, in nominal seconds, or in wall seconds when
    ``speed`` is None; setup_s is CPU seconds, or wall seconds."""
    wall = speed is None
    lat = wl.latency_summary(res.ops, wall=wall)
    busy = sum(op.wall_seconds if wall else op.seconds for op in res.ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = [s["t_end"] - s["t0"] if wall else s["cpu_s"] for s in setups]
    return {
        "setup_s": statistics.median(setup),
        "ok_per_s": sum(op.units for op in res.ops if op.ok) / busy,
        "op_p50_ms": lat["p50"] * 1e3,
        "op_tail_ms": lat["tail"] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(res: wl.Result, setups: list[dict], floor_ms: float, speed: HostSpeed) -> dict[str, float]:
    """Per-layer metrics. Per-call figures come from the traced pass, in wall
    time; registry sweep times and sweep row rates are nominal, like the
    end-to-end metrics."""
    out = {name: 0.0 for name in PER_LAYER}
    tr = res.tracer
    if tr is not None:
        for name in PER_LAYER:
            parts = name.split(".")
            if len(parts) != 3 or parts[0] not in TIMED:
                continue
            n, durs = tr.fn_stats(f"{parts[0]}.{parts[1]}")
            stat = parts[2]
            if stat == "calls":
                out[name] = float(n)
            elif len(durs):
                pct = float(stat[1:3])
                scale = 1e-6 if stat.endswith("_ms") else 1e-3
                out[name] = float(np.percentile(durs, pct)) * scale
        for layer, sec in tr.self_seconds().items():
            if layer in LAYERS:
                out[f"{layer}.self_s"] = sec
    for name, value in res.layer.items():
        if name in out:
            out[name] = float(value)
    for name, (t0, t1) in res.layer_intervals.items():
        if name in out:
            out[name] = speed.seconds(t0, t1)
    for target in ("product", "sum", "ideal", "mu"):
        mine = [op for op in res.ops if target in op.parts]
        if mine:
            rows = sum(op.units // len(op.parts) for op in mine)
            out[f"cli.sweep.{target}.rows_per_s"] = rows / sum(speed.seconds(*op.parts[target]) for op in mine)
    out["cli.interp_floor_ms"] = floor_ms
    out["cli.import_hyplam_ms"] = statistics.median(s["import_s"] for s in setups) * 1e3
    out["trace.overhead_s"] = res.overhead_s
    return out


def profile_accounting(res: wl.Result) -> dict:
    """registry: per profile, layer self times from the traced pass against
    the untraced wall (fast profile only); the residual is the tracing
    overhead."""
    tr = res.tracer
    a = tr.arrays()
    out = {}
    names = tr.names
    for i in np.flatnonzero(a["parent"] < 0):
        name = names[a["name"][i]]
        if not name.startswith("profile."):
            continue
        profile = name.split(".", 1)[1]
        selfs = tr.self_seconds(window=(int(a["start_ns"][i]), int(a["end_ns"][i])))
        total = sum(selfs.values())
        untraced = res.profiles[profile]["untraced_s"]
        out[profile] = {
            "self_s": selfs,
            "sum_self_s": total,
            "untraced_wall_s": untraced,
            "traced_wall_s": res.profiles[profile]["traced_s"],
            "sum_self_minus_untraced_s": None if untraced is None else total - untraced,
        }
    return out


def failure_summary(ops: list[wl.Op]) -> dict:
    """Failure counts by cause and by known defect; unexplained failures keep
    up to three example inputs each."""
    causes, defects, unexplained = Counter(), Counter(), {}
    for op in ops:
        for stage, cause, defect, where in op.failures:
            causes[f"{stage}:{cause}"] += 1
            if defect is None:
                examples = unexplained.setdefault(f"{stage}:{cause}", [])
                if len(examples) < 3:
                    examples.append(where)
        for defect in {f[2] for f in op.failures} - {None}:
            defects[defect] += 1
    return {
        "causes": dict(causes),
        "ops_by_known_defect": dict(defects),
        "known_defects": {name: checks.KNOWN_DEFECTS[name] for name in defects},
        "unexplained": unexplained,
    }


# ---------------------------------------------------------------------------
# entry points


def _print_table(title: str, values: dict, units: dict):
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:<48s} {value:>16.6g} {units[name]}")


def run_one(args) -> int:
    src_init = os.path.join(ROOT, "src", "hyplam", "__init__.py")
    if not os.path.isfile(src_init):
        print(f"error: no hyplam sources at {os.path.dirname(src_init)}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    load = os.getloadavg()
    ctx = wl.Context(ROOT, args.seed, float(args.seconds), bool(args.trace), args.tiny)
    import hyplam

    if os.path.dirname(os.path.abspath(hyplam.__file__)) != os.path.dirname(src_init):
        print(f"error: imported hyplam from {hyplam.__file__}, not from this checkout", file=sys.stderr)
        return 2
    with HostSpeed() as speed:
        ctx.speed = speed
        setups = setup_probe(ctx, args.workload)
        floor_ms = interp_floor_ms(ctx) if ctx.trace else 0.0
        res = wl.WORKLOADS[args.workload](ctx)
    for op in res.ops:
        op.settle(speed)

    attempted = len(res.ops)
    failed = sum(not op.ok for op in res.ops)
    failures = failure_summary(res.ops)
    edge = failure_summary(res.edge)
    edge_failed = sum(not op.ok for op in res.edge)
    correct = not failures["unexplained"] and not edge["unexplained"]
    e2e = end_to_end(res, setups, speed)
    named = {k: (e2e[src] * scale, unit) for k, (src, scale, unit) in NAMED[args.workload].items()}
    if args.workload == "registry":
        named["verify_fast_s"] = (res.ops[0].seconds, "s")
        if not ctx.trace:
            named["verify_thorough_s"] = (res.ops[1].seconds, "s")
    named["failed_ratio"] = (failed / attempted, "ratio")
    if res.edge:
        named["edge_failed_ratio"] = (edge_failed / len(res.edge), "ratio")
    named["setup_s"] = (e2e["setup_s"], "s")
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    lat = wl.latency_summary(res.ops)

    print(f"hyplam benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"  attempted={attempted}  failed={failed}  correct={correct}")
    print(f"  op latency: n={lat['n']}  tail is p{lat['tail_pct']:.1f}")
    for defect, count in failures["ops_by_known_defect"].items():
        print(f"  known defect {defect}: {count} ops")
    for cause, examples in failures["unexplained"].items():
        print(f"  UNEXPLAINED failure {cause}: {failures['causes'][cause]} times, e.g. {examples[0]}")
    if res.edge:
        print(f"  edge probe (untimed): attempted={len(res.edge)}  failed={edge_failed}")
        for defect, count in edge["ops_by_known_defect"].items():
            print(f"    known defect {defect}: {count} requests")
        for cause, examples in edge["unexplained"].items():
            print(f"    UNEXPLAINED failure {cause}: {edge['causes'][cause]} times, e.g. {examples[0]}")
    _print_table("workload metrics", {k: v for k, (v, _) in named.items()}, {k: u for k, (_, u) in named.items()})
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed, load, setups),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "edge_probe": {"attempted": len(res.edge), "failed": edge_failed, "failures": edge},
        "latency": {"n": lat["n"], "tail_pct": lat["tail_pct"]},
        "host_speed": {"probes": speed.samples(), "nominal_probe_s": NOMINAL_PROBE_S},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "end_to_end_wall": end_to_end(res, setups, None),
    }
    if ctx.trace:
        values = per_layer(res, setups, floor_ms, speed)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        if args.workload == "registry":
            record["profile_accounting"] = profile_accounting(res)
    else:
        values = e2e
        units = {k: u for k, (u, _, _) in END_TO_END.items()}
    _print_table("per-layer metrics" if ctx.trace else "end-to-end metrics", values, units)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    out_dir = os.path.join(ROOT, "benchmarks", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if res.tracer is not None:
        # one spans file per workload, so repeated traced runs do not pile up
        res.tracer.dump(os.path.join(out_dir, f"{args.workload}.spans.npz"))
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"  record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own child process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(p.stdout.splitlines(keepends=True)[:-1]))
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            return p.returncode
        last = json.loads(p.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run; registry always runs its fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
