"""The three workloads. Each is a closed loop with one client in one
process: the next operation starts only after the previous one has finished,
and no workload runs more than one child process at a time.

An operation's time covers only the calls into the program; its outputs are
checked afterwards, outside the timed region. A traced run first runs the
workload untraced for half the time, then repeats exactly the same operations
with the tracer installed, so the difference of the two walls is the tracing
overhead.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs
from hostspeed import HostSpeed
from tracer import Tracer

_clock = time.perf_counter

REGISTRY_TINY_GRID = 100  # product-sharpness needs a grid of at least ~100
SWEEP_GRID = 5_000  # rows per target; an operation writes all four targets
SWEEP_TINY_GRID = 200
EDGE_PROBE = 64  # untimed requests into the known-defect regions, per run
WARM_UP = 8  # untimed requests (bounds-stream) before timing starts
CLI_CALLS = 16  # report subcommands timed in process by sweep-export's traced run
# vertex pairs of a Lambert quadrilateral (v_a, v_b, v_c, v_d) whose
# distances are compared before and after the disk automorphism
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 3))


@dataclass
class Context:
    root: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    speed: HostSpeed | None = None  # paused while a set-up child runs

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        return env


@dataclass
class Op:
    """One operation: the wall interval (perf_counter) of its timed region,
    or of each of its timed parts, its failures (see ``_failures``), and the
    work units it completed correctly. ``settle`` sets ``seconds``, the timed
    time in nominal seconds."""

    interval: tuple[float, float]
    failures: list = field(default_factory=list)
    units: int = 1
    parts: dict = field(default_factory=dict)  # sweep-export: target -> wall interval
    seconds: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.failures

    def timed(self):
        return self.parts.values() if self.parts else [self.interval]

    @property
    def wall_seconds(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.timed())

    def settle(self, speed: HostSpeed):
        self.seconds = sum(speed.seconds(*iv) for iv in self.timed())


@dataclass
class Result:
    ops: list[Op]
    layer: dict = field(default_factory=dict)  # per-layer values measured directly
    layer_intervals: dict = field(default_factory=dict)  # per-layer wall intervals, like Op.interval
    tracer: Tracer | None = None
    overhead_s: float = 0.0
    profiles: dict | None = None  # registry: untraced and traced wall per profile
    edge: list[Op] = field(default_factory=list)  # bounds-stream: the untimed edge probe


def _failures(stage_causes, K=math.nan, L=math.nan, theta=math.nan) -> list:
    """(stage, cause, known defect or None, inputs) for each failure."""
    where = f"K={K!r} L={L!r} theta={theta!r}"
    return [(s, c, checks.explain(s, c, K, L, theta), where) for s, c in stage_causes]


def _loop(step, seconds: float | None = None, count: int | None = None) -> tuple[list[Op], float]:
    """Run ``step(i)`` for ``seconds`` (at least once) or exactly ``count`` times."""
    ops = []
    t0 = _clock()
    deadline = t0 + (seconds or 0.0)
    while (len(ops) < count) if count is not None else (not ops or _clock() < deadline):
        ops.append(step(len(ops)))
    return ops, _clock() - t0


def _untraced_then_traced(ctx: Context, step, root_name: str):
    """Untraced ops for the run (half of it when tracing), then, when tracing,
    the same ops again under the tracer. Returns (ops, tracer, overhead_s)."""
    if not ctx.trace:
        ops, _ = _loop(step, seconds=ctx.seconds)
        return ops, None, 0.0
    ops, wall_u = _loop(step, seconds=ctx.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:

        def traced(i):
            with tracer.root(root_name, i + 1):
                return step(i)

        _, wall_t = _loop(traced, count=len(ops))
    finally:
        tracer.restore()
    return ops, tracer, wall_t - wall_u


# ---------------------------------------------------------------------------
# registry


def registry(ctx: Context) -> Result:
    """``verify.run_all("fast")`` then ``run_all("thorough")``, in process.

    The operations are the two profile runs. With two operations no
    percentile above the median has ten beyond it, so ``op_p50_ms`` and
    ``op_tail_ms`` are both the fast profile's time. (The times of single
    sweeps near the median of all 64 moved by ~15% from seed to seed, the
    profiles' by a few percent.)

    A traced run runs the fast profile untraced, then both profiles traced:
    the thorough profile twice would take it past three minutes. So its
    ``trace.overhead_s`` is the fast profile's, and its thorough sweep times
    are taken under tracing.
    """
    os.environ["HYPLAM_SEED"] = str(ctx.seed)
    from hyplam import verify

    def run_profile(profile, tracer=None):
        """(interval, certificates, {sweep: interval}) of one profile run."""
        original = verify.run_sweep
        times = []

        def timed(spec):
            t0 = _clock()
            try:
                return original(spec)
            finally:
                times.append((t0, _clock()))

        verify.run_sweep = timed
        try:
            with tracer.root(f"profile.{profile}", 0) if tracer else nullcontext():
                t0 = _clock()
                if ctx.tiny:
                    grid = REGISTRY_TINY_GRID * (1 if profile == "fast" else 2)
                    certs = [
                        verify.run_sweep(verify.SweepSpec(e.target, grid, dict(e.params), e.tolerance))
                        for e in verify.REGISTRY
                    ]
                else:
                    certs = verify.run_all(profile)
                t1 = _clock()
        finally:
            verify.run_sweep = original
        return (t0, t1), certs, {c.spec.target: span for c, span in zip(certs, times)}

    res = Result([])
    for profile in ("fast",) if ctx.trace else ("fast", "thorough"):
        span, certs, sweeps = run_profile(profile)
        bad = [("verify", f"{profile}:{c.spec.target}", None, "") for c in certs if not c.passed]
        if len(certs) != len(verify.REGISTRY):
            bad.append(("verify", f"{profile}:certificate-count", None, ""))
        res.ops.append(Op(span, bad, 0 if bad else len(certs)))
        for target, sweep_span in sweeps.items():
            res.layer_intervals[f"verify.{profile}.{target}.s"] = sweep_span
    if ctx.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = {p: run_profile(p, tracer) for p in ("fast", "thorough")}
        finally:
            tracer.restore()
        for target, sweep_span in traced["thorough"][2].items():
            res.layer_intervals[f"verify.thorough.{target}.s"] = sweep_span
        untraced = {"fast": res.ops[0].wall_seconds, "thorough": None}
        res.tracer = tracer
        res.profiles = {p: {"untraced_s": untraced[p], "traced_s": t1 - t0} for p, ((t0, t1), _, _) in traced.items()}
        res.overhead_s = res.profiles["fast"]["traced_s"] - untraced["fast"]
    return res


# ---------------------------------------------------------------------------
# bounds-stream


def _bound_request(r: inputs.Request, ideal: tuple) -> Op:
    from hyplam import geometry as geo
    from hyplam import lambert as lam
    from hyplam import qcbounds as qcb
    from hyplam import specfun as spf

    bad = []
    q = A = qp = qi = a0 = a1 = None
    rhos = []
    t0 = _clock()
    try:
        q = lam.lambert_from(r.L, r.theta)
        prod = lam.product_report(r.L, r.theta)
        tot = lam.sum_bounds(r.L, r.theta)
    except Exception as exc:  # the request fails; the stream goes on
        q = None
        bad.append(("lambert", type(exc).__name__))
    try:
        m = geo.MoebiusMap.disk_automorphism(r.a, r.phase)
        if q is not None:
            v = q.vertices
            img = [m(p) for p in v]
            rhos = [(v[i], v[j], geo.rho_disk(v[i], v[j]), img[i], img[j], geo.rho_disk(img[i], img[j])) for i, j in PAIRS]
        try:
            a0 = lam.alpha_from_quadruple(*ideal)
            a1 = lam.alpha_from_quadruple(*[m(p) for p in ideal])
        except Exception as exc:
            bad.append(("ideal", type(exc).__name__))
    except Exception as exc:
        bad.append(("geometry", type(exc).__name__))
    try:
        A = spf.distortion_A(r.K)
    except Exception as exc:
        bad.append(("specfun", type(exc).__name__))
    try:
        qp = qcb.qc_product_bound(qcb.QcBoundInput(r.K, r.L)).bound
    except Exception as exc:
        bad.append(("qc_product", type(exc).__name__))
    try:
        qi = qcb.qc_ideal_bound(r.K)
    except Exception as exc:
        bad.append(("qc_ideal", type(exc).__name__))
    t1 = _clock()

    if q is not None:
        bad += [("lambert", c) for c in checks.lambert(r.L, r.theta, q.d1, q.d2, prod.to_dict(), tot.to_dict())]
        pairs = [(z.z, w.z, rz, mz.z, mw.z, rm) for z, w, rz, mz, mw, rm in rhos]
        bad += [("geometry", c) for c in checks.isometry(pairs)]
    if a1 is not None:
        bad += [("ideal", c) for c in checks.alpha(r.theta, a0, a1)]
    if A is not None:
        bad += [("specfun", c) for c in checks.bracket(r.K, A)]
    if qp is not None:
        bad += [("qc_product", c) for c in checks.qc_product(r.K, r.L, qp)]
    if qi is not None:
        bad += [("qc_ideal", c) for c in checks.qc_ideal(r.K, qi)]
    return Op((t0, t1), _failures(bad, r.K, r.L, r.theta))


def bounds_stream(ctx: Context) -> Result:
    """A seeded stream of bound-report requests, one (K, L, theta) each,
    then, untimed and untraced, the edge probe: requests into the regions of
    the known defects, whose failures are recorded apart from the stream's."""
    reqs = inputs.requests(ctx.seed, 200 if ctx.tiny else inputs.POOL)
    ideals = [inputs.ideal_vertices(r.theta) for r in reqs]

    def step(i):
        k = i % len(reqs)
        return _bound_request(reqs[k], ideals[k])

    for k in range(len(reqs) - WARM_UP, len(reqs)):  # the first calls pay one-off costs
        _bound_request(reqs[k], ideals[k])
    ops, tracer, overhead = _untraced_then_traced(ctx, step, "request")
    edge = [_bound_request(r, inputs.ideal_vertices(r.theta)) for r in inputs.edge_requests(ctx.seed, EDGE_PROBE)]
    return Result(ops, tracer=tracer, overhead_s=overhead, edge=edge)


# ---------------------------------------------------------------------------
# sweep-export


def _cli_subcommands(calls, res: Result):
    """Seeded report subcommands through ``cli.main`` in this process, for
    the per-subcommand times of the ``cli`` layer (wall time)."""
    from hyplam import cli

    def call(args):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = _clock()
            try:
                cli.main(args)
            except Exception:  # only the time is wanted here
                pass
            return _clock() - t0

    per_sub: dict[str, list[float]] = {}
    for args, _ in calls:
        per_sub.setdefault(args[0], []).append(call(args))
    for sub, secs in per_sub.items():
        res.layer[f"cli.main.{sub}.p50_us"] = float(np.median(secs)) * 1e6


def sweep_export(ctx: Context) -> Result:
    """``cli.main(["sweep", ...])`` in process, writing CSV files into a
    temporary directory inside the checkout. One operation is one round: the
    four targets in turn, with the round's seeded L, so that operations are
    alike and their percentiles steady. The traced run also times the report
    subcommands through ``cli.main``."""
    from hyplam import cli

    grid = SWEEP_TINY_GRID if ctx.tiny else SWEEP_GRID
    rounds = inputs.sweep_rounds(ctx.seed)
    out_dir = os.path.join(ctx.root, "benchmarks", "out")
    os.makedirs(out_dir, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:

        def sweep(target, L):
            """(wall interval, failure causes) of one target's sweep."""
            path = os.path.join(tmp, f"{target}.csv")
            if os.path.exists(path):
                os.remove(path)
            argv = ["sweep", "--target", target, "--grid", str(grid), "--out", path]
            if target in ("product", "sum"):
                argv += ["--L", repr(L)]
            bad = []
            with redirect_stdout(io.StringIO()):
                t0 = _clock()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # the sweep fails; the loop goes on
                    rc = None
                    bad.append(type(exc).__name__)
                t1 = _clock()
            if rc is not None and rc != 0:
                bad.append(f"exit{rc}")
            if not bad:
                bad = checks.sweep_csv(target, L, grid, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
            # sum_bounds fixes the sum target's range, so it carries lambert's defects
            stage = "lambert" if target == "sum" else f"sweep-{target}"
            return (t0, t1), [(stage, c) for c in bad]

        def step(i):
            L = rounds[i % len(rounds)]
            parts, bad = {}, []
            for target in inputs.SWEEP_TARGETS:
                parts[target], causes = sweep(target, L)
                bad += causes
            # timed are the four sweeps, not the CSV checks between them
            first, last = parts[inputs.SWEEP_TARGETS[0]], parts[inputs.SWEEP_TARGETS[-1]]
            return Op((first[0], last[1]), _failures(bad, L=L), 0 if bad else grid * len(parts), parts)

        step(0)  # warm-up: the first sweeps pay one-off costs

        ops, tracer, overhead = _untraced_then_traced(ctx, step, "sweep")
    res = Result(ops, tracer=tracer, overhead_s=overhead)
    if ctx.trace:
        _cli_subcommands(inputs.cli_calls(ctx.seed, CLI_CALLS), res)
    return res


# ---------------------------------------------------------------------------
# latency summaries


def latency_summary(ops: list[Op], wall: bool = False) -> dict:
    """Median, p90 and tail of operation times (nominal, or wall with
    ``wall``), failed operations ranked as the slowest. The tail is the
    highest percentile from p50 to p90 that has at least ten operations
    beyond it, and p50 when none above the median has."""
    lat = np.sort(np.array([(op.wall_seconds if wall else op.seconds) if op.ok else math.inf for op in ops]))
    n = len(lat)

    def rank(pct):  # nearest rank
        return lat[max(0, math.ceil(pct / 100.0 * n) - 1)]

    tail_pct = min(90.0, max(50.0, 100.0 * (n - 10) / n))
    return {"n": n, "p50": rank(50.0), "p90": rank(90.0), "tail": rank(tail_pct), "tail_pct": tail_pct}


WORKLOADS = {
    "registry": registry,
    "bounds-stream": bounds_stream,
    "sweep-export": sweep_export,
}

#: what each workload's set-up child generates after ``import hyplam``
SETUP_INPUTS = {
    "registry": "pass",
    "bounds-stream": f"inputs.requests({{seed}}); inputs.edge_requests({{seed}}, {EDGE_PROBE})",
    "sweep-export": "inputs.sweep_rounds({seed})",
}
