"""In-memory span tracing of calls into the layers of ``hyplam``.

The tracer wraps the public functions of each layer module from outside and
rebinds every name under which ``hyplam`` modules (and the package) refer to
them; nothing under ``src/`` is edited, and ``restore()`` puts the originals
back. A call from one layer into another (or from the benchmark into a layer)
records a span: name, start, end, parent span and the id of the request,
sweep or CLI call it belongs to. A call within one layer records no span: it
only adds to the counters of the functions listed in ``TIMED``. So the spans
stay few enough to keep in memory, and a layer's self time is still exact:
its span durations minus the parts covered by child spans.

Time spent in a callback that a layer passes to ``optimize`` (a lambda that
calls no public function) counts as ``optimize`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("specfun", "geometry", "lambert", "qcbounds", "optimize", "verify", "cli")
BENCH = "bench"  # spans opened by the benchmark itself
#: functions whose every call is counted and timed; a call of any other
#: public function inside its own layer passes straight through
TIMED = {
    "specfun": ("grotzsch_mu", "mu_inverse", "phi_K", "distortion_A", "big_C_of_p"),
    "geometry": ("rho_disk", "moebius_call", "geodesic_through", "absolute_ratio", "geodesic_distance"),
    "lambert": ("lambert_from", "product_report", "sum_bounds", "alpha_from_quadruple"),
    "qcbounds": ("qc_product_bound", "qc_ideal_bound"),
    "optimize": ("golden_min", "bisect_root"),
}
_TIMED_KEYS = {f"{layer}.{fn}" for layer, fns in TIMED.items() for fn in fns}
# per-function duration samples kept for percentiles; the count is exact
SAMPLE_CAP = 200_000

_now = time.perf_counter_ns


class _FnStats:
    __slots__ = ("n", "durs")

    def __init__(self):
        self.n = 0
        self.durs = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.fn: dict[str, _FnStats] = {}
        self._stack: list[tuple[int, str]] = [(-1, BENCH)]
        self.request = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name(self, key: str, layer: str) -> int:
        idx = self._name_idx.get(key)
        if idx is None:
            idx = self._name_idx[key] = len(self.names)
            self.names.append(key)
            self.name_layer.append(layer)
        return idx

    def _open(self, name_idx: int, layer: str) -> int:
        idx = len(self.start)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1][0])
        self.req.append(self.request)
        self.end.append(0)
        self.start.append(_now())
        self._stack.append((idx, layer))
        return idx

    def _close(self, idx: int) -> int:
        t1 = _now()
        self.end[idx] = t1
        self._stack.pop()
        return t1 - self.start[idx]

    @contextmanager
    def root(self, key: str, request: int):
        """A benchmark-level span; everything inside carries ``request``."""
        self.request = request
        idx = self._open(self._name(key, BENCH), BENCH)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, new_request: bool = False):
        stats = self.fn.setdefault(key, _FnStats())
        name_idx = self._name(key, layer)
        tracer = self
        timed = key in _TIMED_KEYS

        def traced(*args, **kwargs):
            if tracer._stack[-1][1] == layer:
                if not timed:
                    return fn(*args, **kwargs)
                stats.n += 1
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if stats.n <= SAMPLE_CAP:
                        stats.durs.append(_now() - t0)
            stats.n += 1
            if new_request:
                tracer.request += 1
            idx = tracer._open(name_idx, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                d = tracer._close(idx)
                if stats.n <= SAMPLE_CAP:
                    stats.durs.append(d)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        modules = {layer: importlib.import_module(f"hyplam.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._wrap(obj, key, layer, new_request=key == "verify.run_sweep"))
        owners = [m for name, m in list(sys.modules.items()) if name == "hyplam" or name.startswith("hyplam.")]
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        moebius = modules["geometry"].MoebiusMap
        self._set(moebius, "__call__", self._wrap(moebius.__call__, "geometry.moebius_call", "geometry"))
        self._set(
            moebius,
            "disk_automorphism",
            staticmethod(self._wrap(moebius.disk_automorphism, "geometry.disk_automorphism", "geometry")),
        )

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.req, dtype=np.int32),
        }

    def self_seconds(self, window: tuple[int, int] | None = None) -> dict[str, float]:
        """Self time per layer (and ``bench``), from the spans alone; with a
        window, only spans that start inside [t0, t1] count."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        keep = np.ones(len(dur), dtype=bool)
        if window is not None:
            keep = (a["start_ns"] >= window[0]) & (a["start_ns"] <= window[1])
        layer_of = np.array(self.name_layer + [BENCH])[a["name"]] if len(dur) else np.array([], dtype=str)
        out = {}
        for layer in (*LAYERS, BENCH):
            out[layer] = float(own[keep & (layer_of == layer)].sum()) * 1e-9
        return out

    def fn_stats(self, key: str) -> tuple[int, np.ndarray]:
        st = self.fn.get(key)
        if st is None:
            return 0, np.zeros(0)
        return st.n, np.frombuffer(st.durs, dtype=np.int64).astype(np.float64)

    def dump(self, path: str):
        """Write the spans and the span-name table as one .npz file."""
        np.savez(path, names=np.array(self.names), name_layer=np.array(self.name_layer), **self.arrays())
