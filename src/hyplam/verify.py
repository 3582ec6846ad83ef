"""Brute-force verification sweeps.

Every bound, identity, monotonicity claim, and extremum location exposed by
the library has a registry entry here that re-checks it by dense sampling
plus golden-section refinement, completely independently of the closed
forms under test. Each sweep emits a Certificate.

Randomized targets draw from a Halton sequence scrambled with random digit
permutations (Owen 2017, "A randomized Halton algorithm in R",
arXiv:1706.02808) under a fixed seed (0x5EED, overridable through the
HYPLAM_SEED environment variable), so certificates are reproducible. The
sampler is plain numpy and reproduces the samples of scipy.stats.qmc.Halton
for the same seed bit for bit.

Each sweep is declared once, by the @claim decorator that adds it to
REGISTRY.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import lambert as lam
from . import qcbounds as qcb
from .errors import ConfigurationError
from .geometry import (
    MoebiusMap,
    absolute_ratio,
    geodesic_distance,
    geodesic_through,
    hyperbolic_midpoint,
    rho_disk,
    rho_halfplane,
    rho_via_crossratio,
)
from .optimize import golden_max, refine_grid_max, refine_grid_min
from .specfun import (
    SQRT2_2,
    arth,
    arth_complement,
    aux_slope_ratio,
    aux_g_le2,
    aux_g_pq,
    aux_h,
    aux_h1,
    aux_h_p,
    big_C_of_p,
    classify_convexity,
    ConvexityClass,
    distortion_A,
    distortion_bracket,
    g_range,
    grotzsch_mu,
    holder_mean,
    lemma_f_c,
    lemma_F_c,
    lemma_G_c,
    mu_inverse,
    phi_K,
    rprime,
    threshold_C,
)

DEFAULT_SEED = 0x5EED


def default_seed() -> int:
    raw = os.environ.get("HYPLAM_SEED")
    if raw is None:
        return DEFAULT_SEED
    return int(raw, 0)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep to run: the claim's name and the grid size.

    No sweep reads ``params`` or ``tolerance``; they stay for callers that
    build a spec from a RegistryEntry.
    """

    target: str
    grid_size: int
    params: dict = field(default_factory=dict)
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.grid_size < 2:
            raise ConfigurationError("grid_size must be >= 2")
        if not self.tolerance > 0.0:
            raise ConfigurationError("tolerance must be positive")

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "grid_size": self.grid_size,
            "params": dict(self.params),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class Certificate:
    spec: SweepSpec
    passed: bool
    observed_extremum: float
    witness: tuple
    margin: float
    runtime_ms: int

    def to_dict(self) -> dict:
        """Plain JSON types; a NaN or infinite number becomes None."""
        return {
            "spec": self.spec.to_dict(),
            "passed": self.passed,
            "observed_extremum": _finite_or_none(self.observed_extremum),
            "witness": [_finite_or_none(x) for x in self.witness],
            "margin": _finite_or_none(self.margin),
            "runtime_ms": self.runtime_ms,
        }


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


@dataclass(frozen=True)
class RegistryEntry:
    """One claim of the paper and the sweep that re-checks it.

    ``target``, ``params`` and ``tolerance`` are what a caller passes to
    SweepSpec; no sweep reads the last two.
    """

    name: str
    claim: str
    sweep: Callable[[SweepSpec, _Checker], None] = field(repr=False, compare=False)

    @property
    def target(self) -> str:
        return self.name

    @property
    def params(self) -> dict:
        return {}

    @property
    def tolerance(self) -> float:
        return SweepSpec.tolerance


_ENTRIES: list[RegistryEntry] = []


def claim(name: str, text: str):
    """Register the decorated sweep as the check of the claim `text`."""

    def register(sweep):
        _ENTRIES.append(RegistryEntry(name, text, sweep))
        return sweep

    return register


class _Checker:
    """Owns a certificate's facts: its margin, observed value and witness.

    A sub-check passes iff its signed deviation is at most its allowance, so
    a NaN deviation fails it. The margin is the smallest allowance -
    deviation, and NaN while no sub-check has run or once one gave NaN. So
    the certificate passes iff ``margin >= 0``: at least one sub-check ran
    and none failed.

    The observed value is the extremum the sweep hands to ``locate``, as it
    is, whatever sub-checks run after it; without one, it is the largest
    finite deviation of the sub-checks, or 0.0 if none is positive. The
    witness is the located one if non-empty, else that of the sub-check with
    the smallest slack.
    """

    def __init__(self):
        self.margin = math.nan
        self._witness: tuple = ()  # of the smallest-slack sub-check
        self._largest = 0.0
        self._located: tuple[float, tuple] | None = None
        self._ran = False

    def require(self, deviation: float, allowance: float, witness: tuple = ()):
        slack = allowance - deviation
        if not self._ran or slack < self.margin or math.isnan(slack):
            self.margin, self._witness = slack, witness
        if self._largest < deviation < math.inf:
            self._largest = deviation
        self._ran = True

    def require_true(self, ok: bool, witness: tuple = ()):
        """A yes/no sub-check: a pass leaves the margin as it is, and neither
        outcome becomes the observed value."""
        self.require(-math.inf if ok else math.inf, 0.0, witness)

    def locate(self, value: float, witness: tuple = ()):
        """Hand over the extremum the sweep located; a later call replaces it."""
        self._located = (value, witness)

    def observed(self) -> tuple[float, tuple]:
        """The certificate's observed value and witness."""
        value, witness = self._located or (self._largest, ())
        return value, witness or self._witness


# ---------------------------------------------------------------------------
# sampling helpers


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _halton(n: int, dim: int, seed: int) -> np.ndarray:
    """First n points of the scrambled Halton sequence in [0, 1)^dim.

    Digit j of the index in the base of dimension k goes through the j-th of
    that base's random permutations (Owen 2017, arXiv:1706.02808), one for
    each b^-j above 2^-54. The draws and the sum follow the order of
    ``scipy.stats.qmc.Halton(d=dim, scramble=True, seed=seed).random(n)``,
    whose samples this reproduces bit for bit, memory layout included.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((dim, n))
    for row, base in zip(out, _primes(dim)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        weight = 1.0 / base
        for perm in perms:
            if q.any():
                q, digit = np.divmod(q, base)
                row += perm[digit] * weight
            else:
                # every remaining digit is 0: the same sum without the gather
                row += perm[0] * weight
            weight /= base
    return out.T


def _disk_points(n: int, seed: int, rmax: float = 0.98) -> np.ndarray:
    u = _halton(n, 2, seed)
    radius = rmax * np.sqrt(u[:, 0])
    angle = 2.0 * math.pi * u[:, 1]
    return radius * np.exp(1j * angle)


# ---------------------------------------------------------------------------
# geometry targets


@claim("arc-orthogonality", "arc geodesics meet the unit circle at right angles")
def _t_arc_orthogonality(spec: SweepSpec, chk: _Checker):
    pts = _disk_points(2 * spec.grid_size, default_seed())
    for z1, z2 in zip(pts[::2], pts[1::2]):
        cross = z1.real * z2.imag - z1.imag * z2.real
        # near-collinear pairs give huge carrier circles where the
        # orthogonality residual is numerically meaningless
        if abs(z1 - z2) < 1e-6 or abs(cross) < 1e-3:
            continue
        g = geodesic_through(z1, z2)
        if g.radius == 0.0:
            continue
        scale = 1.0 + abs(g.center) ** 2
        dev = abs(abs(g.center) ** 2 - g.radius**2 - 1.0) / scale
        for e in g.endpoints:
            dev = max(dev, abs(abs(e.z) - 1.0), abs(abs(e.z - g.center) - g.radius))
        dev = max(dev, 0.0 if g.carrier_contains(complex(z1), tol=1e-9) else 1.0)
        chk.require(dev, 1e-9, (z1.real, z1.imag, z2.real, z2.imag))


@claim("crossratio-distance", "log cross-ratio with geodesic endpoints equals the disk metric")
def _t_crossratio_distance(spec: SweepSpec, chk: _Checker):
    pts = _disk_points(2 * spec.grid_size, default_seed() + 1)
    for z1, z2 in zip(pts[::2], pts[1::2]):
        if abs(z1 - z2) < 1e-9:
            continue
        dev = abs(rho_via_crossratio(z1, z2) - rho_disk(z1, z2))
        cross = z1.real * z2.imag - z1.imag * z2.real
        allowance = 1e-10 if abs(cross) >= 1e-3 else 1e-7
        chk.require(dev, allowance, (z1.real, z1.imag, z2.real, z2.imag))


@claim("crossratio-invariance", "the absolute ratio is Moebius invariant")
def _t_crossratio_invariance(spec: SweepSpec, chk: _Checker):
    n = spec.grid_size
    u = _halton(n, 12, default_seed() + 2)
    for row in u:
        quad = [complex(4 * a - 2, 4 * b - 2) for a, b in zip(row[0:8:2], row[1:8:2])]
        if min(abs(p - q) for i, p in enumerate(quad) for q in quad[i + 1 :]) < 1e-3:
            continue
        coeffs = [complex(2 * a - 1, 2 * b - 1) for a, b in zip(row[8::2], row[9::2])]
        a_m, b_m, c_m = 1.0 + coeffs[0], coeffs[1], 0.2 * coeffs[0].conjugate()
        if abs(a_m - b_m * c_m) < 1e-3:
            continue
        m = MoebiusMap(a_m, b_m, c_m, 1.0)
        before = absolute_ratio(*quad)
        after = absolute_ratio(*(m(z) for z in quad))
        dev = abs(after - before)
        chk.require(dev, 1e-9 * max(1.0, before), tuple(z.real for z in quad))


@claim("isometry", "disk automorphisms and the Cayley map preserve hyperbolic distance")
def _t_isometry(spec: SweepSpec, chk: _Checker):
    n_pairs = min(spec.grid_size, 1000)
    n_maps = min(max(spec.grid_size // 10, 10), 100)
    pts = _disk_points(2 * n_pairs, default_seed() + 3)
    mu = _halton(n_maps, 3, default_seed() + 4)
    maps = [
        MoebiusMap.disk_automorphism(
            0.95 * math.sqrt(a) * complex(math.cos(2 * math.pi * b), math.sin(2 * math.pi * b)),
            2 * math.pi * c,
        )
        for a, b, c in mu
    ]
    cay = MoebiusMap.cayley()
    for z1, z2 in zip(pts[::2], pts[1::2]):
        base = rho_disk(z1, z2)
        for m in maps:
            dev = abs(rho_disk(m(z1), m(z2)) - base)
            chk.require(dev, 1e-10, (z1.real, z1.imag, z2.real, z2.imag))
        dev = abs(rho_halfplane(cay(z1), cay(z2)) - base)
        chk.require(dev, 1e-10, (z1.real, z1.imag))


def _chord_samples(n: int, seed: int):
    """(alpha, s, b, a) for each of n Halton points: b = cos alpha + i s sin
    alpha on the chord between e^{+-i alpha}, and a the cut of the ray [0, b]
    with the geodesic between e^{+-i alpha}."""
    for ua, ub in _halton(n, 2, seed):
        alpha = 0.05 + 1.45 * ua
        s_chord = -0.95 + 1.9 * ub
        b = complex(math.cos(alpha), s_chord * math.sin(alpha))
        w = 1.0 / math.cos(alpha)  # carrier center (real), radius sqrt(w^2 - 1)
        beta = math.atan2(b.imag, b.real)
        # |u e^{i beta} - w| = r with w^2 - r^2 = 1
        disc = w * w * math.cos(beta) ** 2 - 1.0
        u = w * math.cos(beta) - math.sqrt(disc)
        yield alpha, s_chord, b, u * complex(math.cos(beta), math.sin(beta))


@claim("midpoint", "midpoint construction halves distances; chord cut is the midpoint of [0,b]")
def _t_midpoint(spec: SweepSpec, chk: _Checker):
    pts = _disk_points(2 * spec.grid_size, default_seed() + 5)
    for z1, z2 in zip(pts[::2], pts[1::2]):
        if abs(z1 - z2) < 1e-9:
            continue
        p = hyperbolic_midpoint(z1, z2)
        half = 0.5 * rho_disk(z1, z2)
        dev = max(abs(rho_disk(z1, p) - half), abs(rho_disk(p, z2) - half))
        chk.require(dev, 1e-10, (z1.real, z1.imag, z2.real, z2.imag))
    # chord construction: b on the chord [c, d], a = [0,b] cut with the
    # geodesic between c and d; then rho(0,b) = 2 rho(0,a)
    for alpha, s_chord, b, a in _chord_samples(min(spec.grid_size, 200), default_seed() + 6):
        chk.require(abs(rho_disk(0.0, b) - 2.0 * rho_disk(0.0, a)), 1e-10, (alpha, s_chord))


@claim("chord-midpoint-circle", "the Euclidean chord midpoint lies on the hyperbolic circle through 0 around the cut point")
def _t_chord_midpoint_circle(spec: SweepSpec, chk: _Checker):
    for alpha, s_chord, _, a in _chord_samples(min(spec.grid_size, 500), default_seed() + 7):
        s = complex(math.cos(alpha), 0.0)  # Euclidean midpoint of the chord
        dev = abs(rho_disk(s, a) - rho_disk(0.0, a))
        chk.require(dev, 1e-9, (alpha, s_chord))


def _symmetric_geodesics(alpha: float):
    """The two pairs of geodesics joining e^{+-i alpha} and -e^{-+i alpha}:
    the pair symmetric about the real axis, then the pair symmetric about
    the imaginary axis."""
    e_a = complex(math.cos(alpha), math.sin(alpha))
    return (
        (geodesic_through(e_a, e_a.conjugate()), geodesic_through(-e_a.conjugate(), -e_a)),
        (geodesic_through(e_a, -e_a.conjugate()), geodesic_through(-e_a, e_a.conjugate())),
    )


@claim("symmetric-geodesic-distance", "numerical geodesic distance matches closed forms for boundary-symmetric pairs")
def _t_symmetric_geodesic_distance(spec: SweepSpec, chk: _Checker):
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12):
        (g3, g4), (g1, g2) = _symmetric_geodesics(alpha)
        # pair symmetric about the real axis: distance 2 arth(cos alpha)
        chk.require(abs(geodesic_distance(g3, g4) - 2.0 * arth(math.cos(alpha))), 1e-8, (alpha, 1.0))
        # pair symmetric about the imaginary axis: distance 2 log((1+t)/(1-t))
        # with i t the cut of the first geodesic with the imaginary axis
        im_c = g1.center.imag
        t = im_c - math.sqrt(im_c * im_c - 1.0)
        dev = abs(geodesic_distance(g1, g2) - 2.0 * math.log((1.0 + t) / (1.0 - t)))
        chk.require(dev, 1e-8, (alpha, 2.0))


# ---------------------------------------------------------------------------
# lemma-function targets


def _grid01(n: int, lo: float = 1e-3, hi: float = 1.0 - 1e-3) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _check_monotone(chk, f, xs, increasing: bool, allowance: float, tag: float):
    vals = np.array([f(x) for x in xs])
    diffs = np.diff(vals)
    worst = float(np.min(diffs if increasing else -diffs))
    chk.require(-worst, allowance, (tag, float(xs[int(np.argmin(diffs))])))
    return vals


def _find_sign_change(f, xs) -> bool:
    vals = np.array([f(x) for x in xs])
    diffs = np.diff(vals)
    return bool(np.any(diffs > 1e-12) and np.any(diffs < -1e-12))


@claim("fc-decreasing", "f_c is strictly decreasing (concave at c=1) with the stated ranges")
def _t_fc_decreasing(spec: SweepSpec, chk: _Checker):
    xs = _grid01(min(spec.grid_size, 10000))
    for c in (0.3, 0.8, 1.0):
        _check_monotone(chk, lambda r: lemma_f_c(c, r), xs, increasing=False, allowance=1e-13, tag=c)
    # concavity of f_1: discrete second differences stay nonpositive
    xs2 = _grid01(1000)
    f1 = np.array([lemma_f_c(1.0, r) for r in xs2])
    dev = float(np.max(f1[2:] - 2.0 * f1[1:-1] + f1[:-2]))
    chk.require(dev, 1e-12, (1.0,))
    # range checks at c = 1: limit 1 at 0, decay toward 0 at 1
    chk.require(abs(lemma_f_c(1.0, 1e-9) - 1.0), 1e-6, (1.0, 0.0))
    chk.require(lemma_f_c(1.0, 1.0 - 1e-9), 0.1, (1.0, 1.0))
    chk.locate(float(lemma_f_c(1.0, 0.5)), (0.5,))


@claim("fc-product-unimodal", "arth(cr) arth(cr') peaks exactly at r = sqrt2/2")
def _t_fc_product_unimodal(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    for c in (0.8, 1.0):
        _check_monotone(
            chk, lambda r: lemma_F_c(c, r), _grid01(n, 1e-3, SQRT2_2), True, 1e-13, c
        )
        _check_monotone(
            chk, lambda r: lemma_F_c(c, r), _grid01(n, SQRT2_2, 1.0 - 1e-3), False, 1e-13, c
        )
        _, peak = golden_max(lambda r: lemma_F_c(c, r), 0.5, 0.9, tol=1e-13)
        closed = arth(SQRT2_2 * c) ** 2
        chk.require(abs(peak - closed), 1e-10, (c,))
        # symmetry under r <-> r'
        for r in (0.1, 0.3, 0.6):
            chk.require(abs(lemma_F_c(c, r) - lemma_F_c(c, rprime(r))), 1e-12, (c, r))
    chk.locate(peak, (1.0,))


@claim("gc-sum-range", "the range of arth(cr)+arth(cr') matches the four-regime closed form")
def _t_gc_sum_range(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 20001)
    for c in (0.5, lam.SUM_CASE1_MAX, 0.85, lam.SUM_CASE3_MIN, 0.95, 1.0):
        rng = g_range(c)
        xs = _grid01(n, 1e-6, 1.0 - 1e-6)
        vals = np.array([lemma_G_c(c, r) for r in xs])
        _, peak = refine_grid_max(lambda r: lemma_G_c(c, r), xs, vals, tol=1e-13)
        if math.isfinite(rng.upper):
            chk.require(abs(peak - rng.upper), 1e-8, (c, 1.0))
        if rng.case in (3, 4):
            chk.require(abs(lemma_G_c(c, SQRT2_2) - rng.lower), 1e-10, (c, 0.0))
            chk.require_true(float(np.min(vals)) >= rng.lower - 1e-10, (c, 0.0))
        else:
            # open infimum arth(c), approached at the endpoints
            chk.require_true(float(np.min(vals)) > rng.lower, (c, 0.0))
            chk.require(abs(lemma_G_c(c, 1e-9) - rng.lower), 1e-3, (c, 0.0))
    chk.locate(peak, (1.0,))


@claim("h1-h-shape", "r'/arth r' increasing/concave; the two-term sum peaks at sqrt2/2")
def _t_h1_h(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    xs = _grid01(n)
    _check_monotone(chk, aux_h1, xs, increasing=True, allowance=1e-13, tag=1.0)
    _check_monotone(chk, aux_h, _grid01(n, 1e-3, SQRT2_2), True, 1e-13, 2.0)
    _check_monotone(chk, aux_h, _grid01(n, SQRT2_2, 1.0 - 1e-3), False, 1e-13, 2.0)
    peak = aux_h(SQRT2_2)
    chk.require(abs(peak - math.sqrt(2.0) / math.log(math.sqrt(2.0) + 1.0)), 1e-12, (2.0,))
    for name, f in ((1.0, aux_h1), (2.0, aux_h)):
        vals = np.array([f(r) for r in _grid01(1000)])
        dev = float(np.max(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]))
        chk.require(dev, 1e-12, (name,))
    chk.require_true(all(aux_h(r) > 1.0 for r in xs), (2.0,))
    chk.locate(peak, (SQRT2_2,))


@claim("gle2-monotonicity", "g is decreasing for p<=0, increasing for p>=C, non-monotone between")
def _t_gle2(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    xs = _grid01(n)
    c_thr = threshold_C()
    for p in (-1.0, 0.0):
        _check_monotone(chk, lambda r: aux_g_le2(p, r), xs, False, 1e-13, p)
    for p in (c_thr, 1.0):
        _check_monotone(chk, lambda r: aux_g_le2(p, r), xs, True, 1e-13, p)
    chk.require_true(_find_sign_change(lambda r: aux_g_le2(0.2, r), xs), (0.2,))
    chk.require(abs(c_thr - 0.376775), 1e-6, (c_thr,))
    # the threshold equals the peak of 1 - 1/h
    chk.require(abs(c_thr - (1.0 - 1.0 / aux_h(SQRT2_2))), 1e-12, (c_thr,))
    chk.locate(c_thr, (0.2,))


@claim("slope-ratio-decreasing", "the auxiliary ratio is strictly decreasing with values below -2")
def _t_slope_ratio(spec: SweepSpec, chk: _Checker):
    xs = _grid01(min(spec.grid_size, 10000))
    vals = _check_monotone(chk, aux_slope_ratio, xs, increasing=False, allowance=1e-13, tag=0.0)
    chk.require_true(bool(np.all(vals < -2.0)), (0.0,))
    chk.require(abs(aux_slope_ratio(1e-5) + 2.0), 1e-6, (0.0,))
    chk.locate(float(vals[0]), (float(xs[0]),))


@claim("hp-range", "h_p decreasing below p for p>=-2; attained sup C(p) in (p,-1) for p<-2")
def _t_hp_range(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    xs = _grid01(n, 1e-4, 1.0 - 1e-4)
    # p >= -2: strictly decreasing, everything below p (at p = -2 the gap
    # near 0 is quartic in r, so give float-noise headroom)
    for p in (-2.0, -1.0, 0.0):
        vals = _check_monotone(chk, lambda r: aux_h_p(p, r), xs, False, 1e-12, p)
        chk.require(float(np.max(vals)) - p, 1e-12, (p,))
    # p < -2: attained supremum in (p, -1), limits -2 and -inf
    c3 = big_C_of_p(-3.0)
    chk.require_true(-3.0 < c3 < -1.0, (-3.0,))
    chk.require(abs(big_C_of_p(-2.0 - 1e-6) + 2.0), 1e-3, (-2.0 - 1e-6,))
    chk.require_true(big_C_of_p(-10.0) < c3, (-10.0,))
    grid_sup = float(np.max([aux_h_p(-3.0, r) for r in xs]))
    chk.require(grid_sup - c3, 1e-10, (-3.0,))
    chk.locate(c3, (-3.0,))


@claim("gpq-monotonicity", "g_pq increasing iff q clears p (or C(p)); sign change below")
def _t_gpq(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    xs = _grid01(n)
    for p, q in ((-2.0, -2.0), (1.0, 1.0), (-2.0, 0.0), (2.0, 3.0), (-3.0, 0.0)):
        _check_monotone(chk, lambda r: aux_g_pq(p, q, r), xs, True, 1e-12, p)
    c3 = big_C_of_p(-3.0)
    _check_monotone(chk, lambda r: aux_g_pq(-3.0, c3, r), xs, True, 1e-12, -3.0)
    for p, q in ((1.0, 0.0), (2.0, 1.0), (-3.0, c3 - 0.05)):
        chk.require_true(_find_sign_change(lambda r: aux_g_pq(p, q, r), xs), (p, q))
    chk.locate(c3, (-3.0, c3))


@claim("arth-mean-extremum", "power means of arth r, arth r' peak/bottom at sqrt2/2 per the order p")
def _t_arth_mean_extremum(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 20001)
    target = arth(SQRT2_2)
    xs = _grid01(n, 1e-6, 1.0 - 1e-6)

    def f(p, r):
        return holder_mean(p, arth(r), arth(rprime(r)))

    for p in (-1.0, -0.5, 0.0):
        r_star, peak = refine_grid_max(lambda r: f(p, r), xs, [f(p, r) for r in xs], tol=1e-13)
        chk.require(abs(peak - target), 1e-9, (p, r_star))
        chk.require(abs(r_star - SQRT2_2), 1e-3, (p, r_star))
    for p in (threshold_C(), 1.0):
        r_star, low = refine_grid_min(lambda r: f(p, r), xs, [f(p, r) for r in xs], tol=1e-13)
        chk.require(abs(low - target), 1e-9, (p, r_star))
        chk.require(abs(r_star - SQRT2_2), 1e-3, (p, r_star))
    # intermediate p: the bound fails on both sides. Values above the
    # target only appear where arth r' is huge, i.e. at extremely small r,
    # so sample log-spaced radii with the cancellation-free complement.
    p_mid = 0.2
    vals = np.array([f(p_mid, r) for r in xs])
    below = xs[vals < target - 1e-6]
    tiny = np.logspace(-30.0, -2.0, 300)
    above = tiny[
        np.array([holder_mean(p_mid, arth(float(r)), arth_complement(float(r))) for r in tiny])
        > target + 1e-6
    ]
    chk.require_true(below.size > 0 and above.size > 0, (p_mid,))
    chk.locate(target, (float(below[0]) if below.size else 0.0, float(above[0]) if above.size else 0.0))


@claim("arth-convexity-region", "arth is H_{p,q}-convex exactly on the two-piece region")
def _t_convexity_region(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    u = _halton(n, 2, default_seed() + 8)
    x = 1e-3 + (1.0 - 2e-3) * u[:, 0]
    y = 1e-3 + (1.0 - 2e-3) * u[:, 1]
    ax, ay = np.arctanh(x), np.arctanh(y)
    c3 = big_C_of_p(-3.0)
    convex_pairs = [(-2.0, -2.0), (-2.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (-3.0, c3), (-3.0, 0.0)]
    for p, q in convex_pairs:
        lhs = np.arctanh(holder_mean(p, x, y))
        rhs = holder_mean(q, ax, ay)
        dev = float(np.max(lhs - rhs))
        chk.require(dev, 1e-12, (p, q))
        cls = classify_convexity(p, q).classification
        chk.require_true(cls in (ConvexityClass.CONVEX_D1, ConvexityClass.CONVEX_D2), (p, q))
    # outside the region a violation pair must exist
    grid = np.concatenate([np.logspace(-4, -0.31, 40), np.linspace(0.5, 0.999, 40)])
    for p, q in ((1.0, 0.0), (2.0, 1.0)):
        gx, gy = np.meshgrid(grid, grid)
        lhs = np.arctanh(holder_mean(p, gx, gy))
        rhs = holder_mean(q, np.arctanh(gx), np.arctanh(gy))
        chk.require_true(bool(np.any(lhs > rhs + 1e-12)), (p, q))
        chk.require_true(
            classify_convexity(p, q).classification is ConvexityClass.NOT_CONVEX, (p, q)
        )


@claim("hyperbolic-mean-bound", "rho(0, .) respects power means of moduli for p >= -2")
def _t_hyperbolic_mean_bound(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    u = _halton(n, 3, default_seed() + 9)
    for ua, ub, uc in u:
        p = -2.0 + 5.0 * uc
        rx = 1e-3 + 0.996 * ua
        ry = 1e-3 + 0.996 * ub
        z_mod = holder_mean(p, rx, ry)
        lhs = rho_disk(0.0, z_mod)
        rhs = holder_mean(p, rho_disk(0.0, rx), rho_disk(0.0, ry))
        dev = lhs - rhs
        chk.require(dev, 1e-12, (p, rx, ry))


#: relative agreement of mu_inverse with the oracle, per unit of 1 + y: the
#: oracle inherits mu's rounding, a few ulp of y, as a relative error of
#: about y ulp in r
_MU_INVERSE_REL = 8.0 * 2.0**-52


def _mu_inverse_bisect(y: float) -> float:
    """Oracle for mu^{-1}: bisection on the strictly decreasing mu, until the
    midpoint equals an endpoint (adjacent doubles, or 0 and the smallest one)."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if grotzsch_mu(mid) > y:
            lo = mid
        else:
            hi = mid


@claim("mu-identities", "mu functional identity, round-trip inverse, distortion closed forms")
def _t_mu_identities(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 1000)
    chk.require(abs(grotzsch_mu(1.0 / math.sqrt(2.0)) - math.pi / 2.0), 1e-12, (SQRT2_2,))
    xs = _grid01(n, 1e-3, 1.0 - 1e-3)
    for r in xs:
        dev = abs(grotzsch_mu(r) * grotzsch_mu(rprime(r)) - math.pi**2 / 4.0)
        chk.require(dev, 1e-10, (float(r),))
    chk.require_true(grotzsch_mu(0.1) > grotzsch_mu(0.9), ())
    for r in (0.05, 0.4, 0.9):
        chk.require(abs(mu_inverse(grotzsch_mu(r)) - r), 1e-12, (r,))
        chk.require(abs(phi_K(1.0, r) - r), 1e-12, (r,))
        chk.require_true(phi_K(2.0, r) > r, (r,))
    for r in np.linspace(0.01, 0.99, min(max(spec.grid_size // 10, 20), 100)):
        dev = abs(phi_K(2.0, float(r)) - 2.0 * math.sqrt(r) / (1.0 + r))
        chk.require(dev, 1e-10, (float(r),))
    # the closed-form inverse against the bisection oracle, on both sides of
    # the switch to the complementary nome at y = pi/2
    n_y = min(max(spec.grid_size // 10, 20), 100)
    ys = np.concatenate([np.geomspace(0.05, 20.0, n_y), math.pi / 2.0 + np.array([-1e-9, 0.0, 1e-9])])
    for y in map(float, ys):
        oracle = _mu_inverse_bisect(y)
        dev = abs(mu_inverse(y) - oracle) / oracle
        chk.require(dev, _MU_INVERSE_REL * (1.0 + y), (y,))


@claim("distortion-bracket", "A(K) sits inside its two-sided linear/log bracket")
def _t_distortion_bracket(spec: SweepSpec, chk: _Checker):
    chk.require(abs(distortion_A(1.0) - 1.0), 1e-10, (1.0,))
    a_last = 0.0
    for K in (1.0, 1.5, 2.0, 5.0, 14.0, 20.0, 50.0, 1000.0):
        k_, lin_lo, log_mid, a_k, lin_hi = distortion_bracket(K)
        # chain with a small slack for the all-equal K = 1 endpoint
        for lo, hi in ((k_, lin_lo), (lin_lo, log_mid), (log_mid, a_k), (a_k, lin_hi)):
            chk.require(lo - hi, 1e-9, (K,))
        a_last = a_k
    arch_e = math.acosh(math.e)
    u = arch_e * math.tanh(arch_e)
    v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / math.e**2)))
    chk.require_true(1.5412 < u < 1.5413, (u,))
    chk.require_true(1.3506 < v < 1.3507, (v,))
    chk.locate(a_last, (1000.0,))


# ---------------------------------------------------------------------------
# Lambert / ideal targets


@claim("product-sharpness", "d1*d2 bound is attained at theta = pi/4 for every L")
def _t_product_sharpness(spec: SweepSpec, chk: _Checker):
    n = spec.grid_size
    thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, n)
    for L in [round(0.1 * k, 1) for k in range(1, 11)]:
        vals = np.arctanh(L * np.cos(thetas)) * np.arctanh(L * np.sin(thetas))
        bound = lam.product_bound(L)
        gmax = float(np.max(vals))
        chk.require(gmax - bound, 1e-12, (L,))
        chk.require(bound - gmax, 1e-4, (L,))
        th_star, ref = refine_grid_max(
            lambda t: math.atanh(L * math.cos(t)) * math.atanh(L * math.sin(t)), thetas, vals, tol=1e-13
        )
        chk.require(abs(th_star - math.pi / 4.0), 1e-3, (L, th_star))
    chk.locate(ref, (L, th_star))


@claim("sum-cases", "d1+d2 range matches the four-case formulas with the stated witnesses")
def _t_sum_cases(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 200001)
    thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, n)
    for L in (0.5, 0.85, 0.95, 1.0):
        rep = lam.sum_bounds(L)
        with np.errstate(divide="ignore"):
            vals = np.arctanh(L * np.cos(thetas)) + np.arctanh(L * np.sin(thetas))
        if L < 1.0:
            th_star, gmax = refine_grid_max(
                lambda t: math.atanh(L * math.cos(t)) + math.atanh(L * math.sin(t)), thetas, vals, tol=1e-13
            )
            chk.require(abs(gmax - rep.upper), 1e-8, (L, th_star))
            if rep.case_label in ("case 2", "case 3"):
                w1 = rep.equality_witness
                w2 = math.pi / 2.0 - w1  # arccos r0' by symmetry
                chk.require(min(abs(th_star - w1), abs(th_star - w2)), 1e-4, (L, th_star))
            chk.locate(gmax, (L, th_star))
        if rep.case_label in ("case 3", "case 4"):
            at_pi4 = math.atanh(L * SQRT2_2) * 2.0
            chk.require(abs(at_pi4 - rep.lower), 1e-8, (L, math.pi / 4.0))
            chk.require_true(bool(np.min(vals) >= rep.lower - 1e-10), (L,))
        else:
            # open infimum arth(L), approached as theta -> 0 or pi/2
            chk.require_true(bool(np.min(vals) > rep.lower), (L,))
            edge = math.atanh(L * math.cos(1e-7)) + math.atanh(L * math.sin(1e-7))
            chk.require(abs(edge - rep.lower), 1e-3, (L,))


@claim("thsq-identity", "th^2 d1 + th^2 d2 = L^2")
def _t_thsq_identity(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 100000)
    u = _halton(n, 2, default_seed() + 10)
    L = 1e-3 + (1.0 - 1e-3) * u[:, 0]
    theta = 1e-6 + (math.pi / 2.0 - 2e-6) * u[:, 1]
    # straight into the array: a list of 10^5 pairs would raise the peak RSS by 16 MB
    d1, d2 = np.fromiter(map(lam.side_distances, map(float, L), map(float, theta)), np.dtype((float, 2)), n).T
    dev = np.abs(np.tanh(d1) ** 2 + np.tanh(d2) ** 2 - L * L)
    i = int(np.argmax(dev))  # the first NaN, if any
    chk.require(float(dev[i]), 1e-12, (float(L[i]), float(theta[i])))


def _vertex_angle(q: lam.LambertQuad) -> float:
    """Angle at the fourth vertex from the carrier tangents of its two sides."""
    z = q.vertices[2].z
    g_bc = geodesic_through(q.vertices[1].z, z)
    g_dc = geodesic_through(q.vertices[3].z, z)
    u1 = 1j * (z - g_bc.center)
    u2 = 1j * (z - g_dc.center)
    cosang = abs((u1 * u2.conjugate()).real) / (abs(u1) * abs(u2))
    return math.acos(min(1.0, cosang))


@claim("beardon-identity", "sh d1 sh d2 = cos phi; equals 1 when the far vertex is ideal")
def _t_beardon(spec: SweepSpec, chk: _Checker):
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        q = lam.lambert_from(1.0, theta)
        dev = abs(math.sinh(q.d1) * math.sinh(q.d2) - 1.0)
        chk.require(dev, 1e-12, (1.0, theta))
        chk.require(abs(q.phi), 1e-6, (1.0, theta))
    u = _halton(min(spec.grid_size, 2000), 2, default_seed() + 11)
    for idx, (ua, ub) in enumerate(u):
        L = 0.05 + 0.94 * ua
        theta = 0.05 + (math.pi / 2.0 - 0.1) * ub
        q = lam.lambert_from(L, theta)
        dev = abs(math.sinh(q.d1) * math.sinh(q.d2) - math.cos(q.phi))
        chk.require(dev, 1e-12, (L, theta))
        if idx < 100:
            # independent route: measure the angle geometrically
            chk.require(abs(_vertex_angle(q) - q.phi), 1e-8, (L, theta))


@claim("lambert-oracle-agreement", "numerical geodesic distance reproduces arth(L cos theta)")
def _t_lambert_oracle(spec: SweepSpec, chk: _Checker):
    n_cfg = min(60, max(8, spec.grid_size // 100))
    u = _halton(n_cfg, 2, default_seed() + 12)
    for idx, (ua, ub) in enumerate(u):
        L = 0.2 + 0.79 * ua
        theta = 0.15 + (math.pi / 2.0 - 0.3) * ub
        q = lam.lambert_from(L, theta)
        g_ad = geodesic_through(q.vertices[3].z, -q.vertices[3].z)  # the imaginary axis
        g_bc = geodesic_through(q.vertices[1].z, q.vertices[2].z)
        chk.require(abs(geodesic_distance(g_ad, g_bc) - q.d1), 1e-8, (L, theta))
        if idx < 4:
            g_ab = geodesic_through(q.vertices[1].z, -q.vertices[1].z)  # the real axis
            g_dc = geodesic_through(q.vertices[3].z, q.vertices[2].z)
            chk.require(abs(geodesic_distance(g_ab, g_dc) - q.d2), 1e-8, (L, theta))


@claim("ideal-extrema", "ideal product max / sum min hit their sharp constants at alpha = pi/4")
def _t_ideal_extrema(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 20001)
    alphas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, n)
    d1 = 2.0 * np.arctanh(np.cos(alphas))
    d2 = 2.0 * np.arctanh(np.sin(alphas))
    a_star, pmax = refine_grid_max(
        lambda a: 4.0 * math.atanh(math.cos(a)) * math.atanh(math.sin(a)), alphas, d1 * d2, tol=1e-13
    )
    chk.require(abs(pmax - lam.IDEAL_PRODUCT_BOUND), 1e-6, (a_star,))
    chk.require(abs(a_star - math.pi / 4.0), 1e-3, (a_star,))
    a_min, smin = refine_grid_min(
        lambda a: 2.0 * math.atanh(math.cos(a)) + 2.0 * math.atanh(math.sin(a)), alphas, d1 + d2, tol=1e-13
    )
    chk.require(abs(smin - lam.IDEAL_SUM_BOUND), 1e-6, (a_min,))
    chk.require(abs(a_min - math.pi / 4.0), 1e-3, (a_min,))
    chk.require(abs(lam.alpha_from_quadruple(1, 1j, -1, -1j) - math.pi / 4.0), 1e-12, ())
    alpha = math.pi / 6.0
    e_a = complex(math.cos(alpha), math.sin(alpha))
    round_trip = lam.alpha_from_quadruple(e_a, -e_a.conjugate(), -e_a, e_a.conjugate())
    chk.require(abs(round_trip - alpha), 1e-12, (alpha,))
    chk.locate(pmax, (a_star,))


@claim("ideal-subdivision", "ideal side distances agree with the geodesic-distance oracle")
def _t_ideal_subdivision(spec: SweepSpec, chk: _Checker):
    for alpha in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        d1, d2 = lam.ideal_quad(alpha)
        (g3, g4), (g1, g2) = _symmetric_geodesics(alpha)
        dev = max(abs(geodesic_distance(g3, g4) - d1), abs(geodesic_distance(g1, g2) - d2))
        chk.require(dev, 1e-6, (alpha,))


# ---------------------------------------------------------------------------
# quasiconformal targets


@claim("qc-ml-exceeds-one", "the branch threshold M_L exceeds 1 throughout")
def _t_qc_ml(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 1000)
    lowest = math.inf
    for L in np.linspace(qcb.TH1 + 1e-6, 1.0, n):
        ml = qcb.M_L_of(float(L))
        chk.require_true(ml > 1.0, (float(L), ml))
        lowest = min(lowest, ml)
    chk.locate(lowest)


@claim("qc-branch-continuity", "the bound is continuous across K = M_L")
def _t_qc_branch_continuity(spec: SweepSpec, chk: _Checker):
    for L in (0.8, 0.9, 1.0):
        ml = qcb.M_L_of(L)
        k_hi = ml * (1.0 + 1e-6)
        r_lk = qcb.solve_r_LK(k_hi, L)
        dev = abs(qcb.T_of(r_lk, L, k_hi) - qcb.T_of(qcb.r_L_of(L), L, k_hi))
        chk.require(dev, 1e-8, (L, k_hi))
        # no jump beyond the local slope across the branch switch
        b_m3 = qcb.qc_product_bound(qcb.QcBoundInput(ml * (1.0 - 3e-6), L)).bound
        b_m1 = qcb.qc_product_bound(qcb.QcBoundInput(ml * (1.0 - 1e-6), L)).bound
        b_p1 = qcb.qc_product_bound(qcb.QcBoundInput(k_hi, L)).bound
        chk.require(abs((b_p1 - b_m1) - (b_m1 - b_m3)), 1e-6, (L, ml))


@claim("qc-k1-reduction", "K = 1 reduces to the unmapped sharp bounds")
def _t_qc_k1_reduction(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 1000)
    for L in np.linspace(0.01, 1.0, max(n, 100)):
        res = qcb.qc_product_bound(qcb.QcBoundInput(1.0, float(L)))
        dev = abs(res.bound - lam.product_bound(float(L)))
        chk.require(dev, 1e-10, (float(L),))
    dev = abs(qcb.qc_ideal_bound(1.0) - lam.IDEAL_PRODUCT_BOUND)
    chk.require(dev, 1e-10, (1.0,))


@claim("qc-k-monotonicity", "the bounds are nondecreasing in K")
def _t_qc_monotone(spec: SweepSpec, chk: _Checker):
    ks = np.linspace(1.0, 6.0, 41)
    for L in (0.3, 0.7615, 0.8, 0.95, 1.0):
        vals = [qcb.qc_product_bound(qcb.QcBoundInput(float(K), L)).bound for K in ks]
        dev = -min(b - a for a, b in zip(vals, vals[1:]))
        chk.require(dev, 1e-12, (L,))
    ivals = [qcb.qc_ideal_bound(float(K)) for K in ks]
    dev = -min(b - a for a, b in zip(ivals, ivals[1:]))
    chk.require(dev, 1e-12, (0.0,))


@claim("qc-domination", "the assembled bound dominates the pointwise distortion estimate")
def _t_qc_domination(spec: SweepSpec, chk: _Checker):
    n = min(spec.grid_size, 10000)
    u = _halton(n, 2, default_seed() + 13)
    for K in (1.5, 2.0, 5.0):
        ak2 = distortion_A(K) ** 2
        bounds: dict[float, float] = {}
        for ua, ub in u:
            # quantize L so the (expensive) bound is shared across thetas
            L = 0.05 + 0.95 * round(64.0 * ua) / 64.0
            L = min(L, 1.0)
            theta = 1e-3 + (math.pi / 2.0 - 2e-3) * ub
            d1 = math.atanh(L * math.cos(theta))
            d2 = math.atanh(L * math.sin(theta))
            lhs = ak2 * max(d1, d1 ** (1.0 / K)) * max(d2, d2 ** (1.0 / K))
            if L not in bounds:
                bounds[L] = qcb.qc_product_bound(qcb.QcBoundInput(K, L)).bound
            dev = lhs - bounds[L]
            chk.require(dev, 1e-10, (K, L, theta))


# ---------------------------------------------------------------------------
# runners

#: every claim, in definition order
REGISTRY: tuple[RegistryEntry, ...] = tuple(_ENTRIES)


def run_sweep(spec: SweepSpec) -> Certificate:
    """Execute one sweep; deterministic given the spec and the seed."""
    entry = next((e for e in REGISTRY if e.name == spec.target), None)
    if entry is None:
        raise ConfigurationError(f"unknown sweep target: {spec.target!r}")
    chk = _Checker()
    start = time.perf_counter()
    entry.sweep(spec, chk)
    runtime_ms = int((time.perf_counter() - start) * 1000.0)
    observed, witness = chk.observed()
    return Certificate(
        spec=spec,
        passed=bool(chk.margin >= 0.0),
        observed_extremum=float(observed),
        witness=witness,
        margin=float(chk.margin),
        runtime_ms=runtime_ms,
    )


_PROFILE_GRIDS = {"fast": 1000, "thorough": 100000}


def run_all(profile: str = "fast") -> list[Certificate]:
    """Run the whole registry; failures are collected, not raised."""
    if profile not in _PROFILE_GRIDS:
        raise ConfigurationError(f"unknown profile: {profile!r}")
    grid = _PROFILE_GRIDS[profile]
    return [run_sweep(SweepSpec(e.name, grid)) for e in REGISTRY]
