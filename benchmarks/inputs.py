"""Seeded inputs for the benchmark workloads.

The timed streams draw from the stated domain in fixed, documented shares,
up to the edges of the regions where the program has known defects
(``checks.KNOWN_DEFECTS``); no timed operation is meant to fail:

- K: 80% log-uniform in [1, 5]; 20% log-uniform in [5, 14], where
  ``mu_inverse`` runs into its bisection cap and a request's cost jumps
  between clusters near 2, 17, 27 and 70 ms with K. Within each share K
  follows a seeded low-discrepancy sequence rather than independent draws.
  The 20% share puts the stream's p90 at the median of the [5, 14] share,
  inside the 27 ms cluster; at 15% it fell on the edge between two clusters
  and moved by a third from run to run.
- L: 90% uniform in (0, 1 - 1e-6]; 5% with 1 - L log-uniform in
  [1e-6, 1e-1]; 5% exactly 1.
- theta: 90% uniform in [1e-4, pi/2 - 1e-4]; 5% log-uniform in
  [1e-4, 1e-1]; 5% at pi/2 minus a log-uniform offset in [1e-4, 1e-1].

The rest of the domain, where the known defects are, is covered by
``edge_requests``: each of its requests moves one coordinate of a request
drawn as above into one defect region (K up to 40, 1 - L down to 1e-12,
theta down to 1e-12 from either end, alone or at L = 1).

The shares hold in every prefix of a stream, not only on average, so a run's
cost does not depend on how many slow requests its seed happened to draw.
The same seed always gives the same inputs. Only numbers derived from the
seed reach the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from checks import HALF_PI, K_EDGE, ONE_MINUS_L_EDGE, THETA_EDGE, THETA_L1_EDGE

K_SHARES = (0.80, 0.20)
EDGE_SHARE = 0.05  # share of L (and of each theta edge) drawn near the edges
K_MAX = 40.0  # largest K of the edge probe
SMALLEST = 1e-12  # smallest 1 - L and theta offset of the edge probe

# size of the pre-generated request pool; a run cycles through it
POOL = 20_000
STEP_K = math.sqrt(11.0) - 3.0  # irrational step of the K sequences


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _log_spread(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n values log-uniform in [lo, hi) from a seeded low-discrepancy
    sequence: every prefix covers the interval evenly, so a run's cost does
    not depend on how its seed's values fall where cost jumps with K."""
    u = (rng.uniform() + STEP_K * np.arange(n)) % 1.0
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _mixture(rng, n: int, parts, step: float) -> np.ndarray:
    """n values from (share, sampler) parts. Value i comes from the part whose
    share holds frac(u0 + i*step), with an irrational step, so that every
    prefix of the stream holds each part's share to within one value."""
    u = (rng.uniform() + step * np.arange(n)) % 1.0
    part = np.searchsorted(np.cumsum([share for share, _ in parts])[:-1], u, side="right")
    out = np.empty(n)
    for k, (_, draw) in enumerate(parts):
        at = np.flatnonzero(part == k)
        out[at] = draw(len(at))
    return out


def draw_K(rng, n: int) -> np.ndarray:
    return _mixture(
        rng,
        n,
        [
            (K_SHARES[0], lambda c: _log_spread(rng, 1.0, 5.0, c)),
            (K_SHARES[1], lambda c: _log_spread(rng, 5.0, K_EDGE, c)),
        ],
        (math.sqrt(5.0) - 1.0) / 2.0,
    )


def draw_L(rng, n: int) -> np.ndarray:
    return _mixture(
        rng,
        n,
        [
            # uniform on (0, 1 - edge]: 1 - U with U in [edge, 1)
            (1.0 - 2 * EDGE_SHARE, lambda c: 1.0 - rng.uniform(ONE_MINUS_L_EDGE, 1.0, c)),
            (EDGE_SHARE, lambda c: 1.0 - _log_uniform(rng, ONE_MINUS_L_EDGE, 1e-1, c)),
            (EDGE_SHARE, lambda c: np.ones(c)),
        ],
        math.sqrt(2.0) - 1.0,
    )


def draw_theta(rng, n: int) -> np.ndarray:
    return _mixture(
        rng,
        n,
        [
            (1.0 - 2 * EDGE_SHARE, lambda c: rng.uniform(THETA_L1_EDGE, HALF_PI - THETA_L1_EDGE, c)),
            (EDGE_SHARE, lambda c: _log_uniform(rng, THETA_L1_EDGE, 1e-1, c)),
            (EDGE_SHARE, lambda c: HALF_PI - _log_uniform(rng, THETA_L1_EDGE, 1e-1, c)),
        ],
        math.sqrt(3.0) - 1.0,
    )


@dataclass(frozen=True)
class Request:
    """One bound-report request: a Lambert shape, a K, and a disk automorphism."""

    K: float
    L: float
    theta: float
    a: complex  # automorphism centre, |a| <= 0.9
    phase: float


def requests(seed: int, n: int = POOL) -> list[Request]:
    rng = np.random.default_rng([seed, 1])
    return _requests(rng, draw_K(rng, n), draw_L(rng, n), draw_theta(rng, n))


#: the defect regions of ``edge_requests``, one request each in turn
EDGE_REGIONS = ("K", "L1-theta", "one-minus-L", "theta")


def edge_requests(seed: int, n: int) -> list[Request]:
    """Requests drawn like ``requests``, with request i moved into the defect
    region EDGE_REGIONS[i % 4]: K log-uniform in [14, 40]; L = 1 with theta
    within a log-uniform 1e-12..1e-4 of 0 or pi/2; 1 - L log-uniform in
    [1e-12, 1e-6]; theta within a log-uniform 1e-12..1e-6 of 0 or pi/2."""
    rng = np.random.default_rng([seed, 3])
    K, L, theta = draw_K(rng, n), draw_L(rng, n), draw_theta(rng, n)
    region = np.arange(n) % len(EDGE_REGIONS)
    near_zero = (np.arange(n) // len(EDGE_REGIONS)) % 2 == 0

    def offset(hi):
        o = _log_uniform(rng, SMALLEST, hi, n)
        return np.where(near_zero, o, HALF_PI - o)

    K = np.where(region == 0, _log_uniform(rng, K_EDGE, K_MAX, n), K)
    L = np.where(region == 1, 1.0, L)
    theta = np.where(region == 1, offset(THETA_L1_EDGE), theta)
    L = np.where(region == 2, 1.0 - _log_uniform(rng, SMALLEST, ONE_MINUS_L_EDGE, n), L)
    theta = np.where(region == 3, offset(THETA_EDGE), theta)
    return _requests(rng, K, L, theta)


def _requests(rng, K, L, theta) -> list[Request]:
    """Requests for these shapes, each with a seeded disk automorphism."""
    n = len(K)
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    return [
        Request(float(k), float(l), float(t), complex(r * math.cos(w), r * math.sin(w)), float(p))
        for k, l, t, r, w, p in zip(K, L, theta, radius, angle, phase)
    ]


def ideal_vertices(alpha: float) -> tuple[complex, complex, complex, complex]:
    """Boundary vertices, in positive order, of the ideal quadrilateral whose
    vertex half-angle is alpha: the absolute ratio is 1/cos^2(alpha)."""
    return (
        complex(math.cos(alpha), math.sin(alpha)),
        complex(-math.cos(alpha), math.sin(alpha)),
        complex(-math.cos(alpha), -math.sin(alpha)),
        complex(math.cos(alpha), -math.sin(alpha)),
    )


def _point_arg(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


CLI_SUBCOMMANDS = ("lambert", "ideal", "qc-bound", "specfun")


def cli_calls(seed: int, n: int = 2048) -> list[tuple[list[str], Request]]:
    """Argument lists for ``hyplam.cli``, each with the request it was drawn
    from, cycling through the subcommands over the request mixture."""
    out = []
    for i, r in enumerate(requests(seed, n)):
        sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
        if sub == "lambert":
            args = ["lambert", "--L", f"{r.L:.17g}", "--theta", f"{r.theta:.17g}"]
        elif sub == "ideal":
            mapped = [moebius(r.a, r.phase, v) for v in ideal_vertices(r.theta)]
            args = ["ideal", "--quad", *[_point_arg(v) for v in mapped]]
        elif sub == "qc-bound":
            args = ["qc-bound", "--K", f"{r.K:.17g}"]
            args += ["--ideal"] if (i // len(CLI_SUBCOMMANDS)) % 2 else ["--L", f"{r.L:.17g}"]
        else:
            args = ["specfun", "--fn", "bracket", "--K", f"{r.K:.17g}"]
        out.append((args + ["--json"], r))
    return out


def moebius(a: complex, phase: float, z: complex) -> complex:
    """e^{i phase} (z - a)/(1 - conj(a) z), computed here so that generated
    inputs never depend on the program under test."""
    w = (z - a) / (1.0 - a.conjugate() * z)
    return complex(math.cos(phase), math.sin(phase)) * w


SWEEP_TARGETS = ("product", "sum", "ideal", "mu")


def sweep_rounds(seed: int, rounds: int = 256) -> list[float]:
    """One L per round; a round sweeps all four targets with it."""
    rng = np.random.default_rng([seed, 2])
    return [float(L) for L in draw_L(rng, rounds)]
