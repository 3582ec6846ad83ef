"""Output checks built on invariants, never on the program's own helpers.

Every constant and closed form here is computed in this file, with formulas
written differently from the library's (log1p instead of atanh, asinh(1)
instead of log(1 + sqrt 2)). A check returns a list of failure names; an empty
list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 2.0**-52
#: relative allowance for comparing a value with a closed-form bound
REL = 1e-12
#: arccos loses half the digits near 1, so recovered angles carry about
#: sqrt(eps) absolute error; allow 128 ulp of the cosine
ALPHA_TOL = math.sqrt(128.0 * EPS)

SQRT2_2 = math.sqrt(0.5)
IDEAL_PRODUCT = (2.0 * math.asinh(1.0)) ** 2
IDEAL_SUM = 4.0 * math.asinh(1.0)

# linear bracket of A(K): u (K - 1) + 1 <= A(K) <= v (K - 1) + K
_ARCH_E = math.log(math.e + math.sqrt(math.e * math.e - 1.0))
U = _ARCH_E * math.tanh(_ARCH_E)
V = math.log(2.0 + 2.0 * math.sqrt(1.0 - math.exp(-2.0)))


def artanh(x: float) -> float:
    return 0.5 * math.log1p(2.0 * x / (1.0 - x)) if x < 1.0 else math.inf


def product_bound(L: float) -> float:
    return artanh(SQRT2_2 * L) ** 2


def a_lower(K: float) -> float:
    return U * (K - 1.0) + 1.0


def a_upper(K: float) -> float:
    return V * (K - 1.0) + K


def le(x: float, bound: float) -> bool:
    """x <= bound up to REL; an infinite bound admits everything but NaN."""
    return x <= bound + REL * max(1.0, abs(bound))


def close(x: float, y: float, rel: float = REL) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def rho_allowance(*zs: complex) -> float:
    """Absolute rounding allowance for a disk distance: the distance is
    conditioned like 1/(1 - |z|) at each endpoint."""
    return 64.0 * EPS * (1.0 + sum(1.0 / max(1.0 - abs(z), EPS) for z in zs))


# ---------------------------------------------------------------------------
# per-output checks


def lambert(L, theta, d1, d2, product, total) -> list[str]:
    """``product``/``total`` are the two BoundReport dicts for (L, theta)."""
    bad = []
    if not le(d1 * d2, product_bound(L)):
        bad.append("product>bound")
    if not close(product["upper"], product_bound(L)):
        bad.append("product_bound-formula")
    if not (le(total["lower"], d1 + d2) and le(d1 + d2, total["upper"])):
        bad.append("sum-outside-range")
    if not close(math.tanh(d1) ** 2 + math.tanh(d2) ** 2, L * L):
        bad.append("thsq-identity")
    if not (product["satisfied"] and total["satisfied"]):
        bad.append("reported-violation")
    return bad


def bracket(K: float, A: float) -> list[str]:
    return [] if le(a_lower(K), A) and le(A, a_upper(K)) else ["A-outside-bracket"]


def qc_product(K: float, L: float, bound: float) -> list[str]:
    floor = a_lower(K) ** 2 * product_bound(L) ** (1.0 / K)
    return [] if le(floor, bound) else ["qc_product<floor"]


def qc_ideal(K: float, bound: float) -> list[str]:
    return [] if le(a_lower(K) ** 2 * IDEAL_PRODUCT, bound) else ["qc_ideal<floor"]


def alpha(theta: float, before: float, after: float) -> list[str]:
    bad = []
    if not abs(before - theta) <= ALPHA_TOL:
        bad.append("alpha-construction")
    if not abs(after - before) <= ALPHA_TOL:
        bad.append("alpha-moebius-invariance")
    return bad


def isometry(pairs) -> list[str]:
    """pairs: (z, w, rho(z, w), Mz, Mw, rho(Mz, Mw)) for one disk automorphism M."""
    for z, w, r, mz, mw, mr in pairs:
        if math.isinf(r) or math.isinf(mr):
            ok = r == mr
        else:
            ok = abs(r - mr) <= rho_allowance(z, w, mz, mw)
        if not ok:
            return ["rho-moebius-invariance"]
    return []


# ---------------------------------------------------------------------------
# known defects
#
# Defects of the program that the edge probe of bounds-stream reaches on
# purpose. A failure one of them explains is counted in the probe's failures;
# a failure none of them explains makes the run incorrect. Regions carry
# margins, so a fix that shrinks a region never needs this table changed. The
# timed streams draw their inputs outside every region (``inputs.py``).

HALF_PI = math.pi / 2.0
#: the regions' edges, with their margins
K_EDGE = 14.0  # K above: qc-no-root, A-saturation
ONE_MINUS_L_EDGE = 1e-6  # 0 < 1 - L at or below: sum_bounds-r0-cancellation
THETA_L1_EDGE = 1e-4  # theta or pi/2 - theta below, at L = 1: lambert-L1-theta-edge
THETA_EDGE = 1e-6  # theta or pi/2 - theta below: ideal-alpha-edge

KNOWN_DEFECTS = {
    "lambert-L1-theta-edge": (
        "at L = 1, where sh(d1) sh(d2) = 1 exactly, arth(L cos theta) cancels "
        "as theta (or pi/2 - theta) goes to 0: below ~1e-5 the rounding "
        "exceeds beardon_phi's slack and the quadrilateral is rejected; below "
        "~1e-8 d1 = inf and the product check reports a violation"
    ),
    "sum_bounds-r0-cancellation": (
        "for 0 < 1 - L below ~4e-9, 1 - m/L^2 in sum_bounds cancels: the "
        "square root raises an untyped ValueError or the upper bound is wrong"
    ),
    "ideal-alpha-edge": (
        "for a vertex half-angle below ~1e-8 the absolute ratio rounds below 1 "
        "and alpha_from_quadruple raises DomainError (within ~1.5e-8 of pi/2, "
        "ideal_quad's d2 = 2 arth(sin alpha) is inf, so `hyplam ideal` reports "
        "a violation)"
    ),
    "qc-no-root": "for K above ~14.4 the bisection bracket of the QC bounds holds no root (NoRootError)",
    "A-saturation": (
        "phi_K clamps to 1 - 1e-16, so A(K) saturates at 37.43: above the "
        "bracket for K in ~[15.9, 21], below it (and the QC bounds below their "
        "floor) for K above ~24.8"
    ),
}


def explain(stage: str, cause: str, K: float, L: float, theta: float) -> str | None:
    """Name of the known defect that explains a failure (``cause``) of
    ``stage`` on these inputs, or None."""
    if stage == "lambert":
        if L == 1.0 and min(theta, HALF_PI - theta) < THETA_L1_EDGE:
            return "lambert-L1-theta-edge"
        if 0.0 < 1.0 - L <= ONE_MINUS_L_EDGE:
            return "sum_bounds-r0-cancellation"
    elif stage == "ideal":
        if min(theta, HALF_PI - theta) < THETA_EDGE:
            return "ideal-alpha-edge"
    elif stage == "specfun":
        if K > 15.0:
            return "A-saturation"
    elif stage in ("qc_product", "qc_ideal"):
        if K > K_EDGE and cause == "NoRootError":
            return "qc-no-root"
        if K > 24.0:
            return "A-saturation"
    return None


# ---------------------------------------------------------------------------
# sweep CSVs


def sweep_csv(target: str, L: float, grid: int, table: np.ndarray) -> list[str]:
    """Check a sweep CSV already parsed into a float array (header dropped)."""
    if table.ndim != 2 or table.shape[0] != grid:
        return ["csv-row-count"]
    bad = []
    if target == "product":
        value, bound = table[:, 1], table[:, 2]
        if not np.all(np.isfinite(table)):
            bad.append("csv-not-finite")
        if not close(float(bound[0]), product_bound(L)):
            bad.append("product_bound-formula")
        if np.any(value > product_bound(L) * (1.0 + REL)):
            bad.append("product>bound")
    elif target == "sum":
        value, lower, upper = table[:, 1], table[:, 2], table[:, 3]
        # the sum range is unbounded above exactly at L = 1
        finite_cols = [0, 1, 2, 4] if L == 1.0 else [0, 1, 2, 3, 4]
        if not np.all(np.isfinite(table[:, finite_cols])) or np.isinf(upper[0]) != (L == 1.0):
            bad.append("csv-not-finite")
        if np.any(value < lower - REL * np.abs(lower)) or np.any(value > upper + REL * np.abs(upper)):
            bad.append("sum-outside-range")
    elif target == "ideal":
        if not np.all(np.isfinite(table)):
            bad.append("csv-not-finite")
        if np.any(table[:, 1] > IDEAL_PRODUCT * (1.0 + REL)) or np.any(table[:, 3] < IDEAL_SUM * (1.0 - REL)):
            bad.append("ideal-bound")
    else:  # mu: mu(r) mu(r') = pi^2/4
        if not np.all(np.isfinite(table)):
            bad.append("csv-not-finite")
        # r' is rounded before mu(r') is taken, and mu(s) near s = 1 turns a
        # relative change eps of s into about eps/(s'^2 log(4/s')): allow 8 ulp
        r = table[:, 0]
        small = np.minimum(r, np.sqrt((1.0 - r) * (1.0 + r)))
        allowance = REL + 8.0 * EPS / (small**2 * np.log(4.0 / small))
        if np.any(np.abs(table[:, 2] / (math.pi**2 / 4.0) - 1.0) > allowance):
            bad.append("mu-product-identity")
    return bad
