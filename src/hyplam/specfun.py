"""Scalar special functions: arth, Hoelder means, the lemma-function family,
the Groetzsch ring modulus mu, the distortion function phi_K, and the
quasiconformal distance-distortion constant A(K).

mu is evaluated through the arithmetic-geometric mean. Its inverse is the
closed form mu^{-1}(y) = theta_2(q)^2/theta_3(q)^2 in the Jacobi nome
q = e^{-2y}, from the theta-function representation of mu (Anderson,
Vamanamurthy and Vuorinen, Conformal Invariants, Inequalities, and
Quasiconformal Maps, 1997); below y = pi/2 the complementary nome
e^{-pi^2/(2y)} is used through mu(r) mu(r') = pi^2/4, so that q <= e^{-pi}
always. The complement r' is carried along as log r', which keeps phi_K and
A(K) accurate where r rounds to 1. The classical identity
phi_2(r) = 2 sqrt(r)/(1+r) is used only in tests, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .optimize import refine_grid_max

SQRT2_2 = math.sqrt(2.0) / 2.0


def arth(x: float) -> float:
    """Inverse hyperbolic tangent on [0, 1]; arth(1) is +inf."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"arth needs x in [0, 1], got {x}")
    if x == 1.0:
        return math.inf
    return math.atanh(x)


def rprime(r: float) -> float:
    """sqrt(1 - r^2) for r in [0, 1]."""
    return math.sqrt(max(0.0, (1.0 - r) * (1.0 + r)))


def _arth_cx(c: float, x: float, xp: float) -> float:
    """arth(c x) for c in (0, 1] and x in [0, 1], given x' = sqrt(1 - x^2).

    1 - c x is written (1 - c) + c x'^2/(1 + x), which cannot cancel, so x
    may even have rounded to 1. Where it is below 1e-300 (c = 1, x' below
    ~1e-150), arth x is log1p(x) - log x'.
    """
    den = (1.0 - c) + c * xp * xp / (1.0 + x)
    if den < 1e-300:
        return math.log1p(x) - math.log(xp)
    return 0.5 * math.log1p(2.0 * c * x / den)


def arth_complement(r: float) -> float:
    """arth(sqrt(1 - r^2)), stable for tiny r."""
    _check_open01(r, "arth_complement")
    return _arth_cx(1.0, rprime(r), r)


def holder_mean(p: float, r: float | np.ndarray, s: float | np.ndarray):
    """Power mean of order p, elementwise for arrays r and s; geometric mean
    at p = 0. A NaN argument gives NaN."""
    if (np.minimum(r, s) <= 0.0).any():
        raise DomainError("holder_mean needs positive arguments")
    if p == 0.0:
        return np.sqrt(r * s)
    return ((r**p + s**p) / 2.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Lemma-function family


def _check_open01(r: float, what: str):
    if not 0.0 < r < 1.0:
        raise DomainError(f"{what} needs r in (0, 1), got {r}")


def _arth_over_r(r: float) -> float:
    # arth(r)/r, series near 0 to dodge 0/0
    if r < 1e-4:
        r2 = r * r
        return 1.0 + r2 / 3.0 + r2 * r2 / 5.0
    return math.atanh(r) / r


def _f_c_pair(c: float, x: float, xp: float) -> float:
    """f_c(x) from x and x' = sqrt(1 - x^2), neither recomputed from the other.

    1 - (c x')^2 is written (1 - c)(1 + c) + (c x)^2, which cannot cancel,
    and is divided by x before arth(c x), so that a tiny x overflows to inf
    instead of dividing by an underflowed x arth(c x).
    """
    return ((1.0 - c) * (1.0 + c) / x + c * c * x) / _arth_cx(c, x, xp)


def lemma_f_c(c: float, r: float) -> float:
    """f_c(r) = (1 - (c r')^2) / (r arth(c r)); strictly decreasing in r."""
    if not 0.0 < c <= 1.0:
        raise DomainError("lemma_f_c needs c in (0, 1]")
    _check_open01(r, "lemma_f_c")
    return _f_c_pair(c, r, rprime(r))

def lemma_F_c(c: float, r: float) -> float:
    """F_c(r) = arth(c r) arth(c r'); max (arth(c sqrt2/2))^2 at r = sqrt2/2."""
    if not 0.0 < c <= 1.0:
        raise DomainError("lemma_F_c needs c in (0, 1]")
    _check_open01(r, "lemma_F_c")
    rp = rprime(r)
    return _arth_cx(c, r, rp) * _arth_cx(c, rp, r)


def lemma_G_c(c: float, r: float) -> float:
    """G_c(r) = arth(c r) + arth(c r')."""
    if not 0.0 < c <= 1.0:
        raise DomainError("lemma_G_c needs c in (0, 1]")
    _check_open01(r, "lemma_G_c")
    rp = rprime(r)
    return _arth_cx(c, r, rp) + _arth_cx(c, rp, r)


_C_LOW = math.sqrt(2.0 / 3.0)
_C_LOW_LO = -1.7276510382355637e-18  # sqrt(2/3) - _C_LOW
_C_HIGH = math.sqrt(2.0 * (math.sqrt(2.0) - 1.0))


@dataclass(frozen=True)
class GRange:
    case: int
    lower: float
    upper: float
    r0: float | None = None


def g_range(c: float) -> GRange:
    """Closed-form range of G_c, split into the four regimes of c.

    Boundary values of c route to cases (1) and (3) respectively, matching
    the half-open case intervals.
    """
    if not 0.0 < c <= 1.0:
        raise DomainError("g_range needs c in (0, 1]")
    if c == 1.0:
        return GRange(4, arth(2.0 * math.sqrt(2.0) / 3.0), math.inf)
    mid_value = arth(2.0 * math.sqrt(2.0) * c / (2.0 + c * c))
    if c <= _C_LOW:
        return GRange(1, arth(c), mid_value)
    # 3c^2 - 2 = 3 (c - sqrt(2/3)) (c + sqrt(2/3)), where c - _C_LOW is exact
    m = math.sqrt((2.0 - c * c) * 3.0 * ((c - _C_LOW) - _C_LOW_LO) * (c + _C_LOW))
    # r0 = sqrt((1 - m/c^2)/2), rewritten through c^4 - m^2 = 4 (1 - c^2)^2
    # so that it does not cancel as c -> 1
    r0 = math.sqrt(2.0) * (1.0 - c) * (1.0 + c) / (c * math.sqrt(c * c + m))
    top = lemma_G_c(c, r0)
    if c < _C_HIGH:
        return GRange(2, arth(c), top, r0=r0)
    return GRange(3, mid_value, top, r0=r0)


def aux_h1(r: float) -> float:
    """r'/arth(r'); strictly increasing and concave, range (0, 1)."""
    _check_open01(r, "aux_h1")
    return _f_c_pair(1.0, rprime(r), r)


def aux_h(r: float) -> float:
    """r/arth r + r'/arth r'; peaks at r = sqrt2/2 with value sqrt2/log(1+sqrt2)."""
    _check_open01(r, "aux_h")
    return lemma_f_c(1.0, r) + aux_h1(r)


def aux_g_le2(p: float, r: float) -> float:
    """(r/r') (arth r / arth r')^(p-1)."""
    _check_open01(r, "aux_g_le2")
    rp = rprime(r)
    return (r / rp) * (math.atanh(r) / _arth_cx(1.0, rp, r)) ** (p - 1.0)


def aux_slope_ratio(r: float) -> float:
    """(r'^4 arth r - r(1+r^2)) / (r'^2 ((1+r^2) arth r - r)); decreasing, < -2."""
    _check_open01(r, "aux_slope_ratio")
    if r < 1e-4:
        return -2.0
    rp2 = 1.0 - r * r
    at = math.atanh(r)
    num = rp2 * rp2 * at - r * (1.0 + r * r)
    den = rp2 * ((1.0 + r * r) * at - r)
    return num / den


def aux_h_p(p: float, r: float) -> float:
    """1 + p r'^2 arth(r)/r - (1+r^2) arth(r)/r."""
    _check_open01(r, "aux_h_p")
    a = _arth_over_r(r)
    return 1.0 + p * (1.0 - r * r) * a - (1.0 + r * r) * a


def aux_g_pq(p: float, q: float, r: float) -> float:
    """arth(r)^(q-1) / (r^(p-1) r'^2)."""
    _check_open01(r, "aux_g_pq")
    return math.atanh(r) ** (q - 1.0) / (r ** (p - 1.0) * (1.0 - r * r))


def threshold_C() -> float:
    """1 - log(1+sqrt2)/sqrt2, the monotonicity threshold of aux_g_le2."""
    return 1.0 - math.log(math.sqrt(2.0) + 1.0) / math.sqrt(2.0)


def big_C_of_p(p: float) -> float:
    """sup over (0,1) of aux_h_p, defined for p < -2 where it is attained.

    Log-spaced grid (dense near both endpoints) followed by golden-section
    refinement; aux_h_p is unimodal there.
    """
    if p >= -2.0:
        raise DomainError("big_C_of_p needs p < -2 (the sup is not attained otherwise)")
    n = 2048
    left = [10.0 ** (-12.0 + 11.7 * k / (n - 1)) for k in range(n)]
    right = [1.0 - x for x in left]
    grid = sorted(set(left + right))
    vals = [aux_h_p(p, r) for r in grid]
    _, sup = refine_grid_max(lambda r: aux_h_p(p, r), grid, vals)
    return max(sup, max(vals))


class ConvexityClass(Enum):
    CONVEX_D1 = "convex_d1"
    CONVEX_D2 = "convex_d2"
    NOT_CONVEX = "not_convex"


@dataclass(frozen=True)
class ConvexityRegionPoint:
    p: float
    q: float
    classification: ConvexityClass


def classify_convexity(p: float, q: float) -> ConvexityRegionPoint:
    """Region where arth is strictly H_{p,q}-convex on (0, 1)."""
    if p >= -2.0:
        cls = ConvexityClass.CONVEX_D1 if q >= p else ConvexityClass.NOT_CONVEX
    else:
        cls = ConvexityClass.CONVEX_D2 if q >= big_C_of_p(p) else ConvexityClass.NOT_CONVEX
    return ConvexityRegionPoint(p, q, cls)


# ---------------------------------------------------------------------------
# Groetzsch modulus and distortion


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; quadratic convergence, 64-iteration cap."""
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def grotzsch_mu(r: float) -> float:
    """Conformal modulus of the plane Groetzsch ring; decreasing on (0,1)."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"grotzsch_mu needs r in (0, 1), got {r}")
    return (math.pi / 2.0) * agm(1.0, rprime(r)) / agm(1.0, r)


_HALF_PI = math.pi / 2.0
_PI2_4 = math.pi**2 / 4.0


def _check_K(K: float, what: str):
    if not 1.0 <= K < math.inf:
        raise DomainError(f"{what} needs a finite K >= 1, got K = {K}")


def _nome_moduli(t: float) -> tuple[float, float]:
    """(m, c) with k = m e^{-t} and k' = (1 - c)^2, the moduli of the Jacobi
    nome q = e^{-2t}, for t >= pi/2.

    k = theta_2(q)^2/theta_3(q)^2 and k' = theta_4(q)^2/theta_3(q)^2. With
    q^{1/4} theta_2 = 2 e^{-t/2} (1 + sum q^{n(n+1)}), k keeps its relative
    accuracy until e^{-t} underflows; with theta_3 - theta_4 = 4 sum_{n odd}
    q^{n^2}, so does 1 - k'. Since q <= e^{-pi}, the first omitted term of
    each sum is below 1e-27 of the sum.
    """
    q = math.exp(-2.0 * t)
    s2 = q**2 + q**6 + q**12  # sum of q^{n(n+1)}, n >= 1
    odd = q + q**9 + q**25  # sum of q^{n^2}, odd n
    theta3 = 1.0 + 2.0 * (odd + q**4 + q**16)
    return 4.0 * ((1.0 + s2) / theta3) ** 2, 4.0 * odd / theta3


def _mu_inverse_pair(y: float) -> tuple[float, float]:
    """(r, log r') with grotzsch_mu(r) = y > 0 and r' = sqrt(1 - r^2).

    r' is returned as its logarithm: it underflows (K above ~600 in A(K)) long
    before A(K) = 2 log((1 + r)/r') overflows.
    """
    if y >= _HALF_PI:
        m, c = _nome_moduli(y)
        return m * math.exp(-y), 2.0 * math.log1p(-c)
    # r' = mu^{-1}(pi^2/(4y)), whose nome is q' = e^{-pi^2/(2y)} <= e^{-pi}
    t = _PI2_4 / y
    m, c = _nome_moduli(t)
    return (1.0 - c) ** 2, math.log(m) - t


def mu_inverse(y: float) -> float:
    """Inverse of grotzsch_mu, in closed form from the Jacobi nome."""
    if not y > 0.0:
        raise DomainError(f"mu_inverse needs y > 0, got y = {y}")
    r = _mu_inverse_pair(y)[0]
    if r == 0.0:
        raise DomainError(f"mu_inverse(y = {y}) underflows to 0")
    return r


def phi_K(K: float, r: float) -> float:
    """Hersch-Pfluger distortion mu^{-1}(mu(r)/K), K >= 1."""
    _check_K(K, "phi_K")
    if not 0.0 < r < 1.0:
        raise DomainError("phi_K needs r in (0, 1)")
    return mu_inverse(grotzsch_mu(r) / K)


def distortion_A(K: float) -> float:
    """A(K) = 2 arth(phi_K(th 1/2)); A(1) = 1.

    2 arth phi is taken as 2 log((1 + phi)/phi') from the pair (phi, log phi'),
    so it stays accurate where phi rounds to 1.
    """
    _check_K(K, "distortion_A")
    phi, log_phip = _mu_inverse_pair(grotzsch_mu(math.tanh(0.5)) / K)
    return 2.0 * (math.log1p(phi) - log_phip)


def distortion_bracket(K: float) -> tuple[float, float, float, float, float]:
    """(K, u(K-1)+1, log(cosh(K arccosh e)), A(K), v(K-1)+K), a monotone chain."""
    arch_e = math.acosh(math.e)
    u = arch_e * math.tanh(arch_e)
    v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / (math.e * math.e))))
    return (
        K,
        u * (K - 1.0) + 1.0,
        # log cosh x = x - log 2 + log1p(e^{-2x}), which cannot overflow
        K * arch_e - math.log(2.0) + math.log1p(math.exp(-2.0 * K * arch_e)),
        distortion_A(K),
        v * (K - 1.0) + K,
    )
