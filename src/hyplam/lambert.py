"""Lambert and ideal hyperbolic quadrilaterals and their sharp distance bounds.

A Lambert quadrilateral (three right angles, fourth angle phi in [0, pi/2))
is normalized so that the right-angle vertex v_a sits at the origin, v_b on
the positive real axis, v_d on the positive imaginary axis, and v_c = t e^{i
theta}. The whole shape is then parametrized by (L, theta) with
L = th rho(v_a, v_c) = 2t/(1+t^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentQuadrilateralError
from .geometry import Point, _points, _ratio
from .specfun import _C_HIGH, _C_LOW, _arth_cx, _first_bad, _ndarray, _ns, _require, arth, g_range, rprime

SQRT2 = math.sqrt(2.0)

#: upper limit of the first sum-bound regime, sqrt(2/3), where specfun.g_range switches
SUM_CASE1_MAX = _C_LOW
#: lower limit of the third sum-bound regime, sqrt(2(sqrt2 - 1)), where specfun.g_range switches
SUM_CASE3_MIN = _C_HIGH

#: product_report checks an L below this at L scaled up by a power of 2: the
#: bound (L sqrt2/2)^2 is subnormal from L ~ 2^-511 on
_L_BOUND_SUBNORMAL = 2.0**-500

#: sharp product bound for ideal quadrilaterals, (2 log(1+sqrt2))^2
IDEAL_PRODUCT_BOUND = (2.0 * math.log(SQRT2 + 1.0)) ** 2
#: sharp sum lower bound for ideal quadrilaterals, 4 log(1+sqrt2)
IDEAL_SUM_BOUND = 4.0 * math.log(SQRT2 + 1.0)


@dataclass(frozen=True)
class LambertQuad:
    L: float
    theta: float
    t: float
    vertices: tuple[Point, Point, Point, Point]
    d1: float
    d2: float
    phi: float


@dataclass(frozen=True)
class BoundReport:
    quantity: str  # "product" | "sum"
    params: dict = field(default_factory=dict)
    case_label: str = ""
    lower: float = -math.inf
    upper: float = math.inf
    observed: float | None = None
    equality_witness: float | None = None
    satisfied: bool = True

    def to_dict(self) -> dict:
        return vars(self) | {"params": dict(self.params)}


def _check_L(L: float):
    if not 0.0 < L <= 1.0:
        raise DomainError(f"L must lie in (0, 1], got {L}")


def _check_theta(theta: float):
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")


def side_distances(L, theta):
    """(arth(L cos theta), arth(L sin theta)) for L in (0, 1] and theta in
    [0, pi/2], each through specfun._arth_cx with the other as complement;
    a pair of ndarrays, row by row, if L or theta is one."""
    ns = _ns(L, theta)
    c, s = ns.cos(theta), ns.sin(theta)
    return _arth_cx(L, c, s, ns), _arth_cx(L, s, c, ns)


def lambert_from(L: float, theta: float) -> LambertQuad:
    """Build the normalized Lambert quadrilateral for (L, theta).

    d1 = arth(L cos theta) and d2 = arth(L sin theta) are the opposite-side
    distances; t is the root of L t^2 - 2t + L = 0 inside (0, 1].
    """
    _check_L(L)
    _check_theta(theta)
    t = L / (1.0 + rprime(L))
    d1, d2 = side_distances(L, theta)
    phi = beardon_phi(d1, d2)
    v_a = Point.of(0.0)
    v_b = Point.of(math.tanh(d1 / 2.0))
    v_c = Point.of(t * complex(math.cos(theta), math.sin(theta)))
    v_d = Point.of(1j * math.tanh(d2 / 2.0))
    return LambertQuad(L=L, theta=theta, t=t, vertices=(v_a, v_b, v_c, v_d), d1=d1, d2=d2, phi=phi)


def _log_sh(d, ns=math):
    # log sh d = d + log((1 - e^{-2d})/2), finite for every d > 0
    return d + ns.log(-0.5 * ns.expm1(-2.0 * d))


def beardon_phi(d1, d2):
    """Fourth angle from sh(d1) sh(d2) = cos(phi), in log space: at L = 1,
    d1 reaches ~745, where sh d1 alone overflows. Row by row for ndarrays,
    where the first bad row raises the scalar's error."""
    if _first_bad((0.0 <= d1) & (0.0 <= d2), d1) is not None:
        raise DomainError("side distances must be nonnegative")
    if isinstance(d1, _ndarray) or isinstance(d2, _ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):  # log sh 0 = -inf, and inf - inf
            log_prod = np.where(np.minimum(d1, d2) == 0.0, -np.inf, _log_sh(d1, np) + _log_sh(d2, np))
        ns, acos, least = np, np.arccos, np.minimum
    else:
        log_prod = -math.inf if min(d1, d2) == 0.0 else _log_sh(d1) + _log_sh(d2)
        ns, acos, least = math, math.acos, min
    # sh d carries the relative error of d times d coth d, about d + 1; 16 ulp
    # per unit is ~10 times the excess over 1 seen at and near L = 1. The slack
    # is infinite where a side is, so an infinite product is refused apart
    ok = (log_prod < math.inf) & (log_prod <= ns.log1p(2.0**-48 * (2.0 + d1 + d2)))
    if (bad := _first_bad(ok, log_prod)) is not None:
        raise InconsistentQuadrilateralError(f"sh(d1) sh(d2) = exp({bad}) exceeds 1: not a Lambert quadrilateral")
    return acos(least(ns.exp(log_prod), 1.0))


def product_root(L: float) -> float:
    """arth(L sqrt2/2), the square root of the product bound."""
    _check_L(L)
    return arth(SQRT2 / 2.0 * L)


def product_bound(L: float) -> float:
    """Sharp bound (arth(L sqrt2/2))^2 for d1*d2; equality at theta = pi/4."""
    return product_root(L) ** 2


def product_report(L: float, theta: float | None = None) -> BoundReport:
    """The product bound at L, and d1*d2 at theta checked against it with a
    slack of 1e-12 relative to the bound.

    Below L = 2^-500 the bound, L^2/2 to the last bit, is subnormal or 0, and
    so is d1*d2. There the check is made at L scaled by a power of 2 into
    [2^-500, 2^-499): d1 and d2 are linear in L to the last bit and the bound
    quadratic, so the verdict is the one at L, with no bit lost.
    """
    bound = product_bound(L)
    observed = None
    satisfied = True
    if theta is not None:
        _check_theta(theta)
        d1, d2 = side_distances(L, theta)
        observed = d1 * d2
        if L < _L_BOUND_SUBNORMAL:
            L_check = math.ldexp(math.frexp(L)[0], -499)
            d1, d2 = side_distances(L_check, theta)
            bound_check = product_bound(L_check)
        else:
            bound_check = bound
        satisfied = d1 * d2 <= bound_check + 1e-12 * bound_check
    return BoundReport(
        quantity="product",
        params={"L": L} | ({} if theta is None else {"theta": theta}),
        case_label="product",
        lower=0.0,
        upper=bound,
        observed=observed,
        equality_witness=math.pi / 4.0,
        satisfied=satisfied,
    )


def sum_bounds(L: float, theta: float | None = None) -> BoundReport:
    """Range of d1 + d2 over theta: the range of G_c at c = L (specfun.g_range),
    split into the four regimes of L, with its equality witness in theta.

    L exactly at sqrt(2/3) goes to case 1 and exactly at sqrt(2(sqrt2-1))
    to case 3, matching the half-open case intervals. Lower bounds in
    cases 1 and 2 are open (approached as theta -> 0 or pi/2) and carry
    no equality witness. d1 + d2 at theta is checked against the range with
    a slack of 1e-12 relative to each end.
    """
    _check_L(L)
    rng = g_range(L)
    witness = math.pi / 4.0 if rng.r0 is None else math.acos(rng.r0)
    observed = None
    satisfied = True
    if theta is not None:
        _check_theta(theta)
        d1, d2 = side_distances(L, theta)
        observed = d1 + d2
        satisfied = rng.lower - 1e-12 * rng.lower <= observed <= rng.upper + 1e-12 * rng.upper
    return BoundReport(
        quantity="sum",
        params={"L": L} | ({} if theta is None else {"theta": theta}),
        case_label=f"case {rng.case}",
        lower=rng.lower,
        upper=rng.upper,
        observed=observed,
        equality_witness=witness,
        satisfied=satisfied,
    )


def ideal_quad(alpha):
    """Opposite-side distances (2 arth cos a, 2 arth sin a) of the normalized
    ideal quadrilateral with vertex half-angle alpha; row by row for an
    ndarray alpha, where any row outside (0, pi/2) raises DomainError."""
    _require((0.0 < alpha) & (alpha < math.pi / 2.0), alpha, "ideal_quad", "alpha in (0, pi/2)")
    d1, d2 = side_distances(1.0, alpha)
    return 2.0 * d1, 2.0 * d2


def alpha_from_quadruple(a, b, c, d) -> float:
    """Half-angle arccos(sqrt(1/|a,b,c,d|)) of an ideal quadrilateral given
    its boundary vertices in positive order; DomainError for a vertex off
    the unit circle. The vertices are read and snapped once, for the test
    and for the ratio."""
    (za, on_a), (zb, on_b), (zc, on_c), (zd, on_d) = _points(a, b, c, d)
    if not (on_a and on_b and on_c and on_d):
        raise DomainError("an ideal quadrilateral needs its four vertices on the unit circle")
    ratio = _ratio(za, zb, zc, zd)
    if ratio < 1.0:
        raise DomainError(
            f"absolute ratio {ratio} < 1: points are not in the assumed positive order"
        )
    return math.acos(math.sqrt(1.0 / ratio))
