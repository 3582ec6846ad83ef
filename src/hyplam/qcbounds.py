"""Upper bounds for products of opposite-side distances under K-quasiconformal
self-maps of the disk.

Only the bounds are computed; no quasiconformal map is ever constructed. The
branch point in L is th(1) = (e^2-1)/(e^2+1), kept in exact closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NoRootError
from .lambert import IDEAL_PRODUCT_BOUND
from .optimize import bisect_root
from .specfun import _arth_cx, _check_K, _f_c_pair, arth, distortion_A, lemma_f_c, rprime

#: th(1) = (e^2 - 1)/(e^2 + 1), the small-L / large-L branch point
TH1 = (math.e**2 - 1.0) / (math.e**2 + 1.0)

#: r_1 = 2 sqrt(e)/(e + 1): where 2 arth r = 1 flips its max-branch
R1 = 2.0 * math.sqrt(math.e) / (math.e + 1.0)
R1_PRIME = (math.e - 1.0) / (math.e + 1.0)

#: M_1 = f_1(r_1')/f_1(r_1), the K-threshold of the ideal-quadrilateral bound
M1 = lemma_f_c(1.0, R1_PRIME) / lemma_f_c(1.0, R1)

#: the root of K f_L(r) = f_L(r') is sought with r' above the smallest normal double
_LOG_RP_MIN = math.log(sys.float_info.min)


class QcRegime(Enum):
    SMALL_L = "small_L"
    LARGE_L_K_LE_M = "large_L_K_le_M"
    LARGE_L_K_GT_M = "large_L_K_gt_M"


@dataclass(frozen=True)
class QcBoundInput:
    K: float
    L: float

    def __post_init__(self):
        _check_K(self.K, "QcBoundInput")
        if not 0.0 < self.L <= 1.0:
            raise DomainError(f"L must lie in (0, 1], got {self.L}")


@dataclass(frozen=True)
class QcBoundResult:
    r_L: float
    M_L: float
    regime: QcRegime
    r_LK: float | None
    bound: float

    def to_dict(self) -> dict:
        return {
            "r_L": self.r_L,
            "M_L": self.M_L,
            "regime": self.regime.value,
            "r_LK": self.r_LK,
            "bound": self.bound,
        }


def r_L_of(L: float) -> float:
    """r_L = th(1)/L, where arth(L r) = 1."""
    if not TH1 < L <= 1.0:
        raise DomainError("r_L is defined for L > th(1)")
    return TH1 / L


def M_L_of(L: float) -> float:
    """M_L = f_L(r_L') / f_L(r_L) > 1."""
    rl = r_L_of(L)
    return lemma_f_c(L, rprime(rl)) / lemma_f_c(L, rl)


def _root_pair(K: float, L: float, r_lo: float) -> tuple[float, float]:
    """(r, r') of the unique root r in (r_lo, 1) of K f_L(r) = f_L(r').

    The root is solved for in s = log r', so that r' keeps its digits where r
    rounds to 1 (at L = 1 from K ~ 14 on, where r' ~ 2 e^{-K}). f_L is
    strictly decreasing, so g(r) = K f_L(r) - f_L(r') is strictly decreasing
    in r, hence increasing in s, and plain bisection suffices.
    """

    def pair(s):
        rp = math.exp(s)
        return rprime(rp), rp

    def g(s):
        r, rp = pair(s)
        return K * _f_c_pair(L, r, rp) - _f_c_pair(L, rp, r)

    return pair(bisect_root(g, _LOG_RP_MIN, math.log(rprime(r_lo)), tol=1e-12))


def solve_r_LK(K: float, L: float) -> float:
    """Unique root r in (r_L, 1) of K f_L(r) = f_L(r'), for K > M_L."""
    ml = M_L_of(L)
    if K <= ml:
        raise NoRootError(f"K = {K} <= M_L = {ml}: use the r_L branch instead")
    return _root_pair(K, L, r_L_of(L))[0]


def T_of(x: float, L: float, K: float) -> float:
    """T(x, L) = arth(L x) (arth(L sqrt(1-x^2)))^(1/K)."""
    return _T(x, rprime(x), L, K)


def _T(x: float, xp: float, L: float, K: float) -> float:
    """T_of from x and x' = sqrt(1 - x^2), each arth through specfun._arth_cx."""
    return _arth_cx(L, x, xp) * _arth_cx(L, xp, x) ** (1.0 / K)


def qc_product_bound(inp: QcBoundInput) -> QcBoundResult:
    """Bound on D1*D2 for the image of a Lambert quadrilateral."""
    K, L = inp.K, inp.L
    ak2 = distortion_A(K) ** 2
    small_branch = arth(math.sqrt(2.0) / 2.0 * L) ** (2.0 / K)
    if L <= TH1:
        return QcBoundResult(
            r_L=math.nan,
            M_L=math.nan,
            regime=QcRegime.SMALL_L,
            r_LK=None,
            bound=ak2 * small_branch,
        )
    rl = r_L_of(L)
    ml = M_L_of(L)
    if K <= ml:
        r_star, rp_star = rl, rprime(rl)
        regime = QcRegime.LARGE_L_K_LE_M
        r_lk = None
    else:
        r_star, rp_star = _root_pair(K, L, rl)
        r_lk = r_star
        regime = QcRegime.LARGE_L_K_GT_M
    bound = ak2 * max(_T(r_star, rp_star, L, K), small_branch)
    return QcBoundResult(r_L=rl, M_L=ml, regime=regime, r_LK=r_lk, bound=bound)


def qc_ideal_bound(K: float) -> float:
    """Bound on D1*D2 for the image of an ideal quadrilateral."""
    _check_K(K, "qc_ideal_bound")
    if K > M1:
        r_star, rp_star = _root_pair(K, 1.0, R1)
    else:
        r_star, rp_star = R1, R1_PRIME
    t_val = _T(r_star, rp_star, 1.0, K)
    return distortion_A(K) ** 2 * max(2.0 ** (1.0 + 1.0 / K) * t_val, IDEAL_PRODUCT_BOUND)
