"""Upper bounds for products of opposite-side distances under K-quasiconformal
self-maps of the disk; no quasiconformal map is ever constructed.

Each bound is A(K)^2 max(T, B): T = T(r, L) at the branch's r (times
2^{1+1/K} for the ideal bound, L = 1) and B the unmapped sharp bound,
arth(L/sqrt2)^{2/K} or (2 log(1 + sqrt2))^2. This is how the code reads the
paper's max, and it computes only a side that can win it:

- K <= M_L, L > th(1): T = T(r_L, L) never wins. arth(L r_L) = 1 and
  L r_L' = sqrt(L^2 - th^2 1), so T <= B is the K-free inequality
  arth(sqrt(L^2 - th^2 1)) <= arth(L/sqrt2)^2 on (th(1), 1], whose smallest
  relative margin is 0.63%, at L = 1. The bound is A(K)^2 B.
- The ideal bound: 2^{1+1/K} T is the sup over x in [r_1, 1) of
  2 arth x (2 arth x')^{1/K}, at r_1 for K <= M_1 and at the root above.
  There 2 arth x' <= 2 arth r_1' = 1, so each term, and so the sup, is
  nondecreasing in K. At K = IDEAL_K_CUT = 2.32 the sup is 3.1070388 < B =
  3.1072776 (7.7e-5 relative), so up to the cut the bound is A(K)^2 B, with
  no root solved; T first wins at K* = 2.3204520...
- K > M_L, and K > IDEAL_K_CUT for the ideal bound: each side wins somewhere.
  The registry claim `qc-branch-decided` checks both inequalities.

Above M_L the bound sits at the root r_{L,K} of K f_L(r) = f_L(r'), solved
for in s = log r' by `_root_s`. At L = 1 the root has r' ~ 2 e^{-K}, below
the smallest double from K ~ 745 on, so the equation is evaluated wholly in
s (`_g`), and the bounds stay finite until their values overflow, near
K = 4e102 at L = 1; from there they raise DomainError.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial

from . import _rows
from .errors import DomainError, NoRootError, _new_tuple, _Record
from .lambert import IDEAL_PRODUCT_BOUND, _check_L, _product_root
from .specfun import _LOG2, _arth_cx, _check_K, _distortion_A, _f_c_pair, _itp, lemma_f_c, rprime

#: th(1) = (e^2 - 1)/(e^2 + 1), the small-L / large-L branch point
TH1 = (math.e**2 - 1.0) / (math.e**2 + 1.0)

#: r_1 = 2 sqrt(e)/(e + 1): where 2 arth r = 1 flips its max-branch
R1 = 2.0 * math.sqrt(math.e) / (math.e + 1.0)
R1_PRIME = (math.e - 1.0) / (math.e + 1.0)

#: M_1 = f_1(r_1')/f_1(r_1), the K-threshold of the ideal-quadrilateral bound
M1 = lemma_f_c(1.0, R1_PRIME) / lemma_f_c(1.0, R1)

#: below this r', f_1(r') = 1 - r'^2/3 + ... is 1 to the last bit (and r' has
#: lost digits or underflowed), while f_L(r') > (1 - L^2)/r'^2 overflows for L < 1
_RP_TINY = 1e-300
#: the root is solved for to this width in s
_S_TOL = 1e-12
#: T(r) is stationary at the root (its equation is d log T/ds = 0), and
#: d^2 log T/ds^2 ~ 1/K^2 there: a bound that needs only T at the root has it
#: to ~1e-15 from s to this width
_S_TOL_T_ONLY = 1e-7
_LOG_R1_PRIME = math.log(R1_PRIME)
#: up to this K the ideal bound's T term cannot win its max (module docstring)
IDEAL_K_CUT = 2.32


class QcRegime(Enum):
    SMALL_L = "small_L"
    LARGE_L_K_LE_M = "large_L_K_le_M"
    LARGE_L_K_GT_M = "large_L_K_gt_M"


class QcBoundInput(_Record):
    __slots__ = ()

    def __new__(cls, K: float, L: float) -> "QcBoundInput":
        K = _check_K(K, "QcBoundInput")
        _check_L(L)
        return _new_tuple(cls, (K, L))


class QcBoundResult(_Record):
    """A bound and its branch; None for a value that does not apply: r_L and
    M_L where L <= th(1), r_LK where K <= M_L."""

    __slots__ = ()

    def __new__(
        cls, r_L: float | None, M_L: float | None, regime: QcRegime, r_LK: float | None, bound: float
    ) -> "QcBoundResult":
        return _new_tuple(cls, (r_L, M_L, regime, r_LK, bound))

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self)) | {"regime": self[2].value}


def r_L_of(L):
    """r_L = th(1)/L, where arth(L r) = 1."""
    _rows.require((TH1 < L) & (L <= 1.0), L, "r_L_of", "L in (th(1), 1]")
    return _r_L(L)


def _r_L(L):
    """r_L_of for an L already checked."""
    return TH1 / L


def M_L_of(L):
    """M_L = f_L(r_L') / f_L(r_L) > 1."""
    rl = r_L_of(L)
    return _M_L(L, rl, rprime(rl), _rows.ns(L))


def _M_L(L, rl, rlp, ns=_rows.SCALAR):
    """M_L_of from r_L and r_L' for an L already checked, by lemma_f_c's arithmetic."""
    return _f_c_pair(L, rlp, rprime(rlp), ns) / _f_c_pair(L, rl, rlp, ns)


def _r_of(s: float) -> float:
    """r = sqrt(1 - r'^2) at r' = e^s, which may underflow."""
    return math.sqrt(-math.expm1(2.0 * s))


def _g(K: float, L: float, s: float) -> float:
    """K f_L(r) - f_L(r') at r' = e^s; strictly increasing in s.

    At L = 1, f_1(r) = r/arth r with arth r = log1p(r) - s, and f_1(r') is 1
    where r' is tiny; for L < 1, f_L(r') overflows there.
    """
    rp = math.exp(s)
    r = math.sqrt(-math.expm1(2.0 * s))  # _r_of(s), inlined on the solver's hot path
    if L == 1.0:
        f_rp = _f_c_pair(1.0, rp, r) if rp >= _RP_TINY else 1.0
        return K * r / (math.log1p(r) - s) - f_rp
    if rp < _RP_TINY:
        return -math.inf
    return K * _f_c_pair(L, r, rp) - _f_c_pair(L, rp, r)


def _T_s(s: float, L: float, K: float) -> float:
    """T(r, L) at r' = e^s, wholly in s where r' is tiny (at L = 1 only)."""
    r, rp = _r_of(s), math.exp(s)
    if rp >= _RP_TINY:
        return _T(r, rp, L, K)
    # arth r = log1p(r) - s and arth(r')^(1/K) = e^{s/K} to the last bit
    return (math.log1p(r) - s) * math.exp(s / K)


def _root_s(K: float, L: float, s_hi: float, tol: float = _S_TOL) -> float:
    """s = log r' of the unique root r of K f_L(r) = f_L(r') with r' < e^{s_hi},
    where g(s) = K f_L(r) - f_L(r') is positive at s_hi.

    g is strictly increasing in s (f_L is strictly decreasing). The search
    starts at the root's asymptotics, capped at s_hi:

    - at L = 1, the expansion of K r/arth r = r'/arth r' in x = r'^2, with
      arth r = log(1 + r) - s: s = log 2 - K + x0 (K/6 - 1/4)
      + x0^2 (K^2/18 - 3K/40 + 1/32) + ..., x0 = 4 e^{-2K}. Its error is about
      (K x0)^3/50, so the first step is (K x0)^3/8;
    - for L < 1, the larger of that and s = log((1 - L^2) arth L/(K L))/2,
      from f_L(r) ~ 1/arth L and f_L(r') ~ (1 - L^2)/(L r'^2), with a first
      step of 1/4.

    From there it steps away from the sign of g, doubling the step, until g
    changes sign, and then solves to tol in s by ITP (`specfun._itp`), in 3 to
    12 evaluations of g where bisection took 53; only signs are compared.
    Neither end of the bracket depends on the range of doubles: s may lie far
    below log(DBL_MIN).
    """
    x = 4.0 * math.exp(-2.0 * K)
    kx = K * x  # 0 where x underflows, while K^2 may overflow
    s0 = _LOG2 - K + kx / 6.0 - 0.25 * x + kx * kx / 18.0 - 0.075 * kx * x + x * x / 32.0
    step = max(kx**3 / 8.0, tol)
    if L < 1.0:
        s0 = max(s0, 0.5 * math.log((1.0 - L) * (1.0 + L) * math.atanh(L) / (K * L)))
        step = 0.25
    s0 = min(s0, s_hi)
    g = partial(_g, K, L)
    g0 = g(s0)
    if g0 < 0.0:
        a, ga = s0, g0
        while True:
            b = min(a + step, s_hi)
            gb = g(b)
            if gb > 0.0:
                break
            if b == s_hi:
                # g(s_hi) > 0 but for rounding, when K is within a few ulp of
                # the threshold: the root is s_hi itself
                return s_hi
            a, ga, step = b, gb, 2.0 * step
    elif g0 > 0.0:
        b, gb = s0, g0
        while True:
            a = b - step
            ga = g(a)
            if ga < 0.0:
                break
            b, gb, step = a, ga, 2.0 * step
    else:
        return s0
    return _itp(g, a, b, ga, gb, tol)


def solve_r_LK(K: float, L: float) -> float:
    """Unique root r in (r_L, 1) of K f_L(r) = f_L(r'), for K > M_L;
    DomainError naming K or L outside its domain."""
    K = _check_K(K, "solve_r_LK")
    _rows.require((TH1 < L) & (L <= 1.0), L, "solve_r_LK", "L in (th(1), 1]")
    rl = _r_L(L)
    rlp = rprime(rl)
    ml = _M_L(L, rl, rlp)
    if K <= ml:
        raise NoRootError(f"K = {K} <= M_L = {ml}: use the r_L branch instead")
    return _r_of(_root_s(K, L, math.log(rlp)))


def T_of(x: float, L: float, K: float) -> float:
    """T(x, L) = arth(L x) (arth(L sqrt(1-x^2)))^(1/K); DomainError naming x,
    L or K outside its domain."""
    _rows.require((0.0 <= x) & (x <= 1.0), x, "T_of", "x in [0, 1]")
    _check_L(L)
    K = _check_K(K, "T_of")
    return _T(x, rprime(x), L, K)


def _T(x: float, xp: float, L: float, K: float) -> float:
    """T_of from x and x' = sqrt(1 - x^2), each arth through specfun._arth_cx."""
    return _arth_cx(L, x, xp) * _arth_cx(L, xp, x) ** (1.0 / K)


def _times_A2(K: float, value: float) -> float:
    """A(K)^2 value for a K already checked, or DomainError naming K where that
    is not a finite double: from K ~ 4e102 at L = 1 and for the ideal bound,
    which grow like K^3, and from K ~ 5e153 for every L."""
    a = _distortion_A(K)
    bound = a * a * value
    if not math.isfinite(bound):
        raise DomainError(f"the bound overflows a double at K = {K}")
    return bound


def qc_product_bound(inp: QcBoundInput) -> QcBoundResult:
    """Bound on D1*D2 for the image of a Lambert quadrilateral; DomainError
    where the bound is not a finite double. inp's K and L were checked when
    it was made, and are not checked again."""
    K, L = inp
    small_branch = _product_root(L) ** (2.0 / K)
    if L <= TH1:
        return _new_tuple(QcBoundResult, (None, None, QcRegime.SMALL_L, None, _times_A2(K, small_branch)))
    rl = _r_L(L)
    rlp = rprime(rl)
    ml = _M_L(L, rl, rlp)
    if K <= ml:  # T(r_L, L) cannot win the max (module docstring)
        return _new_tuple(QcBoundResult, (rl, ml, QcRegime.LARGE_L_K_LE_M, None, _times_A2(K, small_branch)))
    s = _root_s(K, L, math.log(rlp))
    bound = _times_A2(K, max(_T_s(s, L, K), small_branch))
    return _new_tuple(QcBoundResult, (rl, ml, QcRegime.LARGE_L_K_GT_M, _r_of(s), bound))


def qc_ideal_bound(K: float) -> float:
    """Bound on D1*D2 for the image of an ideal quadrilateral; DomainError
    where the bound is not a finite double."""
    K = _check_K(K, "qc_ideal_bound")
    if K <= IDEAL_K_CUT:  # 2^{1+1/K} T cannot win the max (module docstring)
        return _times_A2(K, IDEAL_PRODUCT_BOUND)
    t_val = _T_s(_root_s(K, 1.0, _LOG_R1_PRIME, _S_TOL_T_ONLY), 1.0, K)
    return _times_A2(K, max(2.0 ** (1.0 + 1.0 / K) * t_val, IDEAL_PRODUCT_BOUND))
