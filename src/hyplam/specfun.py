"""Special functions: arth, Hoelder means, the lemma-function family, the
Groetzsch ring modulus mu, the distortion function phi_K, and the
quasiconformal distance-distortion constant A(K).

One numeric core serves scalar and array callers. `arth`, `arth_complement`,
`rprime`, `grotzsch_mu`, the lemma and `aux_*` functions, `mu_inverse`,
`phi_K`, `distortion_A`, `distortion_bracket`, the elementwise `holder_mean`
and the private kernels `_arth_cx`, `_mu_pair` and `_mu_inverse_pair` also
take ndarrays, row by row under the scalar rules: each formula is written
once, over the table `_rows.ns` picks, and a bad row raises the scalar's
DomainError. A scalar call neither loads nor touches numpy, and returns a
Python float; a row warns only where its scalar call raises, and agrees with
it to within the rounding of numpy's log1p, log, exp, arctanh and power
against libm's (a few ulp; tests/test_array_core.py). `rprime` and series
rows equal theirs bit for bit. `g_range` and `big_C_of_p` take scalars only.

mu and its inverse are closed forms in the Jacobi nome (Anderson,
Vamanamurthy and Vuorinen, Conformal Invariants, Inequalities, and
Quasiconformal Maps, 1997), each used where its nome is at most e^{-pi},
with mu(r) mu(r') = pi^2/4 on the other side. mu(r) = -log(q)/2 sums the
nome series of Abramowitz and Stegun 17.3.21 for the smaller of r and r';
mu^{-1}(y) = theta_2(q)^2/theta_3(q)^2 at q = e^{-2y} for y >= pi/2, and
from the complementary nome e^{-pi^2/(2y)} below. The arithmetic-geometric
mean, pi/2 agm(1, r')/agm(1, r), is mu's independent oracle in `optimize`,
and is not used here. The complement r' is carried along as log r', which
keeps phi_K and A(K) accurate where r rounds to 1. A(K) = 2 arth phi_K(th 1/2) takes
mu(th 1/2) from a module constant, computed once at import, so a call of
A(K) evaluates mu^{-1} once and mu never; `_distortion_A` keeps its last
float K and A(K), so consecutive calls at one K (a bound request's
distortion_A, qc_product_bound and qc_ideal_bound) evaluate mu^{-1} once
between them, and rows never read or write it. The other values that do not
depend on the argument (in `distortion_bracket` and `g_range(1)`) are
module constants too. The classical identity
phi_2(r) = 2 sqrt(r)/(1+r) is used only in tests, never here.

C(p) = sup h_p is h_p at the root of h_p', found by `_itp`, the closed forms' one
root solver, in u = -log(1 - r), so that it stays accurate however near 1 the
root lies; nothing here imports `optimize`, which holds the oracles.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from numbers import Real

from . import _rows
from .errors import DomainError, _new_tuple, _Record

SQRT2_2 = math.sqrt(2.0) / 2.0


def arth(x):
    """Inverse hyperbolic tangent on [0, 1]; arth(1) is +inf."""
    _rows.require((0.0 <= x) & (x <= 1.0), x, "arth", "x in [0, 1]")
    if (ns := _rows.ns(x)) is _rows.SCALAR:  # math.atanh(1) raises ValueError, numpy's arctanh gives inf
        return math.atanh(x) if x != 1.0 else math.inf
    with ns.errstate(divide="ignore"):
        return ns.arctanh(x)


def rprime(r):
    """sqrt(1 - r^2) for r in [0, 1]; 0 where 1 - r^2 is negative or NaN. On
    rows |r| is taken at most 2, which leaves every result's bits and keeps a
    row past |r| ~ 1e154 from overflowing, as a scalar does quietly."""
    if _rows.is_rows(r):
        r = _rows.rows().minimum(abs(r), 2.0)
    rp2 = (1.0 - r) * (1.0 + r)
    ns = _rows.ns(rp2)
    return ns.sqrt(ns.fmax(0.0, rp2))


def _arth_cx(c, x, xp, ns=_rows.SCALAR):
    """arth(c x) for c in (0, 1] and x in [0, 1], given x' = sqrt(1 - x^2).

    1 - c x is written (1 - c) + c x'^2/(1 + x), which cannot cancel, so x
    may even have rounded to 1. Where it is below 1e-300 (c = 1, x' below
    ~1e-150), arth x is log1p(x) - log x', and arth 1 = inf where x' = 0.
    With the rows table the arguments are ndarrays (or floats among them),
    and each row takes the form its scalar call takes, and only that one.
    """
    den = (1.0 - c) + c * xp * xp / (1.0 + x)
    if ns is _rows.SCALAR:  # math.log(0) raises ValueError, numpy's log gives -inf
        if den < 1e-300:
            return _arth_near_one(ns, x, xp) if xp else math.inf
    else:
        near = den < 1e-300
        if near.any():
            c, x, xp = ns.broadcast_arrays(c, x, xp, den)[:3]
            far = ~near
            out = ns.empty(den.shape)
            out[far] = _arth_cx(c[far], x[far], xp[far], ns)
            with ns.errstate(divide="ignore"):  # log 0 = -inf
                out[near] = _arth_near_one(ns, x[near], xp[near])
            return out
    return 0.5 * ns.log1p(2.0 * c * x / den)


def _arth_near_one(ns, x, xp):
    """arth x = log1p(x) - log x', by the functions of ns."""
    return ns.log1p(x) - ns.log(xp)


def arth_complement(r):
    """arth(sqrt(1 - r^2)), stable for tiny r."""
    _check_open01(r, "arth_complement")
    return _arth_cx(1.0, rprime(r), r, _rows.ns(r))


def holder_mean(p, r, s):
    """Power mean of order p, elementwise for arrays p, r and s; geometric
    mean where p = 0. A NaN argument gives NaN, a non-positive one DomainError,
    an infinite one the limit. It is sqrt(r s) at p = 0 and _far_power_mean
    elsewhere, within 4 ulp of 50-digit mpmath for every p (test_specfun_accuracy.py)."""
    ns = _rows.rows() if _rows.is_rows(p) else _rows.ns(r, s)
    if ns.any((r <= 0.0) | (s <= 0.0)):
        raise DomainError("holder_mean needs positive arguments")
    if ns is _rows.SCALAR:
        return _geometric_mean(r, s) if p == 0.0 else _far_power_mean(p, r, s)
    geometric = p == 0.0
    with ns.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as quiet as a scalar
        return ns.where(geometric, _geometric_mean(r, s, ns), _far_power_mean(ns.where(geometric, 1.0, p), r, s, ns))


#: the smallest normal double: a product r s below it has lost digits
_NORMAL = 2.0**-1022


def _geometric_mean(r, s, ns=_rows.SCALAR):
    """sqrt(r s), or sqrt(r) sqrt(s) where r s is not a normal double."""
    rs = r * s
    far = (rs < _NORMAL) | (rs == math.inf)
    return ns.where(far, ns.sqrt(r) * ns.sqrt(s), ns.sqrt(rs)) if ns.any(far) else ns.sqrt(rs)


def _far_power_mean(p, r, s, ns=_rows.SCALAR):
    """The power mean of order p != 0 as sqrt(r s) cosh(p d)^(1/p), d = log(max/min)/2,
    which takes no power of r or s and no 1/p: with y = |p| d, log cosh y is
    log1p(-expm1(y) expm1(-y)/2) for y <= 1, which keeps the digits of a tiny p, and
    y + log1p(e^(-2y)) - log 2 above, where sqrt(r s) e^(y/p) is the larger argument for
    p > 0 and the smaller for p < 0. Each exponent is taken only where its branch is
    selected, so nothing overflows. Equal arguments are their mean, whatever p but NaN."""
    first = r >= s
    hi, lo = ns.where(first, r, s), ns.where(first, s, r)
    if ns.any(at_inf := (hi == math.inf) & (lo == lo)):  # the limit at hi = inf; a NaN lo stays NaN
        finite = _far_power_mean(p, ns.where(at_inf, 1.0, r), ns.where(at_inf, 1.0, s), ns)
        return ns.where(at_inf, ns.where(p > 0.0, math.inf, lo * ns.power(2.0, -1.0 / p)), finite)
    ratio = hi / lo
    d = 0.5 * ns.log(ratio)
    if ns.any(ratio == math.inf):  # lo is subnormal, or hi/lo passes the doubles
        d = ns.where(ratio < math.inf, d, 0.5 * (ns.log(hi) - ns.log(lo)))
    y = abs(p) * d
    near = y <= 1.0
    c = ns.minimum(y, 1.0)
    log_cosh = ns.where(near, ns.log1p(-ns.expm1(c) * ns.expm1(-c) / 2.0), ns.log1p(ns.exp(-2.0 * y)) - math.log(2.0))
    mean = ns.where(near, _geometric_mean(r, s, ns), ns.where(p > 0.0, hi, lo)) * ns.exp(log_cosh / p)
    return ns.where((hi == lo) & (p == p), lo, mean)  # where y = |p| 0 is NaN at p = +-inf, and r r may round


# ---------------------------------------------------------------------------
# Lemma-function family


def _check_open01(r, what: str):
    _rows.require((0.0 < r) & (r < 1.0), r, what, "r in (0, 1)")


def _check_c(c, what: str):
    _rows.require((0.0 < c) & (c <= 1.0), c, what, "c in (0, 1]")


def _f_c_pair(c, x, xp, ns=_rows.SCALAR):
    """f_c(x) from x and x' = sqrt(1 - x^2), neither recomputed from the other.

    1 - (c x')^2 is written (1 - c)(1 + c) + (c x)^2, which cannot cancel,
    and is divided by x before arth(c x), so that a tiny x overflows to inf
    instead of dividing by an underflowed x arth(c x). Where c x itself
    underflows, arth(c x) is 0 and f_c, above 1/(c x), is inf too. An
    ndarray row gives its inf as quietly as its scalar call.
    """
    den = _arth_cx(c, x, xp, ns)
    if ns is _rows.SCALAR:  # Python's division by 0 raises ZeroDivisionError, numpy's gives inf
        return _f_c_num(c, x) / den if den else math.inf
    with ns.errstate(over="ignore", divide="ignore"):
        return _f_c_num(c, x) / den


def _f_c_num(c, x):
    """(1 - (c x')^2)/x, as (1 - c)(1 + c)/x + c^2 x: inf for a tiny x."""
    return (1.0 - c) * (1.0 + c) / x + c * c * x


def lemma_f_c(c, r):
    """f_c(r) = (1 - (c r')^2) / (r arth(c r)); strictly decreasing in r."""
    _check_c(c, "lemma_f_c")
    _check_open01(r, "lemma_f_c")
    return _f_c_pair(c, r, rprime(r), _rows.ns(c, r))

def lemma_F_c(c, r):
    """F_c(r) = arth(c r) arth(c r'); max (arth(c sqrt2/2))^2 at r = sqrt2/2."""
    _check_c(c, "lemma_F_c")
    _check_open01(r, "lemma_F_c")
    ns, rp = _rows.ns(c, r), rprime(r)
    return _arth_cx(c, r, rp, ns) * _arth_cx(c, rp, r, ns)


def lemma_G_c(c, r):
    """G_c(r) = arth(c r) + arth(c r')."""
    _check_c(c, "lemma_G_c")
    _check_open01(r, "lemma_G_c")
    return _G_c(c, r, _rows.ns(c, r))


def _G_c(c, r, ns=_rows.SCALAR):
    """lemma_G_c for c and r already checked, by the functions of ns."""
    rp = rprime(r)
    return _arth_cx(c, r, rp, ns) + _arth_cx(c, rp, r, ns)


_C_LOW = math.sqrt(2.0 / 3.0)
_C_LOW_LO = -1.7276510382355637e-18  # sqrt(2/3) - _C_LOW
_C_HIGH = math.sqrt(2.0 * (math.sqrt(2.0) - 1.0))
#: inf G_1 = arth(2 sqrt2/3), the lower end of g_range(1)
_G1_LOWER = arth(2.0 * math.sqrt(2.0) / 3.0)


class GRange(_Record):
    __slots__ = ()

    def __new__(cls, case: int, lower: float, upper: float, r0: float | None = None) -> "GRange":
        return _new_tuple(cls, (case, lower, upper, r0))


def g_range(c: float) -> GRange:
    """Closed-form range of G_c, split into the four regimes of c.

    Boundary values of c route to cases (1) and (3) respectively, matching
    the half-open case intervals.
    """
    _check_c(c, "g_range")
    return _g_range(c)


def _g_range(c: float) -> GRange:
    """g_range for a c already checked. math.atanh gives arth here: c < 1, and
    2 sqrt2 c/(2 + c^2) <= 2 sqrt2/3 < 1."""
    if c == 1.0:
        return _new_tuple(GRange, (4, _G1_LOWER, math.inf, None))
    mid_value = math.atanh(2.0 * math.sqrt(2.0) * c / (2.0 + c * c))
    if c <= _C_LOW:
        return _new_tuple(GRange, (1, math.atanh(c), mid_value, None))
    # 3c^2 - 2 = 3 (c - sqrt(2/3)) (c + sqrt(2/3)), where c - _C_LOW is exact
    m = math.sqrt((2.0 - c * c) * 3.0 * ((c - _C_LOW) - _C_LOW_LO) * (c + _C_LOW))
    # r0 = sqrt((1 - m/c^2)/2), rewritten through c^4 - m^2 = 4 (1 - c^2)^2
    # so that it does not cancel as c -> 1
    r0 = math.sqrt(2.0) * (1.0 - c) * (1.0 + c) / (c * math.sqrt(c * c + m))
    top = _G_c(c, r0)  # r0 in (0, 1)
    if c < _C_HIGH:
        return _new_tuple(GRange, (2, math.atanh(c), top, r0))
    return _new_tuple(GRange, (3, mid_value, top, r0))


def aux_h1(r):
    """r'/arth(r'); strictly increasing and concave, range (0, 1)."""
    _check_open01(r, "aux_h1")
    return _f_c_pair(1.0, rprime(r), r, _rows.ns(r))


def aux_h(r):
    """r/arth r + r'/arth r'; peaks at r = sqrt2/2 with value sqrt2/log(1+sqrt2)."""
    _check_open01(r, "aux_h")
    ns, rp = _rows.ns(r), rprime(r)
    return _f_c_pair(1.0, r, rp, ns) + _f_c_pair(1.0, rp, r, ns)


def aux_g_le2(p, r):
    """(r/r') (arth r / arth r')^(p-1), taken as r^p/r' ((arth r / r) / arth r')^(p-1), as
    in aux_g_pq: r inside the power overflows it for tiny r at p < 0, where the value is finite.
    Where r^p itself overflows, so does the value, which is inf."""
    _check_open01(r, "aux_g_le2")
    rp, ns = rprime(r), _rows.ns(p, r)
    return ns.power(r, p) / rp * ((arth(r) / r) / _arth_cx(1.0, rp, r, _rows.ns(r))) ** (p - 1.0)


def aux_slope_ratio(r):
    """(r'^4 arth r - r(1+r^2)) / (r'^2 ((1+r^2) arth r - r)); decreasing, < -2.

    With t = r^2, r'^2 = (1 - r)(1 + r) and A = (arth r - r)/r^3, it is
    (A r'^4 + t - 3) / (r'^2 (1 + A (1 + t))), where no term cancels. Below
    r = 0.6, where arth r - r would cancel, A = 1/3 + t B with the series
    B = 1/5 + t/7 + t^2/9 + ..., and the ratio is written -2 + t (3B - 5/3 -
    t/3 - t B (2 + t)) / (the same denominator), so it stays below -2 as it
    tends to -2 - 4t/5. An ndarray is split at r = 0.6 into the two forms.
    """
    _check_open01(r, "aux_slope_ratio")
    return _rows.split_at(r, 0.6, _slope_ratio_far, _slope_ratio_series)


def _slope_ratio_far(r):
    t, rp2 = r * r, (1.0 - r) * (1.0 + r)
    a = (arth(r) - r) / (r * t)
    return (a * rp2 * rp2 + (t - 3.0)) / (rp2 * (1.0 + a * (1.0 + t)))


def _slope_ratio_series(r):
    """The ratio through the series B, summed until it stops moving: on rows,
    until no row moves. A row that has stopped stays put, as its next terms
    are smaller still, so it equals its scalar call bit for bit."""
    t, rp2, ns = r * r, (1.0 - r) * (1.0 + r), _rows.ns(r)
    b, term, k = 0.0 * t, 1.0, 5
    while ns.any(b + term / k != b):
        b, term, k = b + term / k, term * t, k + 2
    a = 1.0 / 3.0 + t * b
    return -2.0 + t * (3.0 * b - 5.0 / 3.0 - t / 3.0 - t * b * (2.0 + t)) / (rp2 * (1.0 + a * (1.0 + t)))


def aux_h_p(p, r):
    """1 + ((p + 1) r'^2 - 2) arth(r)/r; r'^2 = (1 - r)(1 + r) keeps its digits as r -> 1.
    It tends to p as r -> 0, where 1 and the rest cancel for p near 0, so below r = 0.5
    (rows split there) it is p + t sum_{k>=1} t^{k-1} ((p-1)/(2k+1) - (p+1)/(2k-1)), t = r^2.
    DomainError for a p that is not finite, whose series would never stop."""
    _rows.require((-math.inf < p) & (p < math.inf), p, "aux_h_p", "a finite p")
    _check_open01(r, "aux_h_p")
    if _rows.is_rows(p):  # a row of r per row of p: bool() of a mask raises ValueError in a scalar r's series
        r, p = _rows.rows().broadcast_arrays(r, p)
    return _rows.split_at(r, 0.5, _h_p_far, _h_p_series, p)


def _h_p_far(r, p):
    return 1.0 + ((p + 1.0) * (1.0 - r) * (1.0 + r) - 2.0) * (arth(r) / r)


def _h_p_series(r, p):
    """Term k is -2 t^{k-1} (2k + p)/(4k^2 - 1); summed until its bound with |p|, which falls with k,
    stops moving the sum. Terms change sign, so a row that has stopped takes no more of them. The 2 is
    taken last, so that no term or bound overflows for a finite p: 4k + 2|p| would from |p| ~ 9e307."""
    t, ns = r * r, _rows.ns(r)
    s, tk, k = 0.0 * t, 1.0, 1
    while ns.any(moving := s + 2.0 * (tk * (2.0 * k + abs(p)) / (4.0 * k * k - 1.0)) != s):
        s, tk, k = s - moving * (2.0 * (tk * (2.0 * k + p) / (4.0 * k * k - 1.0))), tk * t, k + 1
    return p + t * s


def aux_g_pq(p, q, r):
    """arth(r)^(q-1) / (r^(p-1) r'^2), taken as (arth r / r)^(q-1) r^(q-p) / r'^2:
    r^(p-1) alone overflows for tiny r where the value is finite, and
    r'^2 = (1 - r)(1 + r) keeps its digits as r -> 1. DomainError for a p or q that is not finite."""
    _rows.require((-math.inf < p) & (p < math.inf), p, "aux_g_pq", "a finite p")
    _rows.require((-math.inf < q) & (q < math.inf), q, "aux_g_pq", "a finite q")
    _check_open01(r, "aux_g_pq")
    if (ns := _rows.ns(r, q - p)) is _rows.SCALAR:  # SCALAR.errstate would raise AttributeError: inf * 0 is quiet
        return _g_pq(p, q, r)
    with ns.errstate(over="ignore", invalid="ignore"):  # ns is the rows table if any of p, q and r holds rows
        return _g_pq(p, q, r, ns)


def _g_pq(p, q, r, ns=_rows.SCALAR):
    x, k, n = arth(r) / r, q - 1.0, q - p
    g = ns.power(x, k) * ns.power(r, n)
    # inf * 0 where one power leaves the doubles above and the other below: the
    # value is then 0 or inf, or ill-conditioned, and its log is the logs' sum
    return ns.where(g == g, g, ns.power(math.e, k * ns.log(x) + n * ns.log(r))) / ((1.0 - r) * (1.0 + r))


def threshold_C() -> float:
    """1 - log(1+sqrt2)/sqrt2, the monotonicity threshold of aux_g_le2."""
    return 1.0 - math.log(math.sqrt(2.0) + 1.0) / math.sqrt(2.0)


def _itp(g, a: float, b: float, ga: float, gb: float, tol: float) -> float:
    """Root of an increasing g in [a, b], ga < 0 < gb, by ITP (Oliveira and
    Takahashi, ACM TOMS 47(1), 2020), to a bracket of width tol or of adjacent
    doubles. kappa2 = 2, n0 = 1 and kappa1 = 0.1, not 0.2/(b - a), as the
    brackets here are at most ~1 wide: the regula falsi point, moved towards
    the midpoint by kappa1 w^2 (at least tol/4, so that a root next to an end
    is bracketed at once), then projected into the interval around the
    midpoint that keeps the step count within one of bisection's."""
    n_max = max(math.ceil(math.log2((b - a) / tol)), 0) + 1
    least = 0.25 * tol
    reach = 0.5 * tol * 2.0**n_max  # eps 2^(n_max - j) at step j
    for _ in range(n_max):
        w = b - a
        mid = a + 0.5 * w
        if w <= tol or not a < mid < b:
            break
        xf = a - ga * w / (gb - ga)  # NaN where ga = -inf
        move = 0.1 * w * w
        if move < least:
            move = least
        radius = reach - 0.5 * w
        reach *= 0.5
        d = mid - xf
        if d >= 0.0:
            x = xf + move if move <= d else mid
            if x < mid - radius:
                x = mid - radius
        elif d < 0.0:
            x = xf - move if move <= -d else mid
            if x > mid + radius:
                x = mid + radius
        else:
            x = mid
        if not a < x < b:
            x = mid
        gx = g(x)
        if gx > 0.0:
            b, gb = x, gx
        elif gx < 0.0:
            a, ga = x, gx
        else:
            return x
    return a + 0.5 * (b - a)


def _h_p_parts(u: float) -> tuple[float, float, float]:
    """r, r'^2 and a = arth(r)/r at 1 - r = e^{-u}: r = -expm1(-u),
    r'^2 = e^{-u}(2 - e^{-u}) and arth r = (u + log1p(r))/2, each to a few ulp
    however near 1 r lies, where r itself, rounded, keeps none of 1 - r."""
    t, r = math.exp(-u), -math.expm1(-u)
    return r, t * (2.0 - t), 0.5 * (u + math.log1p(r)) / r


def _aux_h_p_fall(p: float, u: float) -> float:
    """r'^2 (-d/dr aux_h_p(p, r)) at 1 - r = e^{-u}, which has the sign of
    -h_p' and increases with u: 2 (p + 1) r a r'^2 - ((p + 1) r'^2 - 2) r'^2 a'
    with a = arth(r)/r and r'^2 a' = (1 - a r'^2)/r. That cancels as r -> 0,
    where a' = 2r/3 + 4r^3/5 is used. Taken times r'^2, it neither overflows
    nor loses 1/r'^2 as r -> 1, and stays 2/r > 0 where e^{-u} underflows."""
    r, rp2, a = _h_p_parts(u)
    da = rp2 * r * (2.0 / 3.0 + 0.8 * r * r) if r < 1e-4 else (1.0 - a * rp2) / r
    return ((p + 1.0) * rp2) * (2.0 * r * a) - ((p + 1.0) * rp2 - 2.0) * da


def _h_p_at(p: float, u: float) -> float:
    """aux_h_p(p, r) = 1 + ((p + 1) r'^2 - 2) arth(r)/r at 1 - r = e^{-u}."""
    _, rp2, a = _h_p_parts(u)
    return 1.0 + ((p + 1.0) * rp2 - 2.0) * a


def big_C_of_p(p: float) -> float:
    """C(p) = sup over (0, 1) of aux_h_p for p < -2: h_p at the root r* of h_p'.

    r* is solved for in u = -log(1 - r), as qcbounds solves for r in
    s = log r', with h_p written through 1 - r = e^{-u} (see _h_p_parts): as
    p -> -inf, 1 - r* ~ 1/(|p| log|p|) leaves the doubles near 1 (r* rounds
    to 1 from p ~ -2.5e14 on), while u* ~ log|p| + log log|p| stays below 720
    for every finite p. The root is bracketed in [u(1e-12), 750]: near 0,
    h_p' ~ -(4/3)(p + 2) r > 0, and _aux_h_p_fall is 2/r > 0 where e^{-u}
    underflows. It is found to 2^-53 or adjacent doubles, and h_p is
    stationary there, so the largest h_p at the result and its neighbouring
    doubles is within rounding of C(p): a few ulp for every finite p < -2.
    C(p) ~ -log|p| - log log|p| - log 2 as p -> -inf. DomainError for
    p >= -2, p = -inf and NaN; never NaN.
    """
    if not -math.inf < p < -2.0:
        raise DomainError("big_C_of_p needs a finite p < -2 (the sup is not attained otherwise)")
    a, b = -math.log1p(-1e-12), 750.0
    g = partial(_aux_h_p_fall, p)
    u = _itp(g, a, b, g(a), g(b), 2.0**-53)
    # _itp returns either end of its last bracket: take the double nearest u*
    return max(_h_p_at(p, x) for x in (math.nextafter(u, 0.0), u, math.nextafter(u, math.inf)))


class ConvexityClass(Enum):
    CONVEX_D1 = "convex_d1"
    CONVEX_D2 = "convex_d2"
    NOT_CONVEX = "not_convex"


def classify_convexity(p: float, q: float) -> ConvexityClass:
    """Region where arth is strictly H_{p,q}-convex on (0, 1)."""
    if p >= -2.0:
        return ConvexityClass.CONVEX_D1 if q >= p else ConvexityClass.NOT_CONVEX
    return ConvexityClass.CONVEX_D2 if q >= big_C_of_p(p) else ConvexityClass.NOT_CONVEX


# ---------------------------------------------------------------------------
# Groetzsch modulus and distortion


def grotzsch_mu(r):
    """Conformal modulus of the plane Groetzsch ring; decreasing on (0,1)."""
    _check_open01(r, "grotzsch_mu")
    return _mu_pair(r, rprime(r), _rows.ns(r))


def _mu_pair(r, rp, ns=_rows.SCALAR):
    """mu(r) from r and r' = sqrt(1 - r^2), neither recomputed from the other.

    For r <= r', mu(r) = -log(q)/2 with q the nome of the modulus r:
    q = l + 2 l^5 + 15 l^9 + 150 l^13 + 1707 l^17 + ..., l = r^2/den and
    den = 2 (1 + r')(1 + sqrt r')^2 (Abramowitz and Stegun 17.3.21), which
    cannot cancel as r -> 0. log q is taken as 2 log r - log den + log1p(...),
    so l never underflows; l <= 0.0432, so the next term is below 1e-22 of
    the sum. For r > r', mu(r) = pi^2/(4 mu(r')).
    """
    a, b = ns.minimum(r, rp), ns.fmax(r, rp)
    den = 2.0 * (1.0 + b) * (1.0 + ns.sqrt(b)) ** 2
    t = (a * a / den) ** 4
    m = -0.5 * (2.0 * ns.log(a) - ns.log(den) + ns.log1p(t * (2.0 + t * (15.0 + t * (150.0 + 1707.0 * t)))))
    return ns.where(r <= rp, m, _PI2_4 / m)


_HALF_PI = math.pi / 2.0
_PI2_4 = math.pi**2 / 4.0
#: mu(th 1/2), the one value of mu that A(K) needs
_MU_TH_HALF = grotzsch_mu(math.tanh(0.5))


def _check_K(K, what: str):
    """K, or float(K) for a real scalar K that is not a Python float (an int,
    a numpy float), so that every scalar call returns a float and reaches the
    A(K) memo; DomainError unless K, or each row of it, is finite and >= 1 (an
    int beyond the doubles is named +-inf, not by its digits)."""
    if type(K) is not float and isinstance(K, Real):
        try:
            K = float(K)
        except OverflowError:
            K = math.inf if K > 0 else -math.inf
    if (bad := _rows.first_bad((1.0 <= K) & (K < math.inf), K)) is not None:
        raise DomainError(f"{what} needs a finite K >= 1, got K = {bad}")
    return K


def _nome_moduli(t, ns=_rows.SCALAR):
    """(m, c) with k = m e^{-t} and k' = (1 - c)^2, the moduli of the Jacobi
    nome q = e^{-2t}, for t >= pi/2.

    k = theta_2(q)^2/theta_3(q)^2 and k' = theta_4(q)^2/theta_3(q)^2. With
    q^{1/4} theta_2 = 2 e^{-t/2} (1 + sum q^{n(n+1)}), k keeps its relative
    accuracy until e^{-t} underflows; with theta_3 - theta_4 = 4 sum_{n odd}
    q^{n^2}, so does 1 - k'. Since q <= e^{-pi}, the first omitted term of
    each sum is below 1e-27 of the sum.
    """
    q = ns.exp(-2.0 * t)
    s2 = q**2 + q**6 + q**12  # sum of q^{n(n+1)}, n >= 1
    odd = q + q**9 + q**25  # sum of q^{n^2}, odd n
    theta3 = 1.0 + 2.0 * (odd + q**4 + q**16)
    return 4.0 * ((1.0 + s2) / theta3) ** 2, 4.0 * odd / theta3


def _mu_inverse_pair(y, ns=_rows.SCALAR):
    """(r, log r') with grotzsch_mu(r) = y > 0 and r' = sqrt(1 - r^2); rows of
    an ndarray y each from the nome of their scalar call. r' is returned as its
    log: it underflows (K above ~600 in A(K)) long before A(K) = 2 log((1 + r)/r')."""
    return _rows.split_at(y, _HALF_PI, _pair_by_nome, _pair_by_conome, ns)


def _pair_by_nome(y, ns):
    m, c = _nome_moduli(y, ns)
    return m * ns.exp(-y), 2.0 * ns.log1p(-c)


def _pair_by_conome(y, ns):
    # r' = mu^{-1}(pi^2/(4y)), whose nome is q' = e^{-pi^2/(2y)} <= e^{-pi}
    t = _PI2_4 / y
    m, c = _nome_moduli(t, ns)
    return (1.0 - c) ** 2, ns.log(m) - t


def mu_inverse(y):
    """Inverse of grotzsch_mu, in closed form from the Jacobi nome."""
    if (bad := _rows.first_bad(y > 0.0, y)) is not None:
        raise DomainError(f"mu_inverse needs y > 0, got y = {bad}")
    r = _mu_inverse_pair(y, _rows.ns(y))[0]
    if (bad := _rows.first_bad(r > 0.0, y)) is not None:
        raise DomainError(f"mu_inverse(y = {bad}) underflows to 0")
    return r


def phi_K(K, r):
    """Hersch-Pfluger distortion mu^{-1}(mu(r)/K), K >= 1."""
    K = _check_K(K, "phi_K")
    _check_open01(r, "phi_K")
    return mu_inverse(grotzsch_mu(r) / K)


def distortion_A(K):
    """A(K) = 2 arth(phi_K(th 1/2)); A(1) = 1.

    2 arth phi is taken as 2 log((1 + phi)/phi') from the pair (phi, log phi'),
    so it stays accurate where phi rounds to 1. mu(th 1/2) is the module
    constant _MU_TH_HALF, so a call evaluates no mu, only mu^{-1}.
    """
    K = _check_K(K, "distortion_A")
    return _distortion_A(K, _rows.ns(K))


#: the last float K of _distortion_A and its A(K): a bound request asks for A
#: at one K in distortion_A, qc_product_bound and qc_ideal_bound
_last_A = (None, None)


def _distortion_A(K, ns=_rows.SCALAR):
    """distortion_A for a K already checked, by the functions of ns.

    A call at a Python float K, which every scalar K is once _check_K has
    passed it, returns the last such call's A(K) where K equals its own.
    Rows never read or write it."""
    global _last_A
    keep = type(K) is float
    if keep:
        last_K, a = _last_A
        if K == last_K:
            return a
    phi, log_phip = _mu_inverse_pair(_MU_TH_HALF / K, ns)
    a = 2.0 * (ns.log1p(phi) - log_phip)
    if keep:
        _last_A = (K, a)
    return a


#: the constants of distortion_bracket: arccosh e, u = arccosh(e) th(arccosh e),
#: v = log(2 (1 + sqrt(1 - 1/e^2))) and log 2
_ARCH_E = math.acosh(math.e)
_BRACKET_U = _ARCH_E * math.tanh(_ARCH_E)
_BRACKET_V = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / (math.e * math.e))))
_LOG2 = math.log(2.0)


def distortion_bracket(K):
    """(K, u(K-1)+1, log(cosh(K arccosh e)), A(K), v(K-1)+K), a monotone chain.
    K is checked first, as a K far below 1 overflows e^{-2 K arccosh e}."""
    K = _check_K(K, "distortion_bracket")
    ns = _rows.ns(K)
    return (
        K,
        _BRACKET_U * (K - 1.0) + 1.0,
        # log cosh x = x - log 2 + log1p(e^{-2x}), which cannot overflow
        K * _ARCH_E - _LOG2 + ns.log1p(ns.exp(-2.0 * K * _ARCH_E)),
        _distortion_A(K, ns),
        _BRACKET_V * (K - 1.0) + K,
    )
