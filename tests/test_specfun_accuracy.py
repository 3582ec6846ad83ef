"""Relative accuracy of the Hersch-Pfluger layer, of mu, of arth(c x), of
C(p), of the slope ratio, of g_{p<=2}, of h_p and of the power mean against
mpmath at 50 digits (C(p) and the slope ratio at 60; mu at the digits that
keep 1 - r^2), and of the AGM, optimize's oracle of mu, against the plain loop.

The reference mu^{-1}(y) is mpmath's modulus of a nome (``mpmath.kfrom``), of
e^{-2y} for y >= pi/2 and of the complementary nome e^{-pi^2/(2y)} below, the
other of r, r' following from r^2 + r'^2 = 1. Each reference pair is checked
against mu(r) = y computed from mpmath's complete elliptic integrals.

The reference arth(c x) is log1p(2 c x/((1 - c) + c (1 - x)))/2 with 1 - x
given in a form that keeps its digits (2 sin^2(theta/2) for x = cos theta),
so that 50 digits suffice even where 1 - x is 1e-600.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from hyplam import _rows, big_C_of_p, distortion_A, g_range, grotzsch_mu, lemma_F_c, lemma_G_c, mu_inverse, phi_K
from hyplam import optimize, specfun, verify
from hyplam.lambert import ideal_quad, side_distances
from hyplam.qcbounds import T_of
from hyplam.specfun import _arth_cx, _mu_inverse_pair, aux_g_le2, aux_g_pq, aux_h_p, aux_slope_ratio, holder_mean

mp = pytest.importorskip("mpmath")

EPS = 2.0**-52
YS = [0.01, 0.1, math.pi / 2.0 - 1e-9, math.pi / 2.0 + 1e-9, 1.0, 10.0, 300.0]
KS = [1.0, 2.0, 5.0, 14.0, 20.0, 50.0, 1e3]
#: c (or L) from far below to exactly 1, and theta from 0 to pi/2 at both
#: edges; theta = 5e-324 is left out, its arth(c sin theta) being subnormal
CS = [1e-3, 0.5, math.sqrt(2.0 / 3.0), 0.9, 1 - 1e-9, 1 - 1e-12, 1 - EPS, 1.0]
THETAS = [1e-300, 1e-8, math.pi / 4.0, math.pi / 2.0 - 1e-8, math.nextafter(math.pi / 2.0, 0.0)]
#: r for the lemma functions, which take r' = sqrt(1 - r^2) from r
RS = [1e-300, 1e-8, math.sqrt(0.5), 1 - 1e-8, math.nextafter(1.0, 0.0)]


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def ref_mu(r, rp):
    """mu(r) = (pi/2) K(r')/K(r), given both r and r'."""
    return mp.pi / 2 * mp.ellipk(rp * rp) / mp.ellipk(r * r)


def ref_pair(y):
    """(r, r') with mu(r) = y."""
    y = mp.mpf(y)
    if y >= mp.pi / 2:
        r = mp.kfrom(q=mp.exp(-2 * y))
        rp = mp.sqrt(1 - r * r)
    else:
        rp = mp.kfrom(q=mp.exp(-mp.pi**2 / (2 * y)))
        r = mp.sqrt(1 - rp * rp)
    # K(k) loses the digits of 1 - k^2 as k -> 1, and is singular at k = 1
    if min(r, rp) > mp.mpf(10) ** -20:
        assert abs(ref_mu(r, rp) / y - 1) < mp.mpf(10) ** -25
    return r, rp


def ref_A(K):
    """2 arth phi_K(th 1/2) = 2 log((1 + phi)/phi')."""
    th = mp.tanh(mp.mpf(1) / 2)
    phi, phip = ref_pair(ref_mu(th, mp.sqrt(1 - th * th)) / K)
    return 2 * mp.log((1 + phi) / phip)


def rel(x, ref):
    return float(abs((x - ref) / ref))


def ref_arth_c(c, x, one_minus_x):
    """arth(c x), given 1 - x to full relative precision."""
    C = mp.mpf(c)
    return mp.log1p(2 * C * x / ((1 - C) + C * one_minus_x)) / 2


def ref_pair_r(c, r):
    """(arth(c r), arth(c r')) with r' = sqrt(1 - r^2) and 1 - r' = r^2/(1 + r')."""
    R = mp.mpf(r)
    Rp = mp.sqrt(1 - R * R)
    return ref_arth_c(c, R, 1 - R), ref_arth_c(c, Rp, R * R / (1 + Rp))


@pytest.mark.parametrize("y", YS)
def test_mu_inverse_and_complement(y):
    # the rounding of the exponent pi^2/(2y) of the complementary nome is
    # amplified by that exponent
    allowance = 8.0 * EPS * (1.0 + math.pi**2 / (2.0 * y))
    r_ref, rp_ref = ref_pair(y)
    assert rel(mu_inverse(y), r_ref) <= allowance
    r, log_rp = _mu_inverse_pair(y)
    assert r == mu_inverse(y)
    assert rel(mp.exp(log_rp), rp_ref) <= allowance


def test_phi_K_near_one_is_correctly_rounded():
    ref = ref_pair(ref_mu(mp.mpf(0.5), mp.sqrt(mp.mpf(0.75))) / mp.mpf(1e8))[0]
    value = phi_K(1e8, 0.5)
    assert value < 1.0 or value == float(ref)


@pytest.mark.parametrize("K", KS)
def test_distortion_A(K):
    assert rel(distortion_A(K), ref_A(K)) <= 1e-13


def test_distortion_A_inside_linear_bracket():
    arch_e = mp.acosh(mp.e)
    u = float(arch_e * mp.tanh(arch_e))
    v = float(mp.log(2 * (1 + mp.sqrt(1 - mp.exp(-2)))))
    for K in [1.0 + k / 4.0 for k in range(40)] + [float(x) for x in mp.linspace(11, 1000, 200)]:
        a = distortion_A(K)
        assert u * (K - 1.0) + 1.0 <= a <= v * (K - 1.0) + K, K


@pytest.mark.parametrize(
    "c",
    [math.nextafter(math.sqrt(2.0 / 3.0), 1.0), math.sqrt(2.0 / 3.0) + 1e-12]
    + [0.82, 0.85, 0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
)
def test_g_range_r0(c):
    # the defining form sqrt((1 - m/c^2)/2) cancels as c -> 1, and 3c^2 - 2
    # in m just above sqrt(2/3); here it is evaluated at 50 digits
    C = mp.mpf(c)
    m = mp.sqrt((2 - C * C) * (3 * C * C - 2))
    assert rel(g_range(c).r0, mp.sqrt((1 - m / (C * C)) / 2)) <= 4.0 * EPS


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("theta", THETAS)
def test_side_distances(c, theta):
    t = mp.mpf(theta)
    d1 = ref_arth_c(c, mp.cos(t), 2 * mp.sin(t / 2) ** 2)
    d2 = ref_arth_c(c, mp.sin(t), 2 * mp.sin(mp.pi / 4 - t / 2) ** 2)
    cos, sin = math.cos(theta), math.sin(theta)
    assert rel(_arth_cx(c, cos, sin), d1) <= 4.0 * EPS
    assert rel(_arth_cx(c, sin, cos), d2) <= 4.0 * EPS
    got1, got2 = side_distances(c, theta)
    assert rel(got1, d1) <= 4.0 * EPS and rel(got2, d2) <= 4.0 * EPS


@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("r", RS)
def test_lemma_functions_and_T(c, r):
    a, b = ref_pair_r(c, r)
    assert rel(lemma_F_c(c, r), a * b) <= 4.0 * EPS
    assert rel(lemma_G_c(c, r), a + b) <= 4.0 * EPS
    for K in (1.0, 2.0, 7.0):
        assert rel(T_of(r, c, K), a * b ** (1 / mp.mpf(K))) <= 4.0 * EPS


@pytest.mark.parametrize("c", CS)
def test_side_distance_rows(c):
    # the ndarray path, whose log1p is numpy's, against the same references
    d1, d2 = side_distances(c, np.array(THETAS))
    e1, e2 = ideal_quad(np.array(THETAS)) if c == 1.0 else (2 * d1, 2 * d2)
    for theta, got1, got2, ideal1, ideal2 in zip(THETAS, d1, d2, e1, e2):
        t = mp.mpf(theta)
        ref1 = ref_arth_c(c, mp.cos(t), 2 * mp.sin(t / 2) ** 2)
        ref2 = ref_arth_c(c, mp.sin(t), 2 * mp.sin(mp.pi / 4 - t / 2) ** 2)
        assert rel(got1, ref1) <= 4.0 * EPS and rel(got2, ref2) <= 4.0 * EPS
        assert rel(ideal1, 2 * ref1) <= 4.0 * EPS and rel(ideal2, 2 * ref2) <= 4.0 * EPS


@pytest.mark.parametrize("c", CS)
def test_lemma_rows(c):
    F, G = lemma_F_c(c, np.array(RS)), lemma_G_c(c, np.array(RS))
    for r, got_F, got_G in zip(RS, F, G):
        a, b = ref_pair_r(c, r)
        assert rel(got_F, a * b) <= 4.0 * EPS and rel(got_G, a + b) <= 4.0 * EPS


def ref_mu_of(r):
    """mu(r) for a double r in (0, 1), at the digits that keep 1 - r^2."""
    with mp.workdps(50 + max(0, round(-2.0 * math.log10(r)))):
        R = mp.mpf(r)
        return ref_mu(R, mp.sqrt((1 - R) * (1 + R)))


def test_grotzsch_mu_rows():
    rs = [1e-300, 1e-8, 1e-3, 0.3, math.sqrt(0.5), 0.9, 1 - 1e-8, math.nextafter(1.0, 0.0)]
    for r, got in zip(rs, grotzsch_mu(np.array(rs))):
        assert rel(got, ref_mu_of(r)) <= 4.0 * EPS


#: r log-spaced from 1e-300 to 1/2 and 1 - r from 1/2 to 1e-16, 1/sqrt2 on
#: either side, and the edges of the doubles, 5e-324 and 1 - 2^-53
MU_RS = [
    *np.geomspace(1e-300, 0.5, 61).tolist(),
    *(1.0 - np.geomspace(0.5, 1e-16, 40)).tolist(),
    0.7071067811865475,
    0.7071067811865476,
    5e-324,
    1.0 - 2.0**-53,
]


def test_grotzsch_mu_scalar_and_rows():
    # the nome form: 1.72 units of 2^-52 was the worst seen over 2 704 r, the AGM form's 1.97
    for r, row in zip(MU_RS, grotzsch_mu(np.array(MU_RS))):
        ref = ref_mu_of(r)
        assert rel(grotzsch_mu(r), ref) <= 4.0 * EPS and rel(row, ref) <= 4.0 * EPS, r


def _mu_pair_without_2_lambda4(r, rp, ns=_rows.SCALAR):
    """specfun._mu_pair with the term 2 l^5 of the nome left out."""
    a, b = ns.minimum(r, rp), ns.fmax(r, rp)
    den = 2.0 * (1.0 + b) * (1.0 + ns.sqrt(b)) ** 2
    t = (a * a / den) ** 4
    m = -0.5 * (2.0 * ns.log(a) - ns.log(den) + ns.log1p(t * t * (15.0 + t * (150.0 + 1707.0 * t))))
    return ns.where(r <= rp, m, math.pi**2 / (4.0 * m))


def test_dropping_the_2_lambda4_term_fails_the_agm_sub_check(monkeypatch):
    # mu-identities' sub-check of mu against optimize's AGM, whose allowance is
    # _MU_AGM_REL, passes as mu is and fails without the term
    slack = []
    require_all = verify._Checker.require_all

    def recorded(chk, deviations, allowances, witnesses):
        if allowances is verify._MU_AGM_REL:
            slack.append(float(np.min(allowances - deviations)))
        require_all(chk, deviations, allowances, witnesses)

    monkeypatch.setattr(verify._Checker, "require_all", recorded)
    spec = verify.SweepSpec("mu-identities", 1000)
    assert verify.run_sweep(spec).passed and slack[-1] > 0.0
    monkeypatch.setattr(specfun, "_mu_pair", _mu_pair_without_2_lambda4)
    assert not verify.run_sweep(spec).passed and slack[-1] < -1e9 * EPS
    assert len(slack) == 2


@pytest.mark.parametrize("r", [1e-80, 0.5, 0.999, 1 - 1e-6, 1 - 1e-8])
@pytest.mark.parametrize("p,q", [(-2.0, -2.0), (1.0, 1.0), (-2.0, 0.0), (2.0, 3.0), (-3.0, 0.0), (-3.0, -3.0)])
def test_aux_g_pq(p, q, r):
    # r'^2 = 1 - r*r cancels as r -> 1: 5.5e-10 relative at 1 - 1e-8; and
    # r^(p-1) overflows at r = 1e-80 for p = -3, where the value is finite
    R = mp.mpf(r)
    assert rel(aux_g_pq(p, q, r), mp.atanh(R) ** (q - 1) / (R ** (p - 1) * (1 - R * R))) <= 4.0 * EPS


@pytest.mark.parametrize("r", [1e-300, 1e-160, 1e-8, 0.3, 0.9, 1 - 1e-8])
@pytest.mark.parametrize("p", [-1.0, -0.5, 1.5])
def test_aux_g_le2(p, r):
    # (r/r') (arth r/arth r')^(p-1): r inside the power overflowed it at
    # r = 1e-160 and 1e-300 for p = -1, where the value is 1.4e165 and 4.8e305.
    # r^(3/2) underflows with the value at r = 1e-300 for p = 1.5
    if p > 1.0 and r < 1e-200:
        return
    a, b = ref_pair_r(1.0, r)
    R = mp.mpf(r)
    ref = R / mp.sqrt(1 - R * R) * (a / b) ** (p - 1)
    assert rel(aux_g_le2(p, r), ref) <= 4.0 * EPS * abs(p - 1.0)


@pytest.mark.parametrize("r", [1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.3, 0.4, math.nextafter(0.5, 0.0), 0.5])
@pytest.mark.parametrize("p", [0.0, -1.0, -3.0])
def test_aux_h_p(p, r):
    # h_p -> p as r -> 0, where 1 + ((p + 1) r'^2 - 2) arth(r)/r cancels for
    # p = 0 (2.3 relative at r = 1e-8); r = 0.5 is where it is taken again
    R = mp.mpf(r)
    ref = 1 + ((p + 1) * (1 - R * R) - 2) * mp.atanh(R) / R
    assert rel(aux_h_p(p, r), ref) <= 4.0 * EPS


@pytest.mark.parametrize("c", CS)
def test_g_range_upper(c):
    upper = g_range(c).upper
    if c == 1.0:
        assert upper == math.inf
        return
    with mp.workdps(80):  # 1 - m/c^2 is ~(1 - c)^2, 1e-31 at c = 1 - eps
        C = mp.mpf(c)
        if c <= math.sqrt(2.0 / 3.0):
            # G_c peaks at r = sqrt2/2
            ref = 2 * ref_pair_r(c, mp.sqrt(mp.mpf(0.5)))[0]
        else:
            m = mp.sqrt((2 - C * C) * (3 * C * C - 2))
            ref = sum(ref_pair_r(c, mp.sqrt((1 - m / (C * C)) / 2)))
        assert rel(upper, ref) <= 4.0 * EPS


def ref_big_C(p):
    """max of h_p at 60 digits, searched in r = 1 - e^{-u}, so that a maximum
    near r = 1 (1 - r* ~ 4e-12 at p = -1e10) is resolved: a grid in log u,
    then golden-section search between the neighbours of its best point."""
    with mp.workdps(60):
        P = mp.mpf(p)

        def h(t):
            u = mp.exp(t)
            x = mp.exp(-u)  # 1 - r
            r = -mp.expm1(-u)
            arth_r = (u + mp.log(2 - x)) / 2
            return 1 + ((P + 1) * x * (2 - x) - 2) * arth_r / r

        ts = [mp.mpf(k) / 10 for k in range(-250, 51)]  # u from 1.4e-11 to 148
        vals = [h(t) for t in ts]
        i = max(range(len(ts)), key=vals.__getitem__)
        a, b = ts[i - 1], ts[i + 1]
        invphi = (mp.sqrt(5) - 1) / 2
        for _ in range(150):
            c, d = b - (b - a) * invphi, a + (b - a) * invphi
            if h(c) > h(d):
                b = d
            else:
                a = c
        return h((a + b) / 2)


@pytest.mark.parametrize(
    "p", [-2.0 - 1e-9, -2.001, -2.5, -3.0, -5.0, -10.0, -100.0, -1e4, -1e6, -1e8, -1e10, -1e11, -1e13, -1e14, -1e20]
)
def test_big_C_of_p(p):
    # within 2 ulp on this list, where 1 - r* falls to ~2e-22
    assert rel(big_C_of_p(p), ref_big_C(p)) <= 8.0 * EPS


def ref_slope_ratio(r):
    """(r'^4 arth r - r (1 + r^2)) / (r'^2 ((1 + r^2) arth r - r)) at 60
    digits: the terms cancel to ~r^3, so 60 digits leave 36 at r = 1e-8."""
    with mp.workdps(60):
        R = mp.mpf(r)
        at, rp2 = mp.atanh(R), (1 - R) * (1 + R)
        return (rp2 * rp2 * at - R * (1 + R * R)) / (rp2 * ((1 + R * R) * at - R))


@pytest.mark.parametrize(
    "r",
    [1e-8, 1.7e-8, 1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5, math.nextafter(0.6, 0.0), 0.6, 0.63, 0.7, 0.9]
    + [0.999, 1 - 1e-6, 1 - 1e-8],
)
def test_aux_slope_ratio(r):
    # the rounding of arth r is amplified by arth r/(arth r - r) where
    # A = (arth r - r)/r^3 is taken from arth r, from r = 0.6 on
    value = aux_slope_ratio(r)
    assert rel(value, ref_slope_ratio(r)) <= 4.0 * EPS
    if r >= 1e-7:
        assert value < -2.0


def _scalar_and_row(f, *args):
    """f at scalars, and the one row of its call on one-row arrays."""
    return f(*args), float(f(*(np.array([a]) for a in args))[0])


def test_agm_keeps_its_bits_where_the_products_are_finite():
    # optimize's AGM, the oracle of mu, takes rows only; each row is the plain
    # sqrt(a b) loop on its scalars, bit for bit
    def plain(a, b):
        for _ in range(64):
            if not abs(a - b) > 2.0**-52 * a:
                break
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        return 0.5 * (a + b)

    rng = np.random.default_rng(41)
    a, b = 10.0 ** rng.uniform(-150.0, 0.0, (2, 2000))
    rows = optimize._agm(a, b)
    for x, y, row in zip(a.tolist(), b.tolist(), rows.tolist()):
        assert plain(x, y) == row


def ref_holder(p, r, s):
    """The power mean as sqrt(r s) cosh(p d)^(1/p), d = log(r/s)/2, which is
    ((r^p + s^p)/2)^(1/p): at 50 digits it keeps the digits of a subnormal
    p, where the powers are 1 + 1e-321 (test_the_power_mean_reference)."""
    if p == 0.0:
        return mp.sqrt(mp.mpf(r) * s)
    if math.isinf(p):
        return mp.mpf(max(r, s) if p > 0.0 else min(r, s))
    p, r, s = mp.mpf(p), mp.mpf(r), mp.mpf(s)
    return mp.sqrt(r * s) * mp.exp(mp.log1p(2 * mp.sinh(p * mp.log(r / s) / 4) ** 2) / p)


#: (p, r, s) where a power or the product of the plain form leaves the doubles
HOLDER_FAR = [
    (400.0, 1e300, 0.7),
    (-400.0, 1e300, 1e300),
    (400.0, 1e-300, 1e-300),
    (3.0, 1e300, 1.5e300),
    (-2.0, 1e-200, 3e-200),
    (1000.0, 2.0, 1e300),
    (-1000.0, 1e-300, 0.5),
    (0.0, 1e300, 1e300),
    (0.0, 1e-200, 3e-200),
    (math.inf, 0.3, 0.7),
    (-math.inf, 0.3, 0.7),
]
#: (p, r, s) with p so small that the powers round to 1, or 1/p overflows
HOLDER_TINY_P = [
    (5e-324, 1e300, 0.7),
    (-5e-324, 1e300, 0.7),
    (1e-310, 0.5, 3.0),
    (1e-300, 1e300, 0.7),
    (-1e-300, 1e300, 5e-324),
    (1e-10, 0.5, 3.0),
    (-1e-7, 1e-300, 1e300),
]


def test_the_power_mean_reference():
    # the identity against the plain form at 400 digits, where |p| >= 1e-10
    cases = [c for c in HOLDER_FAR + HOLDER_TINY_P if c[0] != 0.0 and math.isfinite(c[0]) and abs(c[0]) >= 1e-10]
    with mp.workdps(400):
        for p, r, s in cases:
            p, r, s = mp.mpf(p), mp.mpf(r), mp.mpf(s)
            assert abs(ref_holder(p, r, s) / ((r**p + s**p) / 2) ** (1 / p) - 1) < mp.mpf(10) ** -45


@pytest.mark.parametrize("p, r, s", HOLDER_FAR, ids=repr)
def test_holder_mean_where_a_power_leaves_the_doubles(p, r, s):
    # (400, 1e300, 0.7) gave inf, (-400, 1e300, 1e300) raised ZeroDivisionError
    ref = ref_holder(p, r, s)
    for got in _scalar_and_row(holder_mean, p, r, s):
        assert rel(got, ref) <= 4 * EPS, got


@pytest.mark.parametrize("p, r, s", HOLDER_TINY_P, ids=repr)
def test_holder_mean_at_a_tiny_order(p, r, s):
    # a subnormal p made 1/p inf, and (5e-324, 1e300, 0.7) gave 1^inf = 1.0
    # where the mean is the geometric one, 8.4e149
    ref = ref_holder(p, r, s)
    for got in _scalar_and_row(holder_mean, p, r, s):
        assert rel(got, ref) <= 4 * EPS, got


def test_holder_mean_seeded_where_the_plain_form_fails():
    # orders up to 1000 and down to the subnormal, arguments from 1e-300 to
    # 1e300; 1.4 ulp was seen over 5 000 such calls, and rows within 1.7 ulp
    # of their scalar calls
    rng = np.random.default_rng(43)
    n = 600
    sign = rng.choice([-1.0, 1.0], n)
    p = sign * np.where(np.arange(n) % 2 == 0, 10.0 ** rng.uniform(-323.0, -7.0, n), 10.0 ** rng.uniform(0.5, 3.0, n))
    r, s = 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    with np.errstate(over="ignore", under="ignore"):
        powers = (r**p + s**p) / 2.0
    far = ~((2.0**-1022 <= powers) & (powers < math.inf) & (abs(p) >= 2.0**-20))
    assert far.sum() > 400
    p, r, s = p[far], r[far], s[far]
    rows = holder_mean(p, r, s)
    for args, row in zip(zip(p.tolist(), r.tolist(), s.tolist()), rows.tolist()):
        ref = ref_holder(*args)
        assert rel(holder_mean(*args), ref) <= 4 * EPS and rel(row, ref) <= 4 * EPS, args


def test_holder_mean_seeded_over_every_order():
    # |p| from 2^-1074 to 2^-20 and from there to 1e3, with arguments from
    # 1e-300 to 1e300 and from 1e-3 to 1e2: the plain form ((r^p + s^p)/2)^(1/p),
    # which holder_mean took where the mean of the powers was a normal double
    # and |p| >= 2^-20, was 9.7e4 ulp off at (-2.33e-6, 0.912, 0.0152)
    rng = np.random.default_rng(45)
    n = 600
    even = np.arange(n) % 2 == 0
    exponent = np.where(even, rng.uniform(-1074.0, -20.0, n), rng.uniform(-20.0, math.log2(1e3), n))
    p = rng.choice([-1.0, 1.0], n) * 2.0**exponent
    r, s = 10.0 ** np.where(even, rng.uniform(-300.0, 300.0, (2, n)), rng.uniform(-3.0, 2.0, (2, n)))
    p, r, s = (np.append(v, x) for v, x in zip((p, r, s), (-2.33e-6, 0.912, 0.0152)))
    rows = holder_mean(p, r, s)
    for args, row in zip(zip(p.tolist(), r.tolist(), s.tolist()), rows.tolist()):
        ref = ref_holder(*args)
        assert rel(holder_mean(*args), ref) <= 4 * EPS and rel(row, ref) <= 4 * EPS, args
