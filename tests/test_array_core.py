"""The array-first core of specfun, of the Hersch-Pfluger layer, of Beardon's
angle and of the QC threshold: an ndarray call works row by row under the
scalar rules, and a scalar call stays on the math path.

An array row agrees with its scalar call to within ROW_EPS units of 2^-52,
relative: numpy's log1p, log, exp and arctanh round differently from libm's
on a few percent of arguments, by one or two ulp, and each kernel takes one
or two of them. Where a kernel amplifies that rounding, the allowance carries
the factor: the exponent of a power of arth, arth r/(arth r - r) in the slope
ratio's form from r = 0.6 on, and |h_0 - 1|/|h_0| in h_0's closed form from
r = 0.5 on. `rprime` and the series of the slope ratio and of h_p take only
+, *, / and sqrt, which are correctly rounded in both, so `rprime`, the slope
ratio below r = 0.6 and h_p below 0.5 equal their scalar calls bit for bit,
as do the rows of optimize's AGM, the oracle of mu, and its one-row calls.
Accuracy against mpmath is tested in test_specfun_accuracy.py.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hyplam import _rows, geometry, lambert, optimize, qcbounds, specfun
from hyplam.errors import DomainError, InconsistentQuadrilateralError
from hyplam.lambert import SUM_CASE1_MAX, SUM_CASE3_MIN
from hyplam.qcbounds import TH1
from hyplam.verify import _halton
from test_layering import NUMPY2_ONLY

EPS = 2.0**-52
#: the largest row-to-scalar gap seen on the grids below is 1.9 units
ROW_EPS = 4.0
HALF_PI = math.pi / 2.0

_u = _halton(512, 2, 1301)
#: c (or L): the edges L -> 0 and 1, the case limits of the sum bound, exactly 1
_C_EDGES = [2.0**-60, 1e-300, SUM_CASE1_MAX, SUM_CASE3_MIN, 1 - 1e-12, 1 - EPS, 1.0]
#: theta -> 0 and pi/2; theta below 1e-150 at c = 1 puts d1 in the
#: den < 1e-300 branch of _arth_cx (x' below 1e-150)
_THETA_EDGES = [1e-300, 1e-160, 1e-8, HALF_PI - 1e-8, math.nextafter(HALF_PI, 0.0)]
#: r -> 0 and 1
_R_EDGES = [1e-300, 1e-160, 1e-8, 1 - 1e-8, math.nextafter(1.0, 0.0)]
#: Halton points in (0, 1] x (0, pi/2) or (0, 1], then every pair of edges
CS = np.concatenate([1.0 - _u[:, 0], np.repeat(_C_EDGES, 5)])
THETAS = np.concatenate([HALF_PI * (1.0 - _u[:, 1]), np.tile(_THETA_EDGES, 7)])
RS = np.concatenate([1.0 - _u[:, 1], np.tile(_R_EDGES, 7)])


def scalar_rows(f, *columns):
    """f called row by row on Python floats, as an array."""
    return np.array([f(*map(float, row)) for row in zip(*np.broadcast_arrays(*columns))])


def assert_rows_agree(rows, scalars, eps=ROW_EPS):
    assert rows.shape == scalars.shape
    same = rows == scalars  # also where both are inf
    gap = np.abs(np.subtract(rows, scalars, where=~same, out=np.zeros_like(rows)))
    assert np.all(gap <= eps * EPS * np.abs(scalars)), float(np.max(gap / np.abs(scalars)) / EPS)


#: r on both sides of 0.6, where aux_slope_ratio switches form, and deep in
#: its series (down to where t = r^2 underflows), and below 1e-4 for aux_h_p
_R_SPLIT = np.concatenate(
    [RS, np.linspace(0.55, 0.65, 501), [math.nextafter(0.6, 0.0), 0.6], np.geomspace(1e-300, 1e-4, 200)]
)
#: L on (TH1, 1], where r_L and M_L are defined
LS = np.concatenate([TH1 + (1.0 - TH1) * (1.0 - _u[:, 0]), [math.nextafter(TH1, 1.0), TH1 + 1e-6, 1 - 1e-12, 1.0]])


def test_grids_reach_the_near_one_branch():
    c, x, xp = CS, np.cos(THETAS), np.sin(THETAS)
    den = (1.0 - c) + c * xp * xp / (1.0 + x)
    assert np.count_nonzero(den < 1e-300) >= 2 and np.count_nonzero(den >= 1e-300) > 500


def test_side_distances_reach_arth_1():
    # theta = 0 at L = 1: d1 = arth 1 = inf, on the scalar path as on the array path
    assert lambert.side_distances(1.0, 0.0) == (math.inf, 0.0)
    d1, d2 = lambert.side_distances(1.0, np.array([0.0, 0.5]))
    assert (d1[0], d2[0]) == (math.inf, 0.0)


def test_arth_cx_rows():
    x, xp = np.cos(THETAS), np.sin(THETAS)
    for args in ((CS, x, xp), (CS, xp, x)):
        assert_rows_agree(specfun._arth_cx(*args, np), scalar_rows(specfun._arth_cx, *args))


def test_side_distances_and_ideal_quad_rows():
    d1, d2 = lambert.side_distances(CS, THETAS)
    assert_rows_agree(d1, scalar_rows(lambda L, t: lambert.side_distances(L, t)[0], CS, THETAS))
    assert_rows_agree(d2, scalar_rows(lambda L, t: lambert.side_distances(L, t)[1], CS, THETAS))
    # one L for every theta, as the CLI sweeps call it
    for L in (2.0**-60, 0.5, SUM_CASE1_MAX, 1.0):
        d1, _ = lambert.side_distances(L, THETAS)
        assert_rows_agree(d1, scalar_rows(lambda t: lambert.side_distances(L, t)[0], THETAS))
    e1, e2 = lambert.ideal_quad(THETAS)
    assert_rows_agree(e1, scalar_rows(lambda a: lambert.ideal_quad(a)[0], THETAS))
    assert_rows_agree(e2, scalar_rows(lambda a: lambert.ideal_quad(a)[1], THETAS))


@pytest.mark.parametrize("name", ["lemma_f_c", "lemma_F_c", "lemma_G_c"])
def test_lemma_rows(name):
    f = getattr(specfun, name)
    assert_rows_agree(f(CS, RS), scalar_rows(f, CS, RS))
    # one c for a whole grid, as the registry sweeps call them
    for c in (0.3, SUM_CASE3_MIN, 1.0):
        assert_rows_agree(f(c, RS), scalar_rows(lambda r: f(c, r), RS))


def test_f_c_pair_rows():
    x, xp = np.cos(THETAS), np.sin(THETAS)
    assert_rows_agree(specfun._f_c_pair(CS, x, xp, np), scalar_rows(specfun._f_c_pair, CS, x, xp))


@pytest.mark.parametrize("name", ["aux_h1", "aux_h"])
def test_aux_h_rows(name):
    f = getattr(specfun, name)
    assert_rows_agree(f(RS), scalar_rows(f, RS))


@pytest.mark.parametrize("name", ["arth", "arth_complement"])
def test_arth_rows(name):
    f = getattr(specfun, name)
    assert_rows_agree(f(RS), scalar_rows(f, RS))
    # arth 0 = 0 and arth 1 = inf, quietly on rows as on scalars
    assert np.array_equal(specfun.arth(np.array([0.0, 1.0])), [0.0, math.inf])


@pytest.mark.parametrize("p", [-1.0, 0.0, 0.2, specfun.threshold_C(), 1.0, 3.0])
def test_aux_g_le2_rows(p):
    # down to r = 1e-300, where the value is ~5e305 at p = -1
    f = lambda r: specfun.aux_g_le2(p, r)
    assert_rows_agree(f(RS), scalar_rows(f, RS), ROW_EPS * max(1.0, abs(p - 1.0)))


@pytest.mark.parametrize("p,q", [(-2.0, -2.0), (1.0, 1.0), (-2.0, 0.0), (2.0, 3.0), (-3.0, 0.0), (-3.0, -1.9), (2.0, 1.0)])
def test_aux_g_pq_rows(p, q):
    # r^(q - p) underflows with the value for tiny r where q > p
    rs = RS[RS >= 1e-80] if q > p else RS
    f = lambda r: specfun.aux_g_pq(p, q, r)
    assert_rows_agree(f(rs), scalar_rows(f, rs), ROW_EPS * max(1.0, abs(q - 1.0)))


def _h_p_rows(p):
    """aux_h_p(p, .) on _R_SPLIT as rows, by scalar calls, and the rows of its series.
    The series below r = 0.5 takes only +, * and /, and a row that has stopped
    takes no more terms: those rows equal their scalar calls."""
    f = lambda r: specfun.aux_h_p(p, r)
    rows, scalars, series = f(_R_SPLIT), scalar_rows(f, _R_SPLIT), _R_SPLIT < 0.5
    assert np.array_equal(rows[series], scalars[series])
    return rows[~series], scalars[~series]


@pytest.mark.parametrize("p", [-3.0, -2.0, -1.0, 5.0])
def test_aux_h_p_rows(p):
    assert_rows_agree(*_h_p_rows(p))


def test_aux_h_p_rows_at_p0():
    # h_0 - 1 = -(1 + r^2) arth(r)/r, 3.7 |h_0| at r = 0.5 and less beyond, where the
    # closed form takes over: it amplifies the rounding of arth r that much
    rows, scalars = _h_p_rows(0.0)
    assert_rows_agree(rows, scalars, ROW_EPS * np.abs(scalars - 1.0) / np.abs(scalars))


def test_aux_h_p_rows_of_p():
    # p may be rows too, broadcast against r, each (p, r) row as its scalar call;
    # r stays clear of 0.88, where h_5 changes sign
    ps, rs = np.array([[-3.0], [0.0], [5.0]]), np.array([1e-3, 0.3, math.nextafter(0.5, 0.0), 0.5, 0.7, 0.95])
    scalars = scalar_rows(specfun.aux_h_p, *(a.ravel() for a in np.broadcast_arrays(ps, rs))).reshape(3, -1)
    amplified = np.maximum(1.0, np.abs(scalars - 1.0) / np.abs(scalars))
    assert_rows_agree(specfun.aux_h_p(ps, rs), scalars, ROW_EPS * amplified)
    assert np.array_equal(specfun.aux_h_p(ps[:, 0], 0.3), scalars[:, 1])


def test_aux_slope_ratio_rows():
    rows, scalars = specfun.aux_slope_ratio(_R_SPLIT), scalar_rows(specfun.aux_slope_ratio, _R_SPLIT)
    series = _R_SPLIT < 0.6
    assert np.array_equal(rows[series], scalars[series])
    far = _R_SPLIT[~series]
    arth = np.arctanh(far)
    assert_rows_agree(rows[~series], scalars[~series], ROW_EPS * arth / (arth - far))
    # a row array of one side only, and a 0-length one
    assert np.array_equal(specfun.aux_slope_ratio(_R_SPLIT[series]), scalars[series])
    assert specfun.aux_slope_ratio(np.array([], dtype=float)).shape == (0,)


@pytest.mark.parametrize("name", ["r_L_of", "M_L_of"])
def test_qc_threshold_rows(name):
    f = getattr(qcbounds, name)
    assert_rows_agree(f(LS), scalar_rows(f, LS))


@pytest.mark.parametrize("name", ["rprime"])
def test_agm_kernels_equal_their_scalar_calls(name):
    f = getattr(specfun, name)
    assert np.array_equal(f(RS), scalar_rows(f, RS))


def test_grotzsch_mu_rows():
    # the nome form takes numpy's log and log1p on rows
    rs = np.concatenate([RS, np.geomspace(1e-300, 1e-3, 200), 1.0 - np.geomspace(1e-3, 1e-16, 200)])
    assert_rows_agree(specfun.grotzsch_mu(rs), scalar_rows(specfun.grotzsch_mu, rs))


def test_agm_rows_equal_their_scalar_calls():
    # optimize's AGM takes rows only: each equals its one-row call bit for bit
    b = np.concatenate([RS, np.geomspace(1e-12, 1.0 - 1e-6, 2000)])
    one_row = lambda f: np.array([f(np.array([x]))[0] for x in b])
    assert np.array_equal(optimize._agm(1.0, b), one_row(lambda x: optimize._agm(1.0, x)))
    assert np.array_equal(optimize._agm(b, 1.0), one_row(lambda x: optimize._agm(x, 1.0)))


#: y on both sides of pi/2, where mu^{-1} switches to the complementary nome,
#: and up to where it underflows (~745)
YS = np.concatenate(
    [np.geomspace(1e-3, 700.0, 400), HALF_PI + np.array([-1e-9, 0.0, 1e-9]), [math.nextafter(HALF_PI, 0.0)]]
)
#: K from 1 to 1e3
KS = np.concatenate([[1.0, math.nextafter(1.0, 2.0), 1.5, 2.0], np.geomspace(1.0, 1e3, 200)])


def test_mu_inverse_rows():
    assert_rows_agree(specfun.mu_inverse(YS), scalar_rows(specfun.mu_inverse, YS))
    # a row array of one side of pi/2 only, and a 0-length one
    assert_rows_agree(specfun.mu_inverse(YS[YS < HALF_PI]), scalar_rows(specfun.mu_inverse, YS[YS < HALF_PI]))
    assert specfun.mu_inverse(np.array([], dtype=float)).shape == (0,)
    r, log_rp = specfun._mu_inverse_pair(YS, np)
    assert_rows_agree(log_rp, scalar_rows(lambda y: specfun._mu_inverse_pair(y)[1], YS))


def test_phi_K_rows():
    K, r = np.meshgrid(KS[::10], RS[::7])
    assert_rows_agree(specfun.phi_K(K.ravel(), r.ravel()), scalar_rows(specfun.phi_K, K.ravel(), r.ravel()))
    # one K for a grid of r, as the registry calls it
    assert_rows_agree(specfun.phi_K(2.0, RS), scalar_rows(lambda r: specfun.phi_K(2.0, r), RS))


def test_distortion_A_and_bracket_rows():
    assert_rows_agree(specfun.distortion_A(KS), scalar_rows(specfun.distortion_A, KS))
    assert specfun.distortion_A(np.array([1.0]))[0] == specfun.distortion_A(1.0)
    for i, column in enumerate(specfun.distortion_bracket(KS)):
        assert_rows_agree(column, scalar_rows(lambda K: specfun.distortion_bracket(K)[i], KS))


def test_beardon_phi_rows():
    d1, d2 = lambert.side_distances(CS, THETAS)
    assert_rows_agree(lambert.beardon_phi(d1, d2), scalar_rows(lambert.beardon_phi, d1, d2))
    # a zero side: phi = pi/2, also where the other side is arth 1 = inf
    d1, d2 = np.array([0.0, 0.5, 0.0, math.inf]), np.array([0.7, 0.0, 0.0, 0.0])
    assert np.array_equal(lambert.beardon_phi(d1, d2), np.full(4, HALF_PI))
    assert scalar_rows(lambert.beardon_phi, d1, d2).tolist() == [HALF_PI] * 4
    # L = 1: the far vertex is ideal and phi = 0, up to the slack
    d1, d2 = lambert.side_distances(1.0, THETAS[THETAS > 1e-8])
    phi, scalars = lambert.beardon_phi(d1, d2), scalar_rows(lambert.beardon_phi, d1, d2)
    # acos is ill-conditioned at 1: compare the angles, not their ratio
    assert np.all(phi <= 1e-6) and np.all(np.abs(phi - scalars) <= 1e-7)


def test_array_kernels_run_without_the_numpy2_aliases(monkeypatch):
    for name in NUMPY2_ONLY:
        monkeypatch.delattr(np, name, raising=False)
    r, z = RS[RS < 1.0], 0.5 * np.exp(1j * THETAS)
    calls = [
        *(lambda f=f: f(r) for f in (specfun.arth, specfun.arth_complement, specfun.grotzsch_mu, specfun.aux_h)),
        *(lambda f=f: f(0.5, r) for f in (specfun.lemma_f_c, specfun.lemma_F_c, specfun.lemma_G_c)),
        lambda: specfun.aux_slope_ratio(r),
        lambda: specfun.aux_g_le2(0.2, r),
        lambda: specfun.aux_h_p(-3.0, r),
        lambda: specfun.aux_g_pq(-3.0, 0.0, r),
        lambda: specfun.holder_mean(0.0, r, 0.5),
        lambda: qcbounds.M_L_of(LS),
        lambda: lambert.side_distances(CS, THETAS),
        lambda: lambert.ideal_quad(THETAS),
        lambda: lambert.beardon_phi(*lambert.side_distances(CS, THETAS)),
        lambda: specfun.mu_inverse(YS),
        lambda: specfun.phi_K(KS, 0.5),
        lambda: specfun.distortion_A(KS),
        lambda: specfun.distortion_bracket(KS),
        lambda: geometry.rho_disk(z, 0.3),
        lambda: geometry.rho_halfplane(1j + z, 2j),
    ]
    for call in calls:
        assert isinstance(call(), (np.ndarray, tuple))


@pytest.mark.parametrize(
    "call",
    [
        lambda: specfun._arth_cx(0.7, 0.6, 0.8),
        lambda: specfun.rprime(0.3),
        lambda: specfun.grotzsch_mu(0.9),
        lambda: specfun.grotzsch_mu(0.3),
        lambda: specfun.lemma_f_c(0.7, 0.3),
        lambda: specfun.lemma_F_c(0.7, 0.3),
        lambda: specfun.lemma_G_c(0.7, 0.3),
        lambda: specfun.aux_h1(0.3),
        lambda: specfun.aux_h(0.3),
        lambda: specfun._f_c_pair(0.7, 0.6, 0.8),
        lambda: lambert.side_distances(0.7, 0.3)[0],
        lambda: lambert.side_distances(0.7, 0.3)[1],
        lambda: lambert.ideal_quad(0.3)[0],
        lambda: specfun.arth(0.3),
        lambda: specfun.arth(1.0),
        lambda: specfun.arth_complement(0.3),
        lambda: specfun.aux_g_le2(0.2, 0.3),
        lambda: specfun.aux_slope_ratio(0.3),
        lambda: specfun.aux_slope_ratio(0.7),
        lambda: specfun.aux_h_p(-3.0, 0.3),
        lambda: specfun.aux_g_pq(-3.0, 0.0, 0.3),
        lambda: specfun.holder_mean(0.0, 0.3, 0.5),
        lambda: specfun.holder_mean(-1.0, 0.3, 0.5),
        lambda: qcbounds.r_L_of(0.9),
        lambda: qcbounds.M_L_of(0.9),
        lambda: specfun.aux_h_p(0.0, 0.7),
        lambda: specfun.aux_g_le2(-1.0, 1e-300),
        lambda: specfun.mu_inverse(0.5),
        lambda: specfun.mu_inverse(5.0),
        lambda: specfun.phi_K(2.0, 0.3),
        lambda: specfun.distortion_A(1.0),
        lambda: specfun.distortion_A(14.0),
        *(lambda i=i: specfun.distortion_bracket(3.0)[i] for i in range(1, 5)),
        lambda: lambert.beardon_phi(0.5, 0.4),
        lambda: lambert.beardon_phi(0.0, 0.4),
    ],
)
def test_scalar_calls_return_python_floats(call):
    assert type(call()) is float


def _no_numpy(*args, **kwargs):
    raise AssertionError("a scalar call went through numpy")


def test_scalar_calls_stay_off_numpy(monkeypatch):
    p, q = geometry.Point(0.3 + 0.1j), geometry.Point(-0.2 + 0.5j)
    m = geometry.MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    ideal = (1.0, 1j, -1.0, -1j)
    # qc_product_bound on each of its branches
    qc_inputs = [qcbounds.QcBoundInput(2.0, 0.5), qcbounds.QcBoundInput(1.0, 0.9), qcbounds.QcBoundInput(5.0, 0.9)]
    regimes = [qcbounds.qc_product_bound(inp).regime for inp in qc_inputs]
    assert set(regimes) == set(qcbounds.QcRegime)
    numpy_names = ("exp", "log", "log1p", "expm1", "arccos", "arctanh", "minimum", "where", "errstate", "empty")
    for name in (*numpy_names, "hypot", "sqrt", "arcsinh", "asarray", "broadcast_arrays", "isfinite"):
        monkeypatch.setattr(np, name, _no_numpy)
    # the rows table holds numpy's functions themselves
    table = _rows.rows()
    for name in [n for n in vars(table) if not n.startswith("_")]:
        monkeypatch.setattr(table, name, _no_numpy)
    # one whole bounds-stream request: the Lambert quadrilateral and its
    # reports, its vertices and an ideal quadruple mapped by an automorphism,
    # rho before and after, and the distortion and QC bounds
    quad = lambert.lambert_from(0.6, 0.5)
    images = [m(v) for v in quad.vertices]
    for call in (
        lambda: lambert.lambert_from(0.6, 0.5),
        lambda: lambert.product_report(0.6, 0.5),
        lambda: lambert.sum_bounds(0.6, 0.5),
        lambda: geometry.MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7),
        lambda: [geometry.rho_disk(quad.vertices[i], quad.vertices[j]) for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))],
        lambda: [geometry.rho_disk(images[i], images[j]) for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))],
        lambda: lambert.alpha_from_quadruple(*[m(z) for z in ideal]),
        lambda: specfun.distortion_A(3.0),
        lambda: qcbounds.qc_ideal_bound(3.0),
        *(lambda inp=inp: qcbounds.qc_product_bound(inp) for inp in qc_inputs),
        lambda: geometry.rho_disk(p, q),
        lambda: geometry.rho_disk(0.3 + 0.1j, -0.2 + 0.5j),
        lambda: geometry.rho_halfplane(1j, 0.5 + 2j),
        lambda: geometry.absolute_ratio(*ideal),
        lambda: geometry.rho_via_crossratio(p, -0.2 + 0.5j),
        lambda: geometry.hyperbolic_midpoint(p, q),
        lambda: m(p),
        lambda: geometry.geodesic_through(p, q),
        lambda: lambert.alpha_from_quadruple(*ideal),
        lambda: specfun.mu_inverse(0.5),
        lambda: specfun.mu_inverse(5.0),
        lambda: specfun.phi_K(2.0, 0.3),
        lambda: specfun.distortion_bracket(3.0),
        lambda: specfun.aux_h_p(0.0, 0.3),
        lambda: lambert.beardon_phi(0.5, 0.4),
        lambda: lambert.beardon_phi(0.0, 0.4),
    ):
        call()


@pytest.mark.parametrize(
    "call,scalar",
    [
        (lambda bad: specfun.grotzsch_mu(np.array([0.3, bad, 0.5])), specfun.grotzsch_mu),
        (lambda bad: specfun.lemma_G_c(0.5, np.array([0.3, bad])), lambda bad: specfun.lemma_G_c(0.5, bad)),
        (lambda bad: specfun.lemma_F_c(0.5, np.array([bad, 0.3])), lambda bad: specfun.lemma_F_c(0.5, bad)),
        (lambda bad: specfun.lemma_f_c(0.5, np.array([0.3, bad])), lambda bad: specfun.lemma_f_c(0.5, bad)),
        (lambda bad: specfun.aux_h(np.array([0.3, bad])), specfun.aux_h),
        (lambda bad: lambert.ideal_quad(np.array([0.3, bad])), lambert.ideal_quad),
        (lambda bad: specfun.arth(np.array([0.3, bad])), specfun.arth),
        (lambda bad: specfun.arth_complement(np.array([bad, 0.3])), specfun.arth_complement),
        (lambda bad: specfun.aux_g_le2(0.2, np.array([0.3, bad])), lambda bad: specfun.aux_g_le2(0.2, bad)),
        (lambda bad: specfun.aux_slope_ratio(np.array([0.7, bad, 0.3])), specfun.aux_slope_ratio),
        (lambda bad: specfun.aux_h_p(-3.0, np.array([0.3, bad])), lambda bad: specfun.aux_h_p(-3.0, bad)),
        (lambda bad: specfun.aux_g_pq(-3.0, 0.0, np.array([bad])), lambda bad: specfun.aux_g_pq(-3.0, 0.0, bad)),
        (lambda bad: qcbounds.r_L_of(np.array([0.9, bad])), qcbounds.r_L_of),
        (lambda bad: qcbounds.M_L_of(np.array([0.9, bad])), qcbounds.M_L_of),
        (lambda bad: specfun.phi_K(2.0, np.array([0.5, bad])), lambda bad: specfun.phi_K(2.0, bad)),
    ],
)
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_a_bad_row_raises_the_scalar_error(call, scalar, bad):
    if scalar is lambert.ideal_quad and bad == 1.0:
        bad = HALF_PI
    if scalar is specfun.arth and bad in (0.0, 1.0):
        bad = 1.5  # arth is defined on [0, 1]
    if scalar in (qcbounds.r_L_of, qcbounds.M_L_of) and bad == 1.0:
        bad = TH1  # r_L is defined on (th 1, 1]
    with pytest.raises(DomainError) as from_scalar:
        scalar(bad)
    with pytest.raises(DomainError) as from_rows:
        call(bad)
    assert str(from_rows.value) == str(from_scalar.value)


def test_a_bad_c_row_raises_the_scalar_error():
    with pytest.raises(DomainError, match=r"needs c in \(0, 1\], got 1.5"):
        specfun.lemma_G_c(np.array([0.5, 1.5]), 0.3)


@pytest.mark.parametrize("f", [specfun.distortion_A, specfun.distortion_bracket, lambda K: specfun.phi_K(K, 0.5)])
@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.inf, math.nan])
def test_a_bad_K_row_raises_the_scalar_error(f, bad):
    with pytest.raises(DomainError, match=f"got K = {bad}$") as from_scalar:
        f(bad)
    with pytest.raises(DomainError) as from_rows:
        f(np.array([1.0, 2.0, bad, 3.0, 0.25]))
    assert str(from_rows.value) == str(from_scalar.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 800.0, math.inf])
def test_a_bad_y_row_raises_the_scalar_error(bad):
    # mu^{-1}(y) underflows to 0 from y ~ 745 on
    with pytest.raises(DomainError, match="y > 0" if not bad > 0.0 else "underflows") as from_scalar:
        specfun.mu_inverse(bad)
    with pytest.raises(DomainError) as from_rows:
        specfun.mu_inverse(np.array([1.0, 700.0, bad, 900.0]))
    assert str(from_rows.value) == str(from_scalar.value)


def test_an_inconsistent_row_raises_the_scalar_error():
    # sh 2 sh 2 = 13.2 > 1, and an infinite side beside a nonzero one: no
    # Lambert quadrilateral has these sides
    for d1, d2 in [(2.0, 2.0), (math.inf, 0.5), (math.inf, math.inf)]:
        with pytest.raises(InconsistentQuadrilateralError) as from_scalar:
            lambert.beardon_phi(d1, d2)
        with pytest.raises(InconsistentQuadrilateralError) as from_rows:
            lambert.beardon_phi(np.array([0.5, d1, 3.0, 745.0]), np.array([0.4, d2, 3.0, 745.0]))
        assert str(from_rows.value) == str(from_scalar.value)
    with pytest.raises(DomainError, match="nonnegative"):
        lambert.beardon_phi(np.array([0.5, -0.1]), 0.4)


@pytest.mark.parametrize("r,s", [(math.nan, -1.0), (-1.0, math.nan), (math.nan, 0.0), (-0.0, math.nan)])
def test_holder_mean_refuses_a_nonpositive_argument_beside_a_nan(r, s):
    # the domain test is (r <= 0) | (s <= 0), which no NaN beside it hides
    for args in ((r, s), (np.array([r]), np.array([s])), (np.array([0.3, r]), np.array([0.5, s]))):
        with pytest.raises(DomainError, match="positive arguments"):
            specfun.holder_mean(0.5, *args)


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1e308", "-1e308"])
def test_aux_h_p_refuses_a_p_that_is_not_finite(p):
    # at nan and +inf the series never stopped, so the calls run in a child
    # with a timeout; -inf gave NaN. A finite p beyond ~9e307 overflowed the
    # series' stop bound and never stopped either: it returns within 1e-15 of
    # the form 1 + ((p + 1) r'^2 - 2) arth(r)/r, where nothing cancels at |p| = 1e308
    code = f"""if True:
        import math
        import numpy as np
        from hyplam import DomainError, specfun
        p = float("{p}")
        for args in ((p, 0.3), (p, 0.7), (np.array([-3.0, p]), 0.3), (np.array([-3.0, p]), np.array([0.7, 0.3]))):
            try:
                got = np.ravel(specfun.aux_h_p(*args))[-1]
            except DomainError as exc:
                assert not math.isfinite(p) and str(exc) == "aux_h_p needs a finite p, got {p}", exc
            else:
                if not math.isfinite(p):
                    raise SystemExit(f"aux_h_p{{args}} returned")
                r = float(np.ravel(args[1])[-1])
                want = 1.0 + ((p + 1.0) * (1.0 - r) * (1.0 + r) - 2.0) * (math.atanh(r) / r)
                assert abs(got - want) <= 1e-15 * abs(want), (args, got)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(specfun.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


#: the edges at which a row and its scalar call must agree
_EDGE_VALUES = [math.nan, 0.0, -0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0, 1e300, math.inf, -math.inf]
#: each exported row function and arguments inside its domain; each argument in turn takes every edge
_ROW_FUNCTIONS = {
    "arth": (specfun.arth, (0.3,)),
    "arth_complement": (specfun.arth_complement, (0.3,)),
    "rprime": (specfun.rprime, (0.3,)),
    "holder_mean": (specfun.holder_mean, (0.5, 0.3, 0.7)),
    # large finite exponents, where Python's ** raised OverflowError
    "holder_mean_large": (specfun.holder_mean, (400.0, 1e300, 0.7)),
    "grotzsch_mu": (specfun.grotzsch_mu, (0.3,)),
    "lemma_f_c": (specfun.lemma_f_c, (0.7, 0.3)),
    "lemma_F_c": (specfun.lemma_F_c, (0.7, 0.3)),
    "lemma_G_c": (specfun.lemma_G_c, (0.7, 0.3)),
    "aux_h1": (specfun.aux_h1, (0.3,)),
    "aux_h": (specfun.aux_h, (0.3,)),
    "aux_g_le2": (specfun.aux_g_le2, (-1.0, 0.3)),
    "aux_slope_ratio": (specfun.aux_slope_ratio, (0.3,)),
    "aux_h_p": (specfun.aux_h_p, (-3.0, 0.3)),
    "aux_g_pq": (specfun.aux_g_pq, (-3.0, 0.0, 0.3)),
    "aux_g_pq_large": (specfun.aux_g_pq, (-3.0, 1e300, 0.3)),
    "mu_inverse": (specfun.mu_inverse, (0.5,)),
    "phi_K": (specfun.phi_K, (2.0, 0.3)),
    "distortion_A": (specfun.distortion_A, (2.0,)),
    "distortion_bracket": (specfun.distortion_bracket, (2.0,)),
    "side_distances": (lambert.side_distances, (0.7, 0.3)),
    "ideal_quad": (lambert.ideal_quad, (0.3,)),
    "beardon_phi": (lambert.beardon_phi, (0.5, 0.4)),
    "r_L_of": (qcbounds.r_L_of, (0.9,)),
    "M_L_of": (qcbounds.M_L_of, (0.9,)),
}


def _outcome(f, args):
    """f(*args) as a list of floats, or the type of what it raised; a warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(*args)
    except Exception as exc:
        return type(exc)
    return [float(np.ravel(v)[0]) for v in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("name,at", [(name, i) for name, (_, args) in _ROW_FUNCTIONS.items() for i in range(len(args))])
def test_a_row_at_an_edge_is_its_scalar_call(name, at, value):
    # the same value within 4 ulp, or the same error, and no warning where the scalar has none
    f, args = _ROW_FUNCTIONS[name]
    args = args[:at] + (value,) + args[at + 1 :]
    scalar, row = _outcome(f, args), _outcome(f, [np.array([a]) for a in args])
    if isinstance(scalar, type) or isinstance(row, type):
        assert row is scalar
    else:
        assert len(row) == len(scalar)
        for a, b in zip(scalar, row):
            assert a == b or (math.isnan(a) and math.isnan(b)) or abs(b - a) <= ROW_EPS * EPS * abs(a), (a, b)
