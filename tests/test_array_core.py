"""The array-first core of specfun and of the QC threshold: an ndarray call
works row by row under the scalar rules, and a scalar call stays on the math
path.

An array row agrees with its scalar call to within ROW_EPS units of 2^-52,
relative: numpy's log1p, log and arctanh round differently from libm's on a
few percent of arguments, by one or two ulp, and each kernel takes one or two
of them. Where a kernel amplifies that rounding, the allowance carries the
factor: the exponent of a power of arth, and arth r/(arth r - r) in the slope
ratio's form from r = 0.6 on. The AGM and the slope ratio's series take only
+, *, / and sqrt, which are correctly rounded in both, so `agm`,
`grotzsch_mu`, `rprime` and the slope ratio below r = 0.6 equal their scalar
calls bit for bit. Accuracy against mpmath is tested in
test_specfun_accuracy.py.
"""

import math

import numpy as np
import pytest

from hyplam import geometry, lambert, qcbounds, specfun
from hyplam.errors import DomainError
from hyplam.lambert import SUM_CASE1_MAX, SUM_CASE3_MIN
from hyplam.qcbounds import TH1
from hyplam.verify import _halton

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
    # (r/r') (arth r/arth r')^(p - 1): arth r' underflows the power for
    # r -> 0 where p < 0, so those rows start at 1e-8
    rs = RS[RS >= 1e-8] if p < 0.0 else RS
    f = lambda r: specfun.aux_g_le2(p, r)
    assert_rows_agree(f(rs), scalar_rows(f, rs), ROW_EPS * max(1.0, abs(p - 1.0)))


@pytest.mark.parametrize("p,q", [(-2.0, -2.0), (1.0, 1.0), (-2.0, 0.0), (2.0, 3.0), (-3.0, 0.0), (-3.0, -1.9), (2.0, 1.0)])
def test_aux_g_pq_rows(p, q):
    # r^(q - p) underflows with the value for tiny r where q > p
    rs = RS[RS >= 1e-80] if q > p else RS
    f = lambda r: specfun.aux_g_pq(p, q, r)
    assert_rows_agree(f(rs), scalar_rows(f, rs), ROW_EPS * max(1.0, abs(q - 1.0)))


@pytest.mark.parametrize("p", [-3.0, -2.0, -1.0, 5.0])
def test_aux_h_p_rows(p):
    # h_p tends to p as r -> 0; at p = 0 it cancels there, on both paths alike
    f = lambda r: specfun.aux_h_p(p, r)
    assert_rows_agree(f(_R_SPLIT), scalar_rows(f, _R_SPLIT))


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


@pytest.mark.parametrize("name", ["rprime", "grotzsch_mu"])
def test_agm_kernels_equal_their_scalar_calls(name):
    f = getattr(specfun, name)
    assert np.array_equal(f(RS), scalar_rows(f, RS))


def test_agm_rows_equal_their_scalar_calls():
    b = np.concatenate([RS, np.geomspace(1e-12, 1.0 - 1e-6, 2000)])
    assert np.array_equal(specfun.agm(1.0, b), np.array([specfun.agm(1.0, float(x)) for x in b]))
    assert np.array_equal(specfun.agm(b, 1.0), np.array([specfun.agm(float(x), 1.0) for x in b]))


#: the Array API aliases numpy added in 2.0; pyproject allows numpy 1.24, which lacks them
_NUMPY2_ALIASES = ["acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "pow", "concat", "permute_dims"]


def test_array_kernels_run_without_the_numpy2_aliases(monkeypatch):
    for name in _NUMPY2_ALIASES:
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
        lambda: specfun.agm(1.0, 0.3),
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
    ],
)
def test_scalar_calls_return_python_floats(call):
    assert type(call()) is float


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
