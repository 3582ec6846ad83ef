"""The array-first core of arth(c x) and the AGM: an ndarray call works row by
row under the scalar rules, and a scalar call stays on the math path.

An array row agrees with its scalar call to within ROW_EPS units of 2^-52,
relative: numpy's log1p and log round differently from libm's on a few
percent of arguments, by an ulp, and each kernel takes one or two of them.
The AGM takes only +, * and sqrt, which are correctly rounded in both, so
`agm`, `grotzsch_mu` and `rprime` rows equal their scalar calls bit for bit.
Accuracy against mpmath is tested in test_specfun_accuracy.py.
"""

import math

import numpy as np
import pytest

from hyplam import lambert, specfun
from hyplam.errors import DomainError
from hyplam.lambert import SUM_CASE1_MAX, SUM_CASE3_MIN
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


@pytest.mark.parametrize("name", ["rprime", "grotzsch_mu"])
def test_agm_kernels_equal_their_scalar_calls(name):
    f = getattr(specfun, name)
    assert np.array_equal(f(RS), scalar_rows(f, RS))


def test_agm_rows_equal_their_scalar_calls():
    b = np.concatenate([RS, np.geomspace(1e-12, 1.0 - 1e-6, 2000)])
    assert np.array_equal(specfun.agm(1.0, b), np.array([specfun.agm(1.0, float(x)) for x in b]))
    assert np.array_equal(specfun.agm(b, 1.0), np.array([specfun.agm(float(x), 1.0) for x in b]))


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
    ],
)
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_a_bad_row_raises_the_scalar_error(call, scalar, bad):
    if scalar is lambert.ideal_quad and bad == 1.0:
        bad = HALF_PI
    with pytest.raises(DomainError) as from_scalar:
        scalar(bad)
    with pytest.raises(DomainError) as from_rows:
        call(bad)
    assert str(from_rows.value) == str(from_scalar.value)


def test_a_bad_c_row_raises_the_scalar_error():
    with pytest.raises(DomainError, match=r"needs c in \(0, 1\], got 1.5"):
        specfun.lemma_G_c(np.array([0.5, 1.5]), 0.3)
