"""Scalar bound requests pay each scalar cost once.

- `rho_disk` reads two `INTERIOR` `Point`s straight into `_rho`. The
  selection is by argument type, and it gives the bits of the general path
  (`geometry._points` and the circle mask), which rows and every other
  argument still take.
- `specfun._distortion_A` and `lambert._side_distances` keep their last
  scalar argument and result. Any sequence of calls gives the values of a
  fresh evaluation, bit for bit, and rows and other scalar types never read
  or write the memo.
"""

import math

import numpy as np
import pytest

from hyplam import DomainError, geometry, lambert, qcbounds, specfun
from hyplam.geometry import Point, PointKind

EPS = 2.0**-52


# ---------------------------------------------------------------------------
# the general path, as every scalar call took it before the typed entry


def _rho_general(x, y):
    ns, (z, z_on), (w, w_on) = geometry._points(x, y)
    if z is None or w is None:
        raise DomainError("rho_disk is undefined at infinity")
    on = z_on | w_on
    circle = ns.any(on)
    z_in, w_in = (ns.where(on, 0.0, z), ns.where(on, 0.0, w)) if circle else (z, w)
    sz, sw = ns.sq_abs(z_in), ns.sq_abs(w_in)
    if ns.any((sz > 1.0) | (sw > 1.0)):
        raise DomainError("rho_disk needs points in the closed unit disk")
    rho = geometry._rho(z_in, w_in, sz, sw, ns)
    return ns.where(on, ns.where(z_on & w_on & (z == w), 0.0, math.inf), rho) if circle else rho


def _outcome(f, *args):
    """repr of the result, which tells -0.0, nan and a Point's kind apart, or
    the type and message of the error."""
    try:
        return repr(f(*args))
    except Exception as exc:  # the outcome is compared, whatever it is
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# seeded points


def _pool(seed: int, n: int = 3000) -> list[Point]:
    """Points of every kind: interior, on the circle (snapped there or within
    64 ulp of it), typed INTERIOR within 100 ulp of the circle on either side
    (made by Point.of outside the snap window, and by the constructor inside
    it), an INTERIOR point outside the disk, the origin and infinity."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    k = rng.integers(1, 101, n) * rng.choice([-1.0, 1.0], n)
    radius = np.select(
        [np.arange(n) % 4 < 2, np.arange(n) % 4 == 2],
        [0.999 * np.sqrt(rng.uniform(0.0, 1.0, n)), 1.0 + k * EPS],
        1.0 + (k / 2.0) * EPS,
    )
    pool = []
    for i, (r, t) in enumerate(zip(radius, angle)):
        z = complex(r * math.cos(t), r * math.sin(t))
        pool.append(Point(z.real, z.imag, PointKind.INTERIOR) if i % 8 == 7 else Point.of(z))
    pool += [Point(1e301, 0.0, PointKind.INTERIOR), Point.of(0.0), Point.infinity()]
    kinds = {p.kind for p in pool}
    assert kinds == set(PointKind)
    return pool


def _pairs(pool, n, seed):
    rng = np.random.default_rng(seed)
    return [(pool[i], pool[j]) for i, j in rng.integers(0, len(pool), (n, 2)).tolist()]


def _complex(p: Point):
    return None if p.is_infinity else complex(p.re, p.im)


class TestTypedEntry:
    def test_rho_disk_of_points_is_the_general_path(self):
        pool = _pool(11)
        for x, y in _pairs(pool, 100_000, 12) + [(p, p) for p in pool]:
            assert _outcome(geometry.rho_disk, x, y) == _outcome(_rho_general, x, y), (x, y)

    def test_two_interior_points_skip_the_general_reader(self, monkeypatch):
        p, q = Point.of(0.3 + 0.1j), Point.of(-0.2 + 0.5j)
        expected = geometry.rho_disk(p, q)

        def refused(*values):
            raise AssertionError("the general reader was called")

        monkeypatch.setattr(geometry, "_points", refused)
        assert geometry.rho_disk(p, q) == expected
        for x, y in ((p, 0.5), (0.3 + 0.1j, -0.2 + 0.5j), (p, Point.of(1.0)), (p, Point.infinity())):
            with pytest.raises(AssertionError, match="general reader"):
                geometry.rho_disk(x, y)

    def test_the_typed_entry_keeps_its_errors(self):
        inside, far = Point.of(0.5), Point(1e301, 0.0, PointKind.INTERIOR)
        for x, y in ((inside, far), (far, inside)):
            with pytest.raises(DomainError, match="closed unit disk"):
                geometry.rho_disk(x, y)
        with pytest.raises(DomainError, match="at infinity"):
            geometry.rho_disk(inside, Point.infinity())


# ---------------------------------------------------------------------------
# one-entry memos


def _fresh_A(K):
    specfun._last_A = (None, None)
    return specfun.distortion_A(K)


class TestMemos:
    @pytest.fixture(autouse=True)
    def _restore_memos(self, monkeypatch):
        monkeypatch.setattr(specfun, "_last_A", specfun._last_A)
        monkeypatch.setattr(lambert, "_last_sides", lambert._last_sides)

    def test_interleaved_K_give_a_fresh_evaluation(self):
        rng = np.random.default_rng(21)
        ks = [1.0, 1.5, 2.0, 2.32, 3.0, 14.0, 40.0, 700.0, 1e3, 1e100] + rng.uniform(1.0, 20.0, 6).tolist()
        fresh = {K: repr(_fresh_A(K)) for K in ks}
        sequence = [ks[i] for i in rng.integers(0, len(ks), 4000)]
        sequence = [K for K in sequence for _ in range(int(rng.integers(1, 4)))]
        for K in sequence:
            assert repr(specfun.distortion_A(K)) == fresh[K]
            assert repr(specfun._distortion_A(K)) == fresh[K]
            assert repr(specfun.distortion_bracket(K)[3]) == fresh[K]

    def test_the_bounds_at_one_K_are_those_of_a_fresh_evaluation(self):
        rng = np.random.default_rng(22)
        inputs = [(K, L) for K in (1.0, 1.2, 2.0, 2.5, 5.0, 30.0) for L in (0.2, 0.7615, 0.9, 1.0)]
        fresh = {}
        for K, L in inputs:
            specfun._last_A = (None, None)
            product = repr(qcbounds.qc_product_bound(qcbounds.QcBoundInput(K, L)))
            specfun._last_A = (None, None)
            fresh[K, L] = product, repr(qcbounds.qc_ideal_bound(K))
        for i in rng.integers(0, len(inputs), 2000).tolist():
            K, L = inputs[i]
            got = repr(qcbounds.qc_product_bound(qcbounds.QcBoundInput(K, L))), repr(qcbounds.qc_ideal_bound(K))
            assert got == fresh[K, L]

    def test_interleaved_L_theta_give_a_fresh_evaluation(self):
        rng = np.random.default_rng(23)
        shapes = [(0.5, 0.3), (0.5, 0.7), (0.6, 0.3), (1.0, 1e-8), (1.0, math.pi / 2.0 - 1e-8), (2.0**-510, 0.4)]
        shapes += list(zip(rng.uniform(0.01, 1.0, 8).tolist(), rng.uniform(0.01, 1.5, 8).tolist()))
        builders = (lambert.side_distances, lambert.lambert_from, lambert.product_report, lambert.sum_bounds)
        fresh = {}
        for L, theta in shapes:
            fresh[L, theta] = []
            for build in builders:
                lambert._last_sides = (None, None, None)
                fresh[L, theta].append(_outcome(build, L, theta))
        for i in rng.integers(0, len(shapes), 3000).tolist():
            L, theta = shapes[i]
            assert [_outcome(build, L, theta) for build in builders] == fresh[L, theta]

    def test_a_zero_theta_keeps_its_sign(self):
        assert math.copysign(1.0, lambert.side_distances(0.5, 0.0)[1]) == 1.0
        assert math.copysign(1.0, lambert.side_distances(0.5, -0.0)[1]) == -1.0
        assert math.copysign(1.0, lambert.side_distances(0.5, 0.0)[1]) == 1.0

    def test_a_numpy_scalar_K_gets_its_own_type(self):
        K = 5.0
        fresh = _fresh_A(np.float64(K))
        specfun.distortion_A(K)
        again = specfun.distortion_A(np.float64(K))
        assert type(again) is type(fresh) and repr(again) == repr(fresh)
        assert type(specfun.distortion_A(K)) is float

    @pytest.mark.parametrize("K", [3.0, 3, np.float64(3.0)], ids=["float", "int", "numpy"])
    def test_a_real_scalar_K_gives_floats_and_reaches_the_memo(self, K):
        specfun._last_A = (None, None)
        a = specfun.distortion_A(K)
        assert type(a) is float and repr(a) == repr(_fresh_A(3.0))
        specfun.distortion_A(K)
        assert type(specfun._last_A[0]) is float and specfun._last_A == (3.0, a)
        assert type(qcbounds.qc_ideal_bound(K)) is float
        assert type(qcbounds.qc_product_bound(qcbounds.QcBoundInput(K, 0.9)).bound) is float

    def test_rows_bypass_the_memos(self):
        specfun.distortion_A(2.0)
        lambert.side_distances(0.6, 0.5)
        last_A, last_sides = specfun._last_A, lambert._last_sides
        ks = np.array([2.0, 3.0])
        specfun._last_A = (2.0, -1.0)
        lambert._last_sides = (0.6, 0.5, (-1.0, -1.0))
        assert (specfun.distortion_A(ks) > 0.0).all() and (specfun.distortion_bracket(ks)[3] > 0.0).all()
        assert (lambert.side_distances(np.array([0.6]), 0.5)[0] > 0.0).all()
        assert (lambert.side_distances(0.6, np.array([0.5]))[1] > 0.0).all()
        assert (np.concatenate(lambert.ideal_quad(np.array([0.5]))) > 0.0).all()
        # a 0-d array is a scalar to _check_L and _arth_cx, but a kept key
        # would hold the caller's mutable array
        assert lambert.lambert_from(np.array(0.6), 0.5).d1 > 0.0
        assert lambert.lambert_from(0.6, np.array(0.5)).d2 > 0.0
        lambert.product_report(np.array(0.7), 0.5), lambert.sum_bounds(0.7, np.array(0.5))
        assert specfun._last_A == (2.0, -1.0) and lambert._last_sides == (0.6, 0.5, (-1.0, -1.0))
        specfun._last_A, lambert._last_sides = last_A, last_sides
        assert specfun.distortion_A(2.0) == _fresh_A(2.0)


#: every public entry that takes K, as a function of K alone
K_ENTRIES = {
    "distortion_A": specfun.distortion_A,
    "phi_K": lambda K: specfun.phi_K(K, 0.3),
    "distortion_bracket": specfun.distortion_bracket,
    "QcBoundInput": lambda K: qcbounds.QcBoundInput(K, 0.9),
    "solve_r_LK": lambda K: qcbounds.solve_r_LK(K, 0.9),
    "T_of": lambda K: qcbounds.T_of(0.5, 0.9, K),
    "qc_ideal_bound": qcbounds.qc_ideal_bound,
}


@pytest.mark.parametrize("K", [10**400, -(10**400)], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("entry", K_ENTRIES)
def test_an_int_K_beyond_the_doubles_is_a_domain_error(entry, K):
    # float(K) overflows: a DomainError naming the entry and K as the double
    # it rounds past, not by its 401 digits
    with pytest.raises(DomainError, match=rf"^{entry} needs a finite K >= 1, got K = {'-' if K < 0 else ''}inf$"):
        K_ENTRIES[entry](K)
