"""Scalar bound requests pay for arithmetic only.

- Each geometry call picks its table once: a scalar call calls only the
  functions of `_rows.SCALAR`, a row call only those of `_rows.rows()`.
- The bound builders check their arguments once and then call the private
  kernels: with the public checkers they used to call made to raise, every
  builder still returns what it returned before.
- The public functions whose checks the builders skip refuse arguments
  outside their domain with a DomainError that names the bad argument.
"""

import math
import re

import pytest

np = pytest.importorskip("numpy")

from hyplam import DomainError, _rows, geometry, lambert, qcbounds, specfun
from hyplam.geometry import MoebiusMap, Point

#: (L, theta) of a Lambert quadrilateral in each regime of the sum bound
SUM_CASES = [(0.5, 0.3), (0.85, 0.7), (0.95, 1.2), (1.0, 0.4)]
#: QcBoundInput arguments, one per regime of qc_product_bound
QC_INPUTS = [(2.0, 0.5), (1.0, 0.9), (5.0, 0.9)]


def _poison(monkeypatch, owner, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, refused)


def _refuse_table(monkeypatch, table):
    """Make every function of a table of _rows raise when called."""
    for name in [n for n in vars(table) if not n.startswith("_")]:
        _poison(monkeypatch, table, name)


def _request():
    """The library calls of one bounds-stream request, on scalars."""
    quad = lambert.lambert_from(0.6, 0.5)
    m = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
    images = [m(v) for v in quad.vertices]
    ideal = (1.0, 1j, -1.0, -1j)
    out = [quad, lambert.product_report(0.6, 0.5), lambert.sum_bounds(0.6, 0.5), images]
    out += [geometry.rho_disk(v[i], v[j]) for v in (quad.vertices, images) for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))]
    out += [lambert.alpha_from_quadruple(*ideal), lambert.alpha_from_quadruple(*[m(z) for z in ideal])]
    out += [qcbounds.qc_product_bound(qcbounds.QcBoundInput(*inp)) for inp in QC_INPUTS]
    out += [qcbounds.qc_ideal_bound(K) for K in (1.5, 3.0)]
    return out


class TestNamespacePick:
    def test_scalar_calls_read_only_the_scalar_table(self, monkeypatch):
        p, q = Point(0.3 + 0.1j), Point(-0.2 + 0.5j)
        expected = _request()
        _refuse_table(monkeypatch, _rows.rows())
        assert _request() == expected
        m = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
        for call in (
            lambda: geometry.rho_disk(p, 1.0),
            lambda: geometry.rho_disk(p, q),
            lambda: geometry.rho_halfplane(1j, 0.5 + 2j),
            lambda: geometry.absolute_ratio(Point(math.inf), 0.5, 0.2j, -0.3),
            lambda: geometry.chordal_distance(p, Point(math.inf)),
            lambda: geometry.rho_via_crossratio(p, q),
            lambda: geometry.hyperbolic_midpoint(p, q),
            lambda: geometry.geodesic_through(p, q),
            lambda: m(p),
        ):
            call()

    def test_row_calls_read_only_the_rows_table(self, monkeypatch):
        z = np.array([0.3 + 0.1j, -0.5j, 0.2])
        w = np.array([-0.2 + 0.5j, 0.1, 1.0])
        rows = [geometry.rho_disk(z, w), geometry.rho_halfplane(z + 1j, w + 2j), geometry.chordal_distance(z, w)]
        rows += [geometry.rho_via_crossratio(z[:2], w[:2]), geometry.hyperbolic_midpoint(z[:2], w[:2])]
        _refuse_table(monkeypatch, _rows.SCALAR)
        again = [geometry.rho_disk(z, w), geometry.rho_halfplane(z + 1j, w + 2j), geometry.chordal_distance(z, w)]
        again += [geometry.rho_via_crossratio(z[:2], w[:2]), geometry.hyperbolic_midpoint(z[:2], w[:2])]
        for a, b in zip(rows, again):
            assert a.tobytes() == b.tobytes()

    def test_a_0d_array_is_a_row(self):
        # an ndarray argument, 0-d included, is read by the rows table, and its
        # result is the one-row call's row, as a numpy scalar
        z, w = np.array(0.1 + 0.05j), np.array(0.2j)
        m = MoebiusMap.disk_automorphism(0.3)
        for call, kind in (
            (geometry.rho_disk, np.float64),
            (geometry.hyperbolic_midpoint, np.complex128),
            (lambda z, w: m(z), np.complex128),
        ):
            got, row = call(z, w), call(z[None], w[None])
            assert type(got) is kind and got.tobytes() == row[0].tobytes()

    def test_a_row_among_scalars_picks_the_rows_table(self):
        ns, (z, _), (w, _) = geometry._points(np.array([0.1, 0.2]), 0.5j)
        assert ns is _rows.rows() and type(z) is np.ndarray and type(w) is complex
        assert geometry._points(0.1, Point(0.5j))[0] is _rows.SCALAR


class TestBuildersValidateOnce:
    #: the public functions that check or dispatch again, which the builders no longer call
    REFUSED = {
        lambert: ("side_distances", "product_root"),
        specfun: ("arth", "g_range", "lemma_G_c"),
        qcbounds: ("r_L_of", "M_L_of", "product_root", "lemma_f_c"),
    }

    def _builds(self):
        out = [lambert.lambert_from(L, theta) for L, theta in SUM_CASES]
        out += [lambert.product_report(L, theta) for L, theta in SUM_CASES] + [lambert.product_report(1e-160, 0.3)]
        out += [lambert.sum_bounds(L, theta) for L, theta in SUM_CASES] + [lambert.sum_bounds(0.5)]
        out += [qcbounds.qc_product_bound(qcbounds.QcBoundInput(*inp)) for inp in QC_INPUTS]
        out += [qcbounds.qc_ideal_bound(K) for K in (1.5, 3.0)]
        return out

    def test_builders_call_no_public_checker(self, monkeypatch):
        expected = self._builds()
        for owner, names in self.REFUSED.items():
            for name in names:
                if hasattr(owner, name):
                    _poison(monkeypatch, owner, name)
        assert self._builds() == expected

    def test_builders_still_refuse_bad_arguments(self):
        for call in (
            lambda: lambert.lambert_from(1.5, 0.3),
            lambda: lambert.lambert_from(0.5, 1.6),
            lambda: lambert.product_report(math.nan, 0.3),
            lambda: lambert.product_report(0.5, -0.1),
            lambda: lambert.sum_bounds(0.0, 0.3),
            lambda: lambert.sum_bounds(0.5, math.pi / 2.0),
            lambda: qcbounds.QcBoundInput(0.5, 0.5),
            lambda: qcbounds.QcBoundInput(2.0, 1.5),
            lambda: qcbounds.qc_ideal_bound(math.inf),
        ):
            with pytest.raises(DomainError):
                call()

    def test_sweep_rows_call_no_public_checker(self, monkeypatch):
        from hyplam import _sweep, cli

        parse = cli.build_parser().parse_args
        args = [parse(["sweep", "--target", t, "--grid", "64", "--L", "0.7", "--out", "-"]) for t in ("product", "sum")]
        expected = [_sweep._sweep_rows(a)[1] for a in args]
        _poison(monkeypatch, lambert, "side_distances")
        for a, table in zip(args, expected):
            assert _sweep._sweep_rows(a)[1].tobytes() == table.tobytes()


class TestSideDistancesDomain:
    @pytest.mark.parametrize("L,theta,named", [
        (2.0, 0.3, "L"), (0.0, 0.3, "L"), (-0.5, 0.3, "L"), (math.nan, 0.3, "L"), (math.inf, 0.3, "L"),
        (0.5, 2.0, "theta"), (0.5, -0.1, "theta"), (0.5, math.nan, "theta"), (0.5, math.pi / 2.0 + 1e-15, "theta"),
    ])
    def test_scalars(self, L, theta, named):
        bad = L if named == "L" else theta
        with pytest.raises(DomainError, match=rf"side_distances needs {named} in .*, got {bad}"):
            lambert.side_distances(L, theta)

    def test_rows_name_the_first_bad_row(self):
        with pytest.raises(DomainError, match=r"needs L in \(0, 1\], got 2.0"):
            lambert.side_distances(np.array([0.5, 2.0, 3.0]), 0.3)
        with pytest.raises(DomainError, match=r"needs theta in \[0, pi/2\], got -0.5"):
            lambert.side_distances(0.5, np.array([0.3, -0.5, 2.0]))
        with pytest.raises(DomainError, match=r"got nan"):
            lambert.side_distances(np.array([0.5, 0.7]), np.array([0.3, math.nan]))

    def test_domain_edges_are_accepted(self):
        assert lambert.side_distances(1.0, 0.0) == (math.inf, 0.0)
        assert lambert.side_distances(1e-300, math.pi / 2.0)[1] > 0.0


#: the start of each argument's message
NAMED = {"K": r"needs a finite K >= 1, got K = ", "L": r"L must lie in \(0, 1\], got ", "x": r"T_of needs x in \[0, 1\], got "}


class TestQcDomain:
    @pytest.mark.parametrize("K,L,named", [
        (math.inf, 0.9, "K"), (math.nan, 0.9, "K"), (0.5, 0.9, "K"), (-3.0, 0.9, "K"),
        (3.0, 2.0, "L"), (3.0, math.nan, "L"), (3.0, 0.0, "L"), (3.0, 0.5, "L"),
    ])
    def test_solve_r_LK(self, K, L, named):
        # L is checked once, against the domain (th(1), 1] of its r_L
        needs = r"solve_r_LK needs L in \(th\(1\), 1\], got " if named == "L" else NAMED[named]
        with pytest.raises(DomainError, match=needs + (re.escape(str(L)) if named == "L" else "")):
            qcbounds.solve_r_LK(K, L)

    @pytest.mark.parametrize("x,L,K,named", [
        (0.5, 0.9, 0.0, "K"), (0.5, 0.9, math.inf, "K"), (0.5, 0.9, math.nan, "K"),
        (2.0, 0.9, 2.0, "x"), (-0.1, 0.9, 2.0, "x"), (math.nan, 0.9, 2.0, "x"),
        (0.5, 2.0, 2.0, "L"), (0.5, 0.0, 2.0, "L"), (0.5, math.nan, 2.0, "L"),
    ])
    def test_T_of(self, x, L, K, named):
        with pytest.raises(DomainError, match=NAMED[named]):
            qcbounds.T_of(x, L, K)

    def test_valid_calls_are_unchanged(self):
        r = qcbounds.solve_r_LK(5.0, 0.9)
        assert qcbounds.r_L_of(0.9) < r < 1.0
        assert qcbounds.T_of(r, 0.9, 5.0) == qcbounds._T(r, specfun.rprime(r), 0.9, 5.0)
        assert qcbounds.T_of(0.0, 0.9, 2.0) == 0.0 and qcbounds.T_of(1.0, 0.9, 2.0) == 0.0


class TestDiskAutomorphismDomain:
    @pytest.mark.parametrize("a", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), math.nan, 1.5, 1j])
    def test_center(self, a):
        with pytest.raises(DomainError, match="center"):
            MoebiusMap.disk_automorphism(a, 0.3)

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_phase(self, phase):
        with pytest.raises(DomainError, match="phase"):
            MoebiusMap.disk_automorphism(0.3 - 0.2j, phase)
