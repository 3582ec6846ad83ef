import math

import numpy as np
import pytest

from hyplam import lambert
from hyplam import (
    DomainError,
    IDEAL_PRODUCT_BOUND,
    IDEAL_SUM_BOUND,
    InconsistentQuadrilateralError,
    Point,
    SUM_CASE1_MAX,
    SUM_CASE3_MIN,
    alpha_from_quadruple,
    beardon_phi,
    ideal_quad,
    lambert_from,
    product_bound,
    product_report,
    rho_disk,
    sum_bounds,
)

TWO_LOG_SILVER = 2.0 * math.log(math.sqrt(2.0) + 1.0)


class TestConstruction:
    def test_sides_are_arth_projections(self):
        q = lambert_from(0.8, 0.6)
        assert q.d1 == pytest.approx(math.atanh(0.8 * math.cos(0.6)), abs=1e-14)
        assert q.d2 == pytest.approx(math.atanh(0.8 * math.sin(0.6)), abs=1e-14)

    def test_t_solves_quadratic(self):
        # L t^2 - 2t + L = 0 with t in (0, 1]
        q = lambert_from(0.7, 1.0)
        assert 0.7 * q.t**2 - 2.0 * q.t + 0.7 == pytest.approx(0.0, abs=1e-14)
        assert 0.0 < q.t <= 1.0

    def test_diagonal_length(self):
        # L = th rho(v_a, v_c)
        q = lambert_from(0.6, 0.9)
        assert math.tanh(rho_disk(0.0, q.vertices[2].z)) == pytest.approx(0.6, abs=1e-12)

    def test_vertex_positions(self):
        q = lambert_from(0.5, 0.7)
        v_a, v_b, v_c, v_d = q.vertices
        assert v_a.z == 0.0
        assert v_b.z.imag == 0.0 and v_b.z.real > 0.0
        assert v_d.z.real == 0.0 and v_d.z.imag > 0.0
        assert v_b.z.real == pytest.approx(math.tanh(q.d1 / 2.0), abs=1e-14)

    @pytest.mark.parametrize("L,theta", [(0.0, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, math.pi / 2.0)])
    def test_domain_validation(self, L, theta):
        with pytest.raises(DomainError):
            lambert_from(L, theta)

    def test_beardon_phi_rejects_impossible_sides(self):
        # an infinite side makes sh d1 sh d2 infinite, unless the other is 0
        for d1, d2 in [(2.0, 2.0), (math.inf, 0.5), (math.inf, math.inf)]:
            with pytest.raises(InconsistentQuadrilateralError):
                beardon_phi(d1, d2)

    def test_phi_zero_at_L1(self):
        assert lambert_from(1.0, math.pi / 4.0).phi == pytest.approx(0.0, abs=1e-6)


class TestProductBound:
    def test_equality_at_diagonal_angle(self):
        q = lambert_from(0.8, math.pi / 4.0)
        assert q.d1 * q.d2 == pytest.approx(product_bound(0.8), abs=1e-13)

    def test_strict_away_from_it(self):
        q = lambert_from(0.8, 0.3)
        assert q.d1 * q.d2 < product_bound(0.8)

    def test_report_flags_satisfaction(self):
        rep = product_report(0.8, 0.3)
        assert rep.satisfied
        assert rep.observed < rep.upper
        d = rep.to_dict()
        assert d["quantity"] == "product" and d["upper"] == rep.upper

    def test_tiny_L_verdict_is_that_at_a_scaled_L(self, monkeypatch):
        # below L = 2^-500 the bound and d1 d2 underflow; the verdict is taken
        # at L scaled by a power of 2, so it holds down to the smallest double
        # and a bound 1e-9 too low is a violation there
        Ls = [2.0**-499, 2.0**-500, math.nextafter(2.0**-500, 0.0), 1e-300, 1e-310, 5e-324]
        thetas = [1e-300, 0.3, math.pi / 4.0, 1.5]
        assert all(product_report(L, theta).satisfied for L in Ls for theta in thetas)
        original = lambert.product_bound
        monkeypatch.setattr(lambert, "product_bound", lambda L: original(L) * (1.0 - 1e-9))
        assert not any(product_report(L, math.pi / 4.0).satisfied for L in Ls)


class TestSumBounds:
    @pytest.mark.parametrize(
        "L,case",
        [(0.5, 1), (SUM_CASE1_MAX, 1), (0.85, 2), (SUM_CASE3_MIN, 3), (0.95, 3), (1.0, 4)],
    )
    def test_case_routing(self, L, case):
        assert sum_bounds(L).case_label == f"case {case}"

    def test_case1_upper_attained_at_pi4(self):
        rep = sum_bounds(0.5)
        q = lambert_from(0.5, math.pi / 4.0)
        assert q.d1 + q.d2 == pytest.approx(rep.upper, abs=1e-13)

    def test_case3_lower_attained_at_pi4(self):
        rep = sum_bounds(0.95)
        q = lambert_from(0.95, math.pi / 4.0)
        assert q.d1 + q.d2 == pytest.approx(rep.lower, abs=1e-13)

    def test_case23_upper_attained_at_witness(self):
        for L in (0.85, 0.95):
            rep = sum_bounds(L)
            q = lambert_from(L, rep.equality_witness)
            assert q.d1 + q.d2 == pytest.approx(rep.upper, abs=1e-12)

    def test_case4_lower_value(self):
        rep = sum_bounds(1.0)
        assert rep.lower == pytest.approx(math.atanh(2.0 * math.sqrt(2.0) / 3.0), abs=1e-14)
        assert rep.lower == pytest.approx(TWO_LOG_SILVER, abs=1e-13)
        assert rep.upper == math.inf

    def test_grid_never_escapes_range(self):
        for L in (0.3, 0.85, 0.97, 1.0):
            rep = sum_bounds(L)
            for theta in np.linspace(1e-4, math.pi / 2.0 - 1e-4, 500):
                q = lambert_from(L, float(theta))
                assert rep.lower - 1e-10 <= q.d1 + q.d2 <= rep.upper + 1e-10

    def test_no_false_violation_near_the_edges(self):
        # 1 - L from 1e-16 to 1e-4 and L = 1, theta from 1e-300 to 1e-2 off
        # either end, where arth(L cos theta) or arth(L sin theta) nears arth 1
        for L in [1.0, *(1.0 - np.logspace(-16, -4, 7))]:
            for t in np.logspace(-300, -2, 12):
                for theta in (float(t), min(math.pi / 2.0 - t, math.nextafter(math.pi / 2.0, 0.0))):
                    assert product_report(L, theta).satisfied, (L, theta)
                    assert sum_bounds(L, theta).satisfied, (L, theta)

    def test_observed_recorded(self):
        rep = sum_bounds(0.9, 0.5)
        q = lambert_from(0.9, 0.5)
        assert rep.observed == pytest.approx(q.d1 + q.d2)
        assert rep.satisfied


class TestTanhSquareIdentity:
    def test_identity(self):
        rng = np.random.default_rng(7)
        for L, theta in zip(rng.uniform(0.01, 1.0, 200), rng.uniform(1e-3, math.pi / 2 - 1e-3, 200)):
            q = lambert_from(float(L), float(theta))
            assert math.tanh(q.d1) ** 2 + math.tanh(q.d2) ** 2 == pytest.approx(
                L * L, abs=1e-13
            )


class TestIdeal:
    def test_sides(self):
        d1, d2 = ideal_quad(math.pi / 6.0)
        assert d1 == pytest.approx(2.0 * math.atanh(math.cos(math.pi / 6.0)), abs=1e-14)
        assert d2 == pytest.approx(2.0 * math.atanh(math.sin(math.pi / 6.0)), abs=1e-14)

    def test_extremal_constants(self):
        d1, d2 = ideal_quad(math.pi / 4.0)
        assert d1 == pytest.approx(d2, abs=1e-14)
        assert d1 * d2 == pytest.approx(IDEAL_PRODUCT_BOUND, abs=1e-12)
        assert d1 + d2 == pytest.approx(IDEAL_SUM_BOUND, abs=1e-12)

    def test_bounds_hold_on_grid(self):
        for alpha in np.linspace(1e-3, math.pi / 2.0 - 1e-3, 500):
            d1, d2 = ideal_quad(float(alpha))
            assert d1 * d2 <= IDEAL_PRODUCT_BOUND + 1e-12
            assert d1 + d2 >= IDEAL_SUM_BOUND - 1e-12

    def test_alpha_from_symmetric_quadruple(self):
        # |1, i, -1, -i| = 2, hence alpha = pi/4
        assert alpha_from_quadruple(1, 1j, -1, -1j) == pytest.approx(math.pi / 4.0, abs=1e-13)

    def test_alpha_round_trip(self):
        import cmath

        for alpha in (0.3, math.pi / 4.0, 1.2):
            e = cmath.exp(1j * alpha)
            got = alpha_from_quadruple(e, -e.conjugate(), -e, e.conjugate())
            assert got == pytest.approx(alpha, abs=1e-12)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            alpha_from_quadruple(1, -1, 1j, -1j)

    @pytest.mark.parametrize(
        "vertex", [0.0, 0.5j, 2.0, -(1.0 - 1e-12), Point.infinity()], ids=["0", "interior", "outside", "near", "infinity"]
    )
    def test_a_vertex_off_the_circle_is_rejected(self, vertex):
        # a vertex at 0 gave alpha = pi/4
        for i in range(4):
            quad = [1, 1j, -1, -1j]
            quad[i] = vertex
            with pytest.raises(DomainError):
                alpha_from_quadruple(*quad)

    def test_a_quadruple_off_the_circle_is_rejected(self):
        # its absolute ratio is that of (1, i, -1, -i): it gave alpha = pi/4
        with pytest.raises(DomainError):
            alpha_from_quadruple(2, 2j, -2, -2j)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            ideal_quad(0.0)
