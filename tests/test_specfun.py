import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplam import (
    ConvexityClass,
    DomainError,
    agm,
    arth,
    big_C_of_p,
    classify_convexity,
    distortion_A,
    distortion_bracket,
    g_range,
    grotzsch_mu,
    holder_mean,
    lemma_F_c,
    lemma_G_c,
    lemma_f_c,
    mu_inverse,
    phi_K,
    rprime,
    threshold_C,
)
from hyplam import specfun
from hyplam.specfun import SQRT2_2, arth_complement, aux_g_le2, aux_h, aux_h1, aux_h_p, aux_slope_ratio

unit_open = st.floats(1e-3, 1.0 - 1e-3)


class TestBasics:
    def test_arth_domain(self):
        with pytest.raises(DomainError):
            arth(-0.1)
        assert arth(1.0) == math.inf

    def test_arth_complement_matches_direct(self):
        for r in (0.1, 0.5, 0.9):
            assert arth_complement(r) == pytest.approx(math.atanh(rprime(r)), abs=1e-14)

    def test_arth_complement_tiny(self):
        # log(2/r) asymptotics, where the direct route rounds to arth(1)
        assert arth_complement(1e-20) == pytest.approx(math.log(2e20), rel=1e-15)

    @given(unit_open, unit_open)
    @settings(max_examples=50, deadline=None)
    def test_holder_mean_ordering(self, r, s):
        # power means increase with the order
        assert holder_mean(-1.0, r, s) <= holder_mean(0.0, r, s) + 1e-14
        assert holder_mean(0.0, r, s) <= holder_mean(1.0, r, s) + 1e-14

    @pytest.mark.parametrize("p", [-2.0, 0.0, 1.5])
    def test_holder_mean_on_arrays(self, p):
        # elementwise equal to the scalar mean; NaN passes through, zero does not
        r, s = np.array([0.1, 0.5, 0.9]), np.array([0.7, 0.2, 0.9])
        expected = [holder_mean(p, float(a), float(b)) for a, b in zip(r, s)]
        np.testing.assert_allclose(holder_mean(p, r, s), expected, rtol=1e-15)
        assert math.isnan(holder_mean(p, math.nan, 0.5))
        with pytest.raises(DomainError):
            holder_mean(p, r, np.array([0.7, 0.0, 0.9]))

    def test_agm_between_inputs(self):
        v = agm(1.0, 0.25)
        assert 0.25 < v < 1.0
        assert agm(2.0, 2.0) == 2.0


class TestLemmaFunctions:
    def test_f1_limit_and_decrease(self):
        assert lemma_f_c(1.0, 1e-10) == pytest.approx(1.0)
        rs = np.linspace(0.01, 0.99, 200)
        vals = [lemma_f_c(1.0, float(r)) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_fc_decreasing_for_small_c(self):
        rs = np.linspace(0.01, 0.99, 200)
        vals = [lemma_f_c(0.4, float(r)) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_Fc_peak_location_and_value(self):
        for c in (0.5, 1.0):
            peak = lemma_F_c(c, SQRT2_2)
            assert peak == pytest.approx(math.atanh(c * SQRT2_2) ** 2, abs=1e-14)
            assert lemma_F_c(c, 0.3) < peak
            assert lemma_F_c(c, 0.9) < peak

    def test_Fc_symmetry(self):
        assert lemma_F_c(0.8, 0.2) == pytest.approx(lemma_F_c(0.8, rprime(0.2)), abs=1e-14)

    @pytest.mark.parametrize(
        "c,case",
        [(0.5, 1), (math.sqrt(2.0 / 3.0), 1), (0.85, 2), (math.sqrt(2.0 * (math.sqrt(2.0) - 1.0)), 3), (0.95, 3), (1.0, 4)],
    )
    def test_g_range_cases(self, c, case):
        assert g_range(c).case == case

    def test_g_range_bounds_against_grid(self):
        for c in (0.5, 0.85, 0.95):
            rng = g_range(c)
            vals = [lemma_G_c(c, float(r)) for r in np.linspace(1e-4, 1 - 1e-4, 4000)]
            assert max(vals) <= rng.upper + 1e-9
            assert min(vals) >= rng.lower - 1e-9

    def test_g_range_case4_lower_is_double_arth(self):
        # arth(2 sqrt2 / 3) = 2 arth(sqrt2 / 2)
        rng = g_range(1.0)
        assert rng.lower == pytest.approx(2.0 * math.atanh(SQRT2_2), abs=1e-14)
        assert rng.upper == math.inf

    def test_h_peak(self):
        peak = aux_h(SQRT2_2)
        assert peak == pytest.approx(math.sqrt(2.0) / math.log(math.sqrt(2.0) + 1.0), abs=1e-14)
        assert aux_h(0.2) < peak

    def test_h1_increasing(self):
        assert aux_h1(0.2) < aux_h1(0.6) < aux_h1(0.9)

    def test_g_le2_at_tiny_r(self):
        # r' rounds to 1 here; arth r' = log((1 + r')/r)
        assert aux_g_le2(0.5, 1e-9) == pytest.approx(1e-9 * (1e-9 / math.log(2e9)) ** -0.5, rel=1e-15)

    def test_slope_ratio_range(self):
        vals = [aux_slope_ratio(float(r)) for r in np.linspace(0.001, 0.999, 500)]
        assert all(v < -2.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_threshold_value(self):
        assert threshold_C() == pytest.approx(0.3767749, abs=1e-6)


class TestBigC:
    def test_domain(self):
        with pytest.raises(DomainError):
            big_C_of_p(-2.0)

    def test_values(self):
        c3 = big_C_of_p(-3.0)
        assert -3.0 < c3 < -1.0
        assert big_C_of_p(-2.0 - 1e-6) == pytest.approx(-2.0, abs=1e-3)

    def test_sup_dominates_grid(self):
        c3 = big_C_of_p(-3.0)
        vals = [aux_h_p(-3.0, float(r)) for r in np.linspace(1e-4, 1 - 1e-4, 3000)]
        assert max(vals) <= c3 + 1e-10


class TestConvexityRegion:
    @pytest.mark.parametrize("pq", [(-2.0, -2.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (-3.0, 0.0)])
    def test_inside(self, pq):
        assert classify_convexity(*pq).classification is not ConvexityClass.NOT_CONVEX

    @pytest.mark.parametrize("pq", [(1.0, 0.0), (2.0, 1.0), (-3.0, -2.9)])
    def test_outside(self, pq):
        assert classify_convexity(*pq).classification is ConvexityClass.NOT_CONVEX


class TestGrotzsch:
    def test_special_value(self):
        assert grotzsch_mu(1.0 / math.sqrt(2.0)) == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_functional_identity(self):
        for r in (0.1, 0.37, 0.8):
            assert grotzsch_mu(r) * grotzsch_mu(rprime(r)) == pytest.approx(
                math.pi**2 / 4.0, abs=1e-12
            )

    def test_decreasing(self):
        assert grotzsch_mu(0.2) > grotzsch_mu(0.5) > grotzsch_mu(0.8)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, r):
        assert mu_inverse(grotzsch_mu(r)) == pytest.approx(r, abs=1e-11)

    def test_phi_1_is_identity(self):
        for r in (0.05, 0.5, 0.95):
            assert phi_K(1.0, r) == pytest.approx(r, abs=1e-12)

    def test_phi_2_closed_form(self):
        # classical identity used purely as an oracle
        for r in (0.1, 0.4, 0.7, 0.95):
            assert phi_K(2.0, r) == pytest.approx(2.0 * math.sqrt(r) / (1.0 + r), abs=1e-10)

    def test_phi_increases_with_K(self):
        assert phi_K(3.0, 0.3) > phi_K(1.5, 0.3) > 0.3

    @pytest.mark.parametrize("K", [math.inf, math.nan, 0.5])
    def test_phi_rejects_K(self, K):
        with pytest.raises(DomainError, match="K = "):
            phi_K(K, 0.5)

    def test_inverse_underflow_is_an_error(self):
        assert mu_inverse(700.0) > 0.0
        for y in (800.0, math.inf):
            with pytest.raises(DomainError, match="underflows"):
                mu_inverse(y)


class TestDistortion:
    def test_A1(self):
        assert distortion_A(1.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K", [1.0, 1.5, 2.0, 5.0])
    def test_bracket_chain(self, K):
        k_, lo, mid, a_k, hi = distortion_bracket(K)
        assert k_ <= lo + 1e-9 <= mid + 2e-9 <= a_k + 3e-9 <= hi + 4e-9

    @pytest.mark.parametrize("K", [math.inf, math.nan, 0.5])
    def test_A_rejects_K(self, K):
        with pytest.raises(DomainError, match="K = "):
            distortion_A(K)

    def test_slope_constants(self):
        arch_e = math.acosh(math.e)
        u = arch_e * math.tanh(arch_e)
        v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / math.e**2)))
        assert 1.5412 < u < 1.5413
        assert 1.3506 < v < 1.3507


class TestCallCounts:
    """mu^{-1} is a closed form: A(K) evaluates mu once, at th 1/2, and mu_inverse
    never. A bisection creeping back in would show up here as many calls."""

    @pytest.fixture
    def mu_calls(self, monkeypatch):
        calls = []
        original = specfun.grotzsch_mu

        def counted(r):
            calls.append(r)
            return original(r)

        monkeypatch.setattr(specfun, "grotzsch_mu", counted)
        return calls

    @pytest.mark.parametrize("K", [2.0, 7.0, 12.0])
    def test_distortion_A_evaluates_mu_once(self, mu_calls, K):
        specfun.distortion_A(K)
        assert len(mu_calls) == 1

    @pytest.mark.parametrize("y", [0.05, 1.0, 10.0])
    def test_mu_inverse_never_evaluates_mu(self, mu_calls, y):
        specfun.mu_inverse(y)
        assert mu_calls == []
