import math

import numpy as np
import pytest

from hyplam import (
    DomainError,
    IDEAL_PRODUCT_BOUND,
    NoRootError,
    QcBoundInput,
    QcRegime,
    R1,
    R1_PRIME,
    TH1,
    distortion_A,
    lemma_f_c,
    product_bound,
    qc_ideal_bound,
    qc_product_bound,
    solve_r_LK,
)
from hyplam.qcbounds import M1, M_L_of, T_of, _root_pair, r_L_of


class TestConstants:
    def test_branch_point_is_th_one(self):
        assert TH1 == pytest.approx(math.tanh(1.0), abs=1e-15)
        assert TH1 == pytest.approx(0.7615942, abs=5e-8)

    def test_r1(self):
        assert R1 == pytest.approx(0.886819, abs=5e-7)
        assert R1_PRIME == pytest.approx(0.462117, abs=5e-7)
        assert R1**2 + R1_PRIME**2 == pytest.approx(1.0, abs=1e-14)

    def test_arth_r1_prime_is_half(self):
        assert math.atanh(R1_PRIME) == pytest.approx(0.5, abs=1e-13)

    def test_M1(self):
        assert M1 == pytest.approx(1.46618, abs=5e-5)
        assert M1 == pytest.approx(lemma_f_c(1.0, R1_PRIME) / lemma_f_c(1.0, R1), abs=1e-12)


class TestInput:
    def test_validation(self):
        with pytest.raises(DomainError):
            QcBoundInput(0.5, 0.8)
        for K in (math.inf, math.nan):
            with pytest.raises(DomainError, match="K = "):
                QcBoundInput(K, 0.8)
            with pytest.raises(DomainError, match="K = "):
                qc_ideal_bound(K)
        with pytest.raises(DomainError):
            QcBoundInput(2.0, 0.0)
        with pytest.raises(DomainError):
            QcBoundInput(2.0, 1.5)


class TestBranches:
    def test_small_L(self):
        res = qc_product_bound(QcBoundInput(2.0, 0.5))
        assert res.regime is QcRegime.SMALL_L
        assert math.isnan(res.r_L) and res.r_LK is None

    def test_large_L_small_K(self):
        L = 0.9
        res = qc_product_bound(QcBoundInput(1.2, L))
        assert res.regime is QcRegime.LARGE_L_K_LE_M
        assert res.r_L == pytest.approx(TH1 / L, abs=1e-15)
        assert res.M_L > 1.2

    def test_large_L_large_K(self):
        L = 0.9
        ml = M_L_of(L)
        res = qc_product_bound(QcBoundInput(2.0 * ml, L))
        assert res.regime is QcRegime.LARGE_L_K_GT_M
        assert res.r_LK is not None
        assert r_L_of(L) < res.r_LK < 1.0

    def test_M_L_exceeds_one(self):
        for L in np.linspace(TH1 + 1e-4, 1.0, 50):
            assert M_L_of(float(L)) > 1.0

    def test_solve_r_LK_residual(self):
        L, K = 0.9, 4.0
        r = solve_r_LK(K, L)
        lhs = K * lemma_f_c(L, r)
        rhs = lemma_f_c(L, math.sqrt(1.0 - r * r))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_solve_r_LK_needs_large_K(self):
        with pytest.raises(NoRootError):
            solve_r_LK(1.0, 0.9)


class TestBoundValues:
    def test_K1_reduces_to_sharp_bound(self):
        for L in np.linspace(0.02, 1.0, 100):
            res = qc_product_bound(QcBoundInput(1.0, float(L)))
            assert res.bound == pytest.approx(product_bound(float(L)), abs=1e-10)

    def test_ideal_K1(self):
        assert qc_ideal_bound(1.0) == pytest.approx(IDEAL_PRODUCT_BOUND, abs=1e-10)

    def test_monotone_in_K(self):
        for L in (0.4, 0.8, 1.0):
            vals = [qc_product_bound(QcBoundInput(float(K), L)).bound for K in np.linspace(1, 5, 17)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ideal_monotone_in_K(self):
        vals = [qc_ideal_bound(float(K)) for K in np.linspace(1, 5, 17)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dominates_unmapped_bound(self):
        # a K-quasiconformal image can only loosen the sharp bound
        for L in (0.3, 0.8, 1.0):
            for K in (1.5, 3.0):
                assert qc_product_bound(QcBoundInput(K, L)).bound >= product_bound(L) - 1e-12

    def test_T_at_rL_is_lemma_product_at_K1(self):
        L = 0.9
        rl = r_L_of(L)
        assert T_of(rl, L, 1.0) == pytest.approx(
            math.atanh(L * rl) * math.atanh(L * math.sqrt(1 - rl * rl)), abs=1e-14
        )

    @pytest.mark.parametrize("K", [14.0, 14.5, 20.0, 40.0])
    def test_large_K_root_in_complement(self, K):
        # at L = 1 the root r' ~ 2 e^{-K} lies where r rounds to 1: the
        # equation K r/arth r = r'/arth r' holds with arth r = log((1 + r)/r')
        r, rp = _root_pair(K, 1.0, R1)
        lhs = K * r / math.log((1.0 + r) / rp)
        assert lhs == pytest.approx(rp / math.atanh(rp), rel=1e-10)
        assert solve_r_LK(K, 1.0) == r
        floor = distortion_A(K) ** 2
        assert qc_ideal_bound(K) >= floor * IDEAL_PRODUCT_BOUND
        assert qc_product_bound(QcBoundInput(K, 1.0)).bound >= floor * product_bound(1.0) ** (1.0 / K)

    def test_ideal_domain(self):
        with pytest.raises(DomainError):
            qc_ideal_bound(0.9)

    def test_result_serializes(self):
        d = qc_product_bound(QcBoundInput(2.0, 0.9)).to_dict()
        assert set(d) == {"r_L", "M_L", "regime", "r_LK", "bound"}
