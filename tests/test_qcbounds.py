import math
import re
import sys
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from hyplam import qcbounds
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
from hyplam.lambert import product_root
from hyplam.qcbounds import M1, M_L_of, T_of, _root_s, r_L_of
from hyplam.specfun import _f_c_pair, rprime


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
        assert res.r_L is None and res.M_L is None and res.r_LK is None

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

    def test_large_L_takes_r_L_and_M_L_bit_for_bit(self):
        # qc_product_bound takes r_L once and M_L by lemma_f_c's arithmetic
        # without its checks: the same bits as r_L_of and two lemma_f_c
        # calls, so the same branch and the same bound, up to L = 1 and down
        # to one ulp above th(1), and at K one ulp either side of M_L
        Ls = [math.nextafter(TH1, 2.0), *np.linspace(TH1, 1.0, 65)[1:-1].tolist(), math.nextafter(1.0, 0.0), 1.0]
        for L in Ls:
            rl = r_L_of(L)
            ml = lemma_f_c(L, rprime(rl)) / lemma_f_c(L, rl)
            assert M_L_of(L) == ml
            for K in (1.0, math.nextafter(ml, 0.0), ml, math.nextafter(ml, 2.0 * ml), 2.0, 40.0):
                res = qc_product_bound(QcBoundInput(K, L))
                assert (res.r_L, res.M_L) == (rl, ml)
                if K <= ml:
                    assert res.regime is QcRegime.LARGE_L_K_LE_M and res.r_LK is None
                    t_val = T_of(rl, L, K)
                else:
                    s = _root_s(K, L, math.log(rprime(rl)))
                    assert res.regime is QcRegime.LARGE_L_K_GT_M and res.r_LK == qcbounds._r_of(s)
                    t_val = qcbounds._T_s(s, L, K)
                a = distortion_A(K)
                assert res.bound == a * a * max(t_val, product_root(L) ** (2.0 / K))

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
        # equation K r/arth r = r'/arth r' holds with arth r = log1p(r) - log r'
        s = _root_s(K, 1.0, math.log(R1_PRIME))
        r, rp = math.sqrt(-math.expm1(2.0 * s)), math.exp(s)
        lhs = K * r / (math.log1p(r) - s)
        assert lhs == pytest.approx(rp / math.atanh(rp), rel=1e-10)
        assert solve_r_LK(K, 1.0) == r
        floor = distortion_A(K) ** 2
        assert qc_ideal_bound(K) >= floor * IDEAL_PRODUCT_BOUND
        assert qc_product_bound(QcBoundInput(K, 1.0)).bound >= floor * product_bound(1.0) ** (1.0 / K)

    def test_ideal_domain(self):
        with pytest.raises(DomainError):
            qc_ideal_bound(0.9)

    @pytest.mark.parametrize("K", [1e102, 1e154, 1e160])
    @pytest.mark.parametrize("which", ["L=0.5", "L=1", "ideal"])
    def test_huge_K_is_finite_or_a_typed_error(self, K, which):
        # A(K)^2 overflows from K ~ 5e153, the L = 1 and ideal bounds from
        # K ~ 4e102; a float ** raised OverflowError there, a * gave inf
        bound = {
            "L=0.5": lambda: qc_product_bound(QcBoundInput(K, 0.5)).bound,
            "L=1": lambda: qc_product_bound(QcBoundInput(K, 1.0)).bound,
            "ideal": lambda: qc_ideal_bound(K),
        }[which]
        if K < 1e150:
            assert 0.0 < bound() < math.inf
        else:
            with pytest.raises(DomainError, match=re.escape(f"K = {K}")):
                bound()

    def test_result_serializes(self):
        d = qc_product_bound(QcBoundInput(2.0, 0.9)).to_dict()
        assert set(d) == {"r_L", "M_L", "regime", "r_LK", "bound"}


#: L over the large-L branch: next to the branch point th(1) (where M_L is
#: ~2e8), inside it, and next to and at 1
ROOT_LS = [TH1 + 1e-9, 0.8, 0.99, 1 - 1e-12, 1.0]


def _root_cases():
    """(K, L, s_hi, ideal) on the root branch, s_hi = log r_lo' the upper end
    of the search: each L of ROOT_LS from r_L, and the ideal bound's L = 1
    from r_1; K from 1e-9 above the threshold to 700, or to 4 times the
    threshold where that is larger."""
    cases = [(L, M_L_of(L), math.log(rprime(r_L_of(L))), False) for L in ROOT_LS]
    cases.append((1.0, M1, math.log(R1_PRIME), True))
    for L, m, s_hi, ideal in cases:
        near = m * (1.0 + np.array([1e-9, 1e-6, 1e-3]))
        for K in np.concatenate([near, np.geomspace(1.01 * m, max(700.0, 4.0 * m), 40)]):
            yield float(K), L, s_hi, ideal


def bisect_root(f, a, b, tol=1e-12):
    """Root of a sign-changing f on [a, b] by plain bisection, until b - a <= tol
    or the midpoint equals an end, so tol may be 0: the reference root, which
    shares no code with the root solver it checks. Only the signs of f are
    compared: a product of two values can underflow to zero or overflow.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoRootError(f"no sign change on [{a}, {b}]")
    m = 0.5 * (a + b)
    while b - a > tol and a < m < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) != (fa < 0.0):
            b = m
        else:
            a, fa = m, fm
        m = 0.5 * (a + b)
    return m


class TestBisectRoot:
    def test_tiny_values_keep_their_sign(self):
        # 1e-200 * 1e-200 underflows to 0: a product of values loses the sign
        assert bisect_root(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_huge_numpy_values_do_not_overflow(self):
        # np.float64 products overflow with a RuntimeWarning
        root = bisect_root(lambda x: np.float64(1e200) * (x - 0.3), np.float64(0.0), np.float64(1.0))
        assert root == pytest.approx(0.3, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(NoRootError):
            bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_zero_tolerance_stops_at_adjacent_doubles(self):
        s = math.sqrt(0.5)
        below = s if Fraction(s) ** 2 < Fraction(1, 2) else math.nextafter(s, 0.0)
        root = bisect_root(lambda x: x * x - 0.5, 0.0, 1.0, tol=0.0)
        assert root in (below, math.nextafter(below, 1.0))


def _bisected_s(K, L, s_hi):
    """The root in s = log r' by bisect_root on [log DBL_MIN, s_hi]."""

    def g(s):
        rp = math.exp(s)
        r = rprime(rp)
        return K * _f_c_pair(L, r, rp) - _f_c_pair(L, rp, r)

    return bisect_root(g, math.log(sys.float_info.min), s_hi, tol=1e-12)


class TestRoot:
    def test_agrees_with_bisection(self):
        for K, L, s_hi, _ in _root_cases():
            assert abs(_root_s(K, L, s_hi) - _bisected_s(K, L, s_hi)) <= 4e-12, (K, L)

    def test_ideal_bound_needs_the_root_to_1e_7_only(self):
        # T is stationary at the root: a coarser s leaves the bound as it is
        for K, _, s_hi, ideal in _root_cases():
            if ideal:
                t = qcbounds._T_s(_root_s(K, 1.0, s_hi), 1.0, K)
                full = distortion_A(K) ** 2 * max(2.0 ** (1.0 + 1.0 / K) * t, IDEAL_PRODUCT_BOUND)
                assert qc_ideal_bound(K) == pytest.approx(full, rel=4 * 2.0**-52), K

    @pytest.fixture
    def f_c_calls(self, monkeypatch):
        calls = []
        original = qcbounds._f_c_pair

        def counted(c, x, xp, *ns):
            calls.append(c)
            return original(c, x, xp, *ns)

        monkeypatch.setattr(qcbounds, "_f_c_pair", counted)
        return calls

    def test_evaluation_count(self, f_c_calls):
        # bisection to 1e-12 took 53 steps of two f_c evaluations each
        most = 0
        for K, L, _, ideal in _root_cases():
            f_c_calls.clear()
            if ideal:
                qc_ideal_bound(K)
            else:
                assert qc_product_bound(QcBoundInput(K, L)).regime is QcRegime.LARGE_L_K_GT_M
            assert len(f_c_calls) <= 40, (K, L, len(f_c_calls))
            most = max(most, len(f_c_calls))
        assert most > 0

    def test_finite_and_nondecreasing_past_the_smallest_double(self):
        # at L = 1 the root's r' ~ 2 e^{-K} is below the smallest double from
        # K ~ 745 on
        ks = np.geomspace(1.0, 1e4, 200)
        ideal = [qc_ideal_bound(float(K)) for K in ks]
        product = [qc_product_bound(QcBoundInput(float(K), 1.0)).bound for K in ks]
        for vals in (ideal, product):
            assert all(math.isfinite(v) for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("L", [0.9, 1.0])
    def test_root_for_any_finite_K(self, L):
        # the start of the search stays finite where K^2 overflows
        for K in (1e10, 1e155, 1e300, 1.7e308):
            assert r_L_of(L) < solve_r_LK(K, L) <= 1.0

    @pytest.mark.parametrize("K", [2.0, 14.0, 720.0, 1e3, 1e4])
    def test_ideal_bound_against_mpmath(self, K):
        mp = pytest.importorskip("mpmath")
        from test_specfun_accuracy import ref_A

        with mp.workdps(50):
            k = mp.mpf(K)

            def g(s):  # K r/arth r - r'/arth r', with arth r = log1p(r) - s
                rp = mp.exp(s)
                r = mp.sqrt(-mp.expm1(2 * s))
                return k * r / (mp.log1p(r) - s) - rp / mp.atanh(rp)

            r1p = (mp.e - 1) / (mp.e + 1)
            s = mp.findroot(g, (mp.log(2) - k - 1, mp.log(r1p)), solver="illinois")
            rp = mp.exp(s)
            t = (mp.log1p(mp.sqrt(-mp.expm1(2 * s))) - s) * mp.atanh(rp) ** (1 / k)
            ideal = (2 * mp.log(1 + mp.sqrt(2))) ** 2
            ref = ref_A(k) ** 2 * max(2 ** (1 + 1 / k) * t, ideal)
            assert float(abs(qc_ideal_bound(K) / ref - 1)) <= 1e-12
