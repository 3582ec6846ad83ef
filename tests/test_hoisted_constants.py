"""The values that do not depend on the argument are module constants in
specfun, qcbounds and lambert, each computed once by the expression the call
used to evaluate. Every result must stay bit for bit what that expression
gives per call: A(K) on scalars and rows, distortion_bracket, the QC bounds
in all their regimes and branches, and g_range(1). The QC bounds skip the
side of a max that cannot win it (the qcbounds docstring), and must still
return the bits of the per-call references, which evaluate both sides.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from hyplam import DomainError, specfun
from hyplam.lambert import IDEAL_PRODUCT_BOUND, lambert_from, product_root
from hyplam.qcbounds import (
    IDEAL_K_CUT,
    M1,
    R1,
    R1_PRIME,
    TH1,
    QcBoundInput,
    QcRegime,
    _LOG_R1_PRIME,
    _S_TOL_T_ONLY,
    _T,
    _T_s,
    _r_of,
    _root_s,
    qc_ideal_bound,
    qc_product_bound,
    r_L_of,
)
from hyplam.specfun import _f_c_pair, _mu_inverse_pair, arth, rprime

KS = [1.0, 1.0 + 1e-12, math.nextafter(M1, 0.0), M1, math.nextafter(M1, 2.0), 2.0]
KS += [math.nextafter(IDEAL_K_CUT, 0.0), IDEAL_K_CUT, math.nextafter(IDEAL_K_CUT, 3.0), 7.0, 14.4, 40.0, 1e3, 1e100]
LS = [0.3, TH1, math.nextafter(TH1, 1.0), 0.9, 1.0 - 1e-9, 1.0]


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _per_call_A(K, ns=math):
    """A(K) as each call used to evaluate it, mu(th 1/2) included."""
    phi, log_phip = _mu_inverse_pair(specfun.grotzsch_mu(math.tanh(0.5)) / K, ns)
    return 2.0 * (ns.log1p(phi) - log_phip)


def _per_call_times_A2(K, value):
    a = _per_call_A(K)
    bound = a * a * value
    if not math.isfinite(bound):
        raise DomainError(f"the bound overflows a double at K = {K}")
    return bound


def _per_call_product(K, L):
    small_branch = product_root(L) ** (2.0 / K)
    if L <= TH1:
        return None, None, QcRegime.SMALL_L, None, _per_call_times_A2(K, small_branch)
    rl = r_L_of(L)
    rlp = rprime(rl)
    ml = _f_c_pair(L, rlp, rprime(rlp)) / _f_c_pair(L, rl, rlp)
    if K <= ml:
        regime, r_lk, t_val = QcRegime.LARGE_L_K_LE_M, None, _T(rl, rlp, L, K)
    else:
        s = _root_s(K, L, math.log(rlp))
        regime, r_lk, t_val = QcRegime.LARGE_L_K_GT_M, _r_of(s), _T_s(s, L, K)
    return rl, ml, regime, r_lk, _per_call_times_A2(K, max(t_val, small_branch))


def _per_call_ideal(K):
    if K > M1:
        t_val = _T_s(_root_s(K, 1.0, _LOG_R1_PRIME, _S_TOL_T_ONLY), 1.0, K)
    else:
        t_val = _T(R1, R1_PRIME, 1.0, K)
    return _per_call_times_A2(K, max(2.0 ** (1.0 + 1.0 / K) * t_val, IDEAL_PRODUCT_BOUND))


@pytest.mark.parametrize("K", KS)
def test_distortion_A_and_bracket_are_the_per_call_values(K):
    assert specfun.distortion_A(K).hex() == _per_call_A(K).hex()
    arch_e = math.acosh(math.e)
    u = arch_e * math.tanh(arch_e)
    v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / (math.e * math.e))))
    per_call = (
        K,
        u * (K - 1.0) + 1.0,
        K * arch_e - math.log(2.0) + math.log1p(math.exp(-2.0 * K * arch_e)),
        _per_call_A(K),
        v * (K - 1.0) + K,
    )
    assert [x.hex() for x in specfun.distortion_bracket(K)] == [x.hex() for x in per_call]


def test_distortion_A_rows_are_the_per_call_values():
    Ks = np.array(KS)
    assert specfun.distortion_A(Ks).view(np.uint64).tolist() == _per_call_A(Ks, np).view(np.uint64).tolist()
    bracket = specfun.distortion_bracket(Ks)
    assert bracket[3].view(np.uint64).tolist() == _per_call_A(Ks, np).view(np.uint64).tolist()


@pytest.mark.parametrize("L", LS)
@pytest.mark.parametrize("K", KS)
def test_qc_product_bound_is_the_per_call_value(K, L):
    res = qc_product_bound(QcBoundInput(K, L))
    fields = (res.r_L, res.M_L, res.regime, res.r_LK, res.bound)
    assert [_bits(x) for x in fields] == [_bits(x) for x in _per_call_product(K, L)]


def test_the_grid_meets_every_regime():
    regimes = {qc_product_bound(QcBoundInput(K, L)).regime for K in KS for L in LS}
    assert regimes == set(QcRegime)
    assert min(KS) <= M1 < IDEAL_K_CUT < max(KS)  # both sides of the ideal bound's cut


@pytest.mark.parametrize("K", KS)
def test_qc_ideal_bound_is_the_per_call_value(K):
    assert qc_ideal_bound(K).hex() == _per_call_ideal(K).hex()


#: where 2^(1 + 1/K) T(r_{1,K}, 1) meets (2 log(1 + sqrt2))^2, by bisection to 1e-12
K_STAR = 2.3204520406793563


def test_the_ideal_bound_about_its_cut_is_the_per_call_value():
    ks = [M1, math.nextafter(IDEAL_K_CUT, 0.0), IDEAL_K_CUT, math.nextafter(IDEAL_K_CUT, 3.0), K_STAR - 1e-9, K_STAR + 1e-9]
    assert [qc_ideal_bound(K).hex() for K in ks] == [_per_call_ideal(K).hex() for K in ks]


def test_the_ideal_cut_lies_below_where_T_wins():
    # the per-call reference takes its T term from K_STAR on, and not below
    unmapped = [_per_call_times_A2(K, IDEAL_PRODUCT_BOUND) for K in (K_STAR - 1e-9, K_STAR + 1e-9)]
    assert _per_call_ideal(K_STAR - 1e-9) == unmapped[0] and _per_call_ideal(K_STAR + 1e-9) > unmapped[1]
    assert IDEAL_K_CUT < K_STAR


def _seeded_points(n, seed=2026):
    """n (K, L): half with L uniform on (0, 1], half with L from 1e-15 to
    1e-1 relative above th(1); K log-uniform on [1, 100], but M_L or an ulp
    either side of it for the second quarter's L above th(1)."""
    rng = np.random.default_rng(seed)
    q = n // 4
    L = np.concatenate([
        1.0 - rng.random(2 * q),
        TH1 * (1.0 + 10.0 ** rng.uniform(-15.0, -1.0, n - 2 * q)),
    ])
    K = 10.0 ** rng.uniform(0.0, 2.0, n)
    near = slice(q, 2 * q)  # of the uniform L, those above th(1) take K next to M_L
    large = L[near] > TH1
    ml = [qc_product_bound(QcBoundInput(1.0, x)).M_L for x in L[near][large].tolist()]
    step = rng.integers(-1, 2, len(ml))
    K[np.flatnonzero(large) + q] = [max(1.0, math.nextafter(m, m + s)) for m, s in zip(ml, step.tolist())]
    return list(zip(K.tolist(), L.tolist()))


def _fields(K, L):
    res = qc_product_bound(QcBoundInput(K, L))
    return tuple(_bits(x) for x in (res.r_L, res.M_L, res.regime, res.r_LK, res.bound))


def test_seeded_points_are_the_per_call_values():
    # the ideal bound at the points' K up to 3, around its cut; above 3 it
    # evaluates the reference's own expression, which KS samples
    points = _seeded_points(100_000)
    bad = [(K, L) for K, L in points if _fields(K, L) != tuple(map(_bits, _per_call_product(K, L)))]
    bad += [(K,) for K, _ in points if K <= 3.0 and qc_ideal_bound(K).hex() != _per_call_ideal(K).hex()]
    assert not bad
    assert {_fields(K, L)[2] for K, L in points[::97]} == set(QcRegime)


def test_g_range_at_one_is_the_per_call_value():
    rng = specfun.g_range(1.0)
    assert (rng.case, rng.lower.hex(), rng.upper, rng.r0) == (4, arth(2.0 * math.sqrt(2.0) / 3.0).hex(), math.inf, None)


def test_lambert_quadrilaterals_share_one_origin_vertex():
    a, b = lambert_from(0.5, 0.3), lambert_from(0.9, 1.2)
    assert a.vertices[0] is b.vertices[0] and a.vertices[0] == 0j


def test_a_bracket_far_below_one_raises_domain_error():
    # e^{-2 K arccosh e} overflowed before K was checked
    with pytest.raises(DomainError, match="got K = -1000.0$"):
        specfun.distortion_bracket(-1000.0)
