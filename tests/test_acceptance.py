"""End-to-end acceptance suite.

Each test checks one headline claim of the library at its stated tolerance
and prints a single PASS line on success. Expected values are either exact
closed forms or are re-derived here from independent routes (brute-force
grids, the geodesic-distance oracle, golden-section refinement).
"""

import math
import time

import pytest

np = pytest.importorskip("numpy")

from hyplam import (
    IDEAL_PRODUCT_BOUND,
    IDEAL_SUM_BOUND,
    QcBoundInput,
    R1,
    R1_PRIME,
    absolute_ratio,
    distortion_A,
    distortion_bracket,
    geodesic_through,
    grotzsch_mu,
    ideal_quad,
    lambert_from,
    lemma_f_c,
    phi_K,
    product_bound,
    qc_ideal_bound,
    qc_product_bound,
    run_all,
    sum_bounds,
    threshold_C,
)
from hyplam.optimize import _distance_rows, golden_max, golden_min
from hyplam.qcbounds import M1
from hyplam.specfun import arth_complement, big_C_of_p, holder_mean, rprime

SQRT2_2 = math.sqrt(2.0) / 2.0
ARTH_SQRT2_2 = math.atanh(SQRT2_2)


def _np_holder(p, x, y):
    if p == 0.0:
        return np.sqrt(x * y)
    return ((x**p + y**p) / 2.0) ** (1.0 / p)


def test_product_bound_sharp_on_dense_grids():
    # grid max of d1*d2 attains (arth(L sqrt2/2))^2 at theta = pi/4, never above
    start = time.perf_counter()
    thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, 100_000)
    for L in np.arange(0.1, 1.01, 0.1):
        L = float(round(L, 1))
        prods = np.arctanh(L * np.cos(thetas)) * np.arctanh(L * np.sin(thetas))
        bound = product_bound(L)
        i = int(np.argmax(prods))
        assert bound - 1e-4 <= prods[i] <= bound + 1e-12
        f = lambda t: math.atanh(L * math.cos(t)) * math.atanh(L * math.sin(t))
        argmax, _ = golden_max(f, thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)], tol=1e-12)
        assert abs(argmax - math.pi / 4.0) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: product bound sharp on 1e5-point grids for ten L values ({elapsed:.2f}s)")


def test_tanh_square_identity_random():
    rng = np.random.default_rng(2024)
    L = rng.uniform(0.01, 1.0, 10_000)
    theta = rng.uniform(1e-3, math.pi / 2.0 - 1e-3, 10_000)
    worst = 0.0
    for Li, ti in zip(L, theta):
        q = lambert_from(float(Li), float(ti))
        worst = max(worst, abs(math.tanh(q.d1) ** 2 + math.tanh(q.d2) ** 2 - Li * Li))
    assert worst <= 1e-12
    print(f"PASS: th^2 d1 + th^2 d2 = L^2 on 1e4 random quadrilaterals (worst {worst:.2e})")


def test_ideal_extremal_constants():
    alphas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, 20_001)
    d1 = 2.0 * np.arctanh(np.cos(alphas))
    d2 = 2.0 * np.arctanh(np.sin(alphas))
    prod_f = lambda a: 4.0 * math.atanh(math.cos(a)) * math.atanh(math.sin(a))
    sum_f = lambda a: 2.0 * math.atanh(math.cos(a)) + 2.0 * math.atanh(math.sin(a))
    i = int(np.argmax(d1 * d2))
    a_max, prod_max = golden_max(prod_f, alphas[i - 1], alphas[i + 1], tol=1e-12)
    j = int(np.argmin(d1 + d2))
    a_min, sum_min = golden_min(sum_f, alphas[j - 1], alphas[j + 1], tol=1e-12)
    assert prod_max == pytest.approx(3.1072776, abs=1e-6)
    assert sum_min == pytest.approx(3.5254943, abs=1e-6)
    assert a_max == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert a_min == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert absolute_ratio(1, 1j, -1, -1j) == pytest.approx(2.0, abs=1e-14)
    print(f"PASS: ideal extrema {prod_max:.7f} / {sum_min:.7f} at the symmetric angle")


def test_sum_bound_case_formulas():
    # one L per regime; grid+golden extrema must match the closed forms
    thetas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, 50_001)
    for L in (0.5, 0.85, 0.95, 1.0):
        rep = sum_bounds(L)
        sums = np.arctanh(L * np.cos(thetas)) + np.arctanh(L * np.sin(thetas))
        f = lambda t: math.atanh(L * math.cos(t)) + math.atanh(L * math.sin(t))
        if math.isfinite(rep.upper):
            i = int(np.argmax(sums))
            argmax, top = golden_max(f, thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)], tol=1e-13)
            assert top == pytest.approx(rep.upper, abs=1e-8)
            if L == 0.95:
                r0 = math.cos(rep.equality_witness)
                candidates = (math.acos(r0), math.acos(rprime(r0)))
                assert min(abs(argmax - c) for c in candidates) <= 1e-4
        if L >= 0.95:  # interior minimum regimes
            j = int(np.argmin(sums))
            _, bottom = golden_min(f, thetas[max(j - 1, 0)], thetas[min(j + 1, len(thetas) - 1)], tol=1e-13)
            assert bottom == pytest.approx(rep.lower, abs=1e-8)
    print("PASS: sum-bound extrema match the four case formulas on refined grids")


def test_boundary_vertex_angle_degenerates():
    # at L = 1 the fourth angle closes: sh d1 sh d2 = 1
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        q = lambert_from(1.0, theta)
        assert math.sinh(q.d1) * math.sinh(q.d2) == pytest.approx(1.0, abs=1e-12)
    print("PASS: sh d1 sh d2 = 1 at the boundary-vertex limit for three angles")


def test_modulus_and_distortion_identities():
    assert grotzsch_mu(SQRT2_2) == pytest.approx(math.pi / 2.0, abs=1e-12)
    for r in np.linspace(1e-3, 1.0 - 1e-3, 1000):
        prod = grotzsch_mu(float(r)) * grotzsch_mu(rprime(float(r)))
        assert prod == pytest.approx(math.pi**2 / 4.0, abs=1e-10)
    for r in np.linspace(0.01, 0.99, 100):
        assert phi_K(1.0, float(r)) == pytest.approx(float(r), abs=1e-12)
        closed = 2.0 * math.sqrt(float(r)) / (1.0 + float(r))
        assert phi_K(2.0, float(r)) == pytest.approx(closed, abs=1e-10)
    assert distortion_A(1.0) == pytest.approx(1.0, abs=1e-10)
    arch_e = math.acosh(math.e)
    u = arch_e * math.tanh(arch_e)
    v = math.log(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / math.e**2)))
    assert 1.5412 < u < 1.5413
    assert 1.3506 < v < 1.3507
    for K in (1.0, 1.5, 2.0, 5.0):
        k_, lo, mid, a_k, hi = distortion_bracket(K)
        assert k_ <= lo + 1e-12
        assert lo <= mid + 1e-12
        assert mid <= a_k + 1e-9
        assert a_k <= hi + 1e-9
    print("PASS: modulus identities, distortion closed forms, and the linear bracket hold")


def test_branch_point_constants():
    assert R1 == pytest.approx(0.886819, abs=5e-7)
    assert R1_PRIME == pytest.approx(0.462117, abs=5e-7)
    assert math.atanh(R1_PRIME) == pytest.approx(0.5, abs=1e-12)
    assert M1 == pytest.approx(1.46618, abs=5e-5)
    assert M1 == pytest.approx(lemma_f_c(1.0, R1_PRIME) / lemma_f_c(1.0, R1), abs=1e-10)
    print(f"PASS: branch-point constants r1 = {R1:.6f}, M1 = {M1:.5f}")


def test_conformal_limit_recovers_sharp_bounds():
    for L in np.linspace(0.01, 1.0, 100):
        res = qc_product_bound(QcBoundInput(1.0, float(L)))
        assert res.bound == pytest.approx(product_bound(float(L)), abs=1e-10)
    assert qc_ideal_bound(1.0) == pytest.approx(IDEAL_PRODUCT_BOUND, abs=1e-10)
    print("PASS: K = 1 image bounds reduce to the sharp unmapped bounds")


def test_distance_oracle_agrees_with_closed_forms():
    # optimize's search oracle: the public geodesic_distance is itself a closed form
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    n_configs = 0
    for L, theta in zip(rng.uniform(0.2, 0.99, 40), rng.uniform(0.15, math.pi / 2.0 - 0.15, 40)):
        q = lambert_from(float(L), float(theta))
        g_ad = geodesic_through(q.vertices[3], -q.vertices[3])
        g_bc = geodesic_through(q.vertices[1], q.vertices[2])
        worst = max(worst, abs(_distance_rows([g_ad], [g_bc])[0] - q.d1))
        n_configs += 1
    for alpha in rng.uniform(0.1, math.pi / 2.0 - 0.1, 15):
        e_a = complex(math.cos(float(alpha)), math.sin(float(alpha)))
        g3 = geodesic_through(e_a, e_a.conjugate())
        g4 = geodesic_through(-e_a.conjugate(), -e_a)
        worst = max(worst, abs(_distance_rows([g3], [g4])[0] - 2.0 * math.atanh(math.cos(float(alpha)))))
        n_configs += 1
    elapsed = time.perf_counter() - start
    assert n_configs >= 50
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"PASS: distance oracle matches closed forms on {n_configs} configurations "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_power_mean_of_complementary_arth():
    # H_p(arth r, arth r') against its value at r = sqrt2/2
    grid = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
    vals_a = np.arctanh(grid)
    vals_b = np.arctanh(np.sqrt(1.0 - grid * grid))

    def refine(p, maximize):
        h = _np_holder(p, vals_a, vals_b)
        i = int(np.argmax(h) if maximize else np.argmin(h))
        f = lambda r: holder_mean(p, math.atanh(r), math.atanh(rprime(r)))
        opt = golden_max if maximize else golden_min
        return opt(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], tol=1e-13)

    for p in (-1.0, 0.0):
        r_star, top = refine(p, maximize=True)
        assert top == pytest.approx(ARTH_SQRT2_2, abs=1e-9)
        assert r_star == pytest.approx(SQRT2_2, abs=1e-4)
    C = threshold_C()
    assert C == pytest.approx(0.3767749, abs=1e-6)
    for p in (C, 1.0):
        r_star, bottom = refine(p, maximize=False)
        assert bottom == pytest.approx(ARTH_SQRT2_2, abs=1e-9)
        # at the threshold order the minimum is quartically flat, so the
        # argmin only localizes to ~ (1e-9)^(1/4)
        assert r_star == pytest.approx(SQRT2_2, abs=1e-4 if p == 1.0 else 1e-2)
    # between 0 and the threshold neither one-sided bound holds
    p = 0.2
    below = min(holder_mean(p, math.atanh(float(r)), math.atanh(rprime(float(r)))) for r in grid[1:100])
    assert below < ARTH_SQRT2_2 - 1e-6
    tiny = np.logspace(-30.0, -2.0, 300)
    above = max(holder_mean(p, math.atanh(float(r)), arth_complement(float(r))) for r in tiny)
    assert above > ARTH_SQRT2_2 + 1e-6
    print("PASS: complementary-arth power mean extremal at sqrt2/2 outside (0, C), "
          "two-sided inside")


def test_power_mean_convexity_region():
    rng = np.random.default_rng(7)
    x = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    y = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    c_m3 = big_C_of_p(-3.0)
    assert -3.0 < c_m3 < -1.0
    assert big_C_of_p(-2.0 - 1e-6) == pytest.approx(-2.0, abs=1e-3)
    good = [(-2.0, -2.0), (-2.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (-3.0, c_m3), (-3.0, 0.0)]
    for p, q in good:
        lhs = np.arctanh(_np_holder(p, x, y))
        rhs = _np_holder(q, np.arctanh(x), np.arctanh(y))
        violations = int(np.count_nonzero(lhs > rhs + 1e-10))
        assert violations == 0, (p, q, violations)
    for p, q in ((1.0, 0.0), (2.0, 1.0)):
        lhs = np.arctanh(_np_holder(p, x, y))
        rhs = _np_holder(q, np.arctanh(x), np.arctanh(y))
        gap = lhs - rhs
        i = int(np.argmax(gap))
        assert gap[i] > 1e-6, (p, q, x[i], y[i])
    print("PASS: power-mean convexity region clean on 1e4 pairs, counterexamples "
          "found outside it")


def test_verification_registry_fast_profile():
    start = time.perf_counter()
    certs = run_all("fast")
    elapsed = time.perf_counter() - start
    failed = [c.spec.target for c in certs if not c.passed]
    assert not failed, failed
    assert elapsed < 60.0
    print(f"PASS: all {len(certs)} registry sweeps pass on the fast profile ({elapsed:.1f}s)")
