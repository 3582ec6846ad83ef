import ast
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

import hyplam
from hyplam import REGISTRY, Certificate, ConfigurationError, SweepSpec, geometry, lambert, optimize, qcbounds, run_sweep, verify
from hyplam import specfun
from hyplam.cli import main
from hyplam.verify import _halton, run_all


class TestSpecValidation:
    def test_grid_size_floor(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(target="thsq-identity", grid_size=1)

    def test_tolerance_positive(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(target="thsq-identity", grid_size=10, tolerance=0.0)

    def test_unknown_target(self):
        with pytest.raises(ConfigurationError):
            run_sweep(SweepSpec(target="no-such-claim", grid_size=10))

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            run_all("exhaustive")


class TestCertificates:
    def test_pass_iff_margin_clears_tolerance(self):
        spec = SweepSpec(target="thsq-identity", grid_size=100, tolerance=1e-12)
        cert = run_sweep(spec)
        assert cert.passed == (cert.margin >= 0)
        assert cert.passed

    @pytest.mark.parametrize("name", [e.name for e in REGISTRY])
    def test_deterministic_given_seed(self, monkeypatch, name):
        monkeypatch.delenv("HYPLAM_SEED", raising=False)
        spec = SweepSpec(target=name, grid_size=50, tolerance=1e-12)
        a, b = run_sweep(spec), run_sweep(spec)
        # bitwise identical apart from wall-clock runtime
        assert (a.spec, a.passed, a.observed_extremum, a.witness, a.margin) == (
            b.spec,
            b.passed,
            b.observed_extremum,
            b.witness,
            b.margin,
        )

    @pytest.mark.parametrize("raw,seed", [("24301", 24301), ("0x5EED", 0x5EED), ("0", 0)])
    def test_seed_env_literals(self, monkeypatch, raw, seed):
        monkeypatch.setenv("HYPLAM_SEED", raw)
        assert verify.default_seed() == seed

    @pytest.mark.parametrize("raw", ["abc", "", "-1", "1.5"])
    def test_malformed_seed_env(self, monkeypatch, raw):
        # numpy's generator takes no negative seed either
        monkeypatch.setenv("HYPLAM_SEED", raw)
        with pytest.raises(ConfigurationError, match=f"HYPLAM_SEED .*{raw!r}"):
            verify.default_seed()

    def test_seed_env_override_changes_samples(self, monkeypatch):
        spec = SweepSpec(target="thsq-identity", grid_size=64, tolerance=1e-12)
        monkeypatch.setenv("HYPLAM_SEED", "123")
        a = run_sweep(spec)
        monkeypatch.setenv("HYPLAM_SEED", "456")
        b = run_sweep(spec)
        assert a.passed and b.passed
        assert a.witness != b.witness

    def test_serializes_to_json(self):
        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        blob = json.dumps(cert.to_dict())
        back = json.loads(blob)
        assert back["passed"] is True
        assert back["spec"]["target"] == "distortion-bracket"

    def test_certificate_is_frozen(self):
        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        with pytest.raises(AttributeError):
            cert.passed = False


class TestRegistry:
    def test_every_entry_has_a_target(self, monkeypatch):
        # run_sweep resolves each entry's target to that entry's own sweep
        assert len({e.sweep for e in REGISTRY}) == len(REGISTRY)
        calls = []

        def stub(name):
            def sweep(n, chk):
                calls.append(name)
                chk.require(0.0, 0.0)
                return 0.0, ()

            return sweep

        stubs = tuple(dataclasses.replace(e, sweep=stub(e.name)) for e in REGISTRY)
        monkeypatch.setattr(verify, "REGISTRY", stubs)
        for entry in stubs:
            assert run_sweep(SweepSpec(entry.target, 10, tolerance=entry.tolerance)).passed
        assert calls == [e.name for e in REGISTRY]

    def test_no_sweep_reads_the_grid_size(self):
        # a sweep is handed its sample count, capped by its @claim: it takes
        # no SweepSpec and reads no grid size
        sweeps = [
            node
            for node in ast.walk(ast.parse(Path(verify.__file__).read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "claim" for d in node.decorator_list)
        ]
        assert len(sweeps) == len(REGISTRY)
        for sweep in sweeps:
            names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(sweep)}
            assert not names & {"grid_size", "SweepSpec"}, sweep.name

    def test_names_unique(self):
        names = [e.name for e in REGISTRY]
        assert len(names) == len(set(names))

    def test_covers_all_claim_families(self):
        # every exported bound/identity/monotonicity claim must have a sweep
        required = {
            "arc-orthogonality",
            "crossratio-distance",
            "crossratio-invariance",
            "isometry",
            "midpoint",
            "chord-midpoint-circle",
            "symmetric-geodesic-distance",
            "geodesic-distance-invariance",
            "fc-decreasing",
            "fc-product-unimodal",
            "gc-sum-range",
            "h1-h-shape",
            "gle2-monotonicity",
            "slope-ratio-decreasing",
            "hp-range",
            "gpq-monotonicity",
            "arth-mean-extremum",
            "arth-convexity-region",
            "hyperbolic-mean-bound",
            "mu-identities",
            "distortion-bracket",
            "product-sharpness",
            "sum-cases",
            "thsq-identity",
            "beardon-identity",
            "lambert-oracle-agreement",
            "ideal-extrema",
            "ideal-subdivision",
            "qc-ml-exceeds-one",
            "qc-branch-continuity",
            "qc-k1-reduction",
            "qc-k-monotonicity",
            "qc-domination",
            "qc-branch-decided",
        }
        assert required <= {e.name for e in REGISTRY}

    @pytest.mark.parametrize(
        "name", ["product-sharpness", "ideal-extrema", "qc-k1-reduction", "mu-identities"]
    )
    def test_selected_entries_pass_small(self, name):
        entry = next(e for e in REGISTRY if e.name == name)
        cert = run_sweep(
            SweepSpec(target=entry.target, grid_size=200, params=dict(entry.params), tolerance=entry.tolerance)
        )
        assert cert.passed, (name, cert.margin, cert.witness)


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _nan_product_bound(monkeypatch):
    monkeypatch.setattr(lambert, "product_bound", lambda L: math.nan)


def _nan_lemma_f_c_mid(monkeypatch):
    original = verify.lemma_f_c
    # NaN at every r in (0.4, 0.6), whether r is a scalar or the sweep's grid
    monkeypatch.setattr(verify, "lemma_f_c", lambda c, r: np.where((0.4 < r) & (r < 0.6), math.nan, original(c, r)))


def _nan_rho_disk(monkeypatch):
    monkeypatch.setattr(verify, "rho_disk", lambda x, y: math.nan)


def _nan_absolute_ratio(monkeypatch):
    monkeypatch.setattr(verify, "absolute_ratio", lambda a, b, c, d: math.nan)


def _nan_arc(monkeypatch):
    original = verify._arc
    monkeypatch.setattr(verify, "_arc", lambda z1, z2, ns: tuple(np.full_like(v, math.nan) for v in original(z1, z2, ns)))


def _shift_d1(monkeypatch):
    original = lambert.lambert_from

    def shifted(L, theta):
        q = original(L, theta)
        return q._replace(d1=q.d1 + 1e-7)

    monkeypatch.setattr(lambert, "lambert_from", shifted)


def _shift_big_C(monkeypatch):
    original = verify.big_C_of_p
    monkeypatch.setattr(verify, "big_C_of_p", lambda p: original(p) + 1e-6)


def _lower_qc_product_bound(monkeypatch):
    original = qcbounds.qc_product_bound

    def lowered(inp):
        res = original(inp)
        return res._replace(bound=res.bound * (1.0 - 1e-6))

    monkeypatch.setattr(qcbounds, "qc_product_bound", lowered)


def _raise_sum_upper(monkeypatch):
    original = lambert.sum_bounds

    def raised(L, theta=None):
        rep = original(L, theta)
        return rep._replace(upper=rep.upper * (1.0 + 1e-7))

    monkeypatch.setattr(lambert, "sum_bounds", raised)


def _raise_ideal_product_bound(monkeypatch):
    monkeypatch.setattr(lambert, "IDEAL_PRODUCT_BOUND", lambert.IDEAL_PRODUCT_BOUND * (1.0 + 1e-6))


def _raise_ideal_cut(monkeypatch):
    # above K* = 2.3204520..., where the T term wins the ideal bound's max
    monkeypatch.setattr(qcbounds, "IDEAL_K_CUT", 2.33)


def _stretch_side_d1(monkeypatch):
    original = lambert.side_distances

    def stretched(L, theta):
        d1, d2 = original(L, theta)
        return d1 * (1.0 + 1e-9), d2

    monkeypatch.setattr(lambert, "side_distances", stretched)


def _scale_geodesic_distance(monkeypatch):
    original = geometry._ends_distance
    monkeypatch.setattr(geometry, "_ends_distance", lambda *args: original(*args) * (1.0 + 1e-9))


def _scale_distance_oracle(monkeypatch):
    original = verify._distance_rows
    monkeypatch.setattr(verify, "_distance_rows", lambda gs1, gs2: original(gs1, gs2) * (1.0 + 1e-6))


def _no_sub_check(monkeypatch):
    stubbed = tuple(
        dataclasses.replace(e, sweep=lambda n, chk: (0.0, ())) if e.name == "distortion-bracket" else e
        for e in verify.REGISTRY
    )
    monkeypatch.setattr(verify, "REGISTRY", stubbed)


class TestCertificatesCanFail:
    @pytest.mark.parametrize(
        "mutate,target",
        [
            (_nan_product_bound, "product-sharpness"),
            (_nan_product_bound, "qc-k1-reduction"),
            (_nan_lemma_f_c_mid, "fc-decreasing"),
            (_nan_rho_disk, "crossratio-distance"),
            (_nan_rho_disk, "midpoint"),
            (_nan_rho_disk, "chord-midpoint-circle"),
            (_nan_rho_disk, "hyperbolic-mean-bound"),
            (_nan_rho_disk, "isometry"),
            (_nan_absolute_ratio, "crossratio-invariance"),
            (_nan_arc, "arc-orthogonality"),
            (_shift_d1, "lambert-oracle-agreement"),
            (_shift_big_C, "hp-range"),
            (_lower_qc_product_bound, "qc-domination"),
            (_raise_sum_upper, "sum-cases"),
            (_raise_ideal_product_bound, "ideal-extrema"),
            (_stretch_side_d1, "thsq-identity"),
            (_raise_ideal_cut, "qc-branch-decided"),
            (_scale_geodesic_distance, "geodesic-distance-invariance"),
            (_scale_distance_oracle, "lambert-oracle-agreement"),
            (_scale_distance_oracle, "symmetric-geodesic-distance"),
            (_scale_distance_oracle, "ideal-subdivision"),
            (_no_sub_check, "distortion-bracket"),
        ],
    )
    def test_mutation_fails_and_verify_exits_1(self, monkeypatch, capsys, mutate, target):
        mutate(monkeypatch)
        monkeypatch.setattr(verify, "REGISTRY", tuple(e for e in verify.REGISTRY if e.name == target))
        assert main(["verify", "--json"]) == 1
        (cert,) = _strict_json(capsys.readouterr().out)["certificates"]
        assert cert["spec"]["target"] == target
        assert cert["passed"] is False

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.0 - 1e-9])
    @pytest.mark.parametrize("name", ["_BRACKET_U", "_BRACKET_V"])
    def test_distortion_bracket_fails_a_linear_end_off_by_1e_9(self, monkeypatch, name, factor):
        # A(K) sits far inside the bracket, so only the check of the library's
        # ends against verify's u(K - 1) + 1 and v(K - 1) + K sees this
        monkeypatch.setattr(specfun, name, getattr(specfun, name) * factor)
        cert = run_sweep(SweepSpec("distortion-bracket", 1000))
        assert not cert.passed and cert.margin == -math.inf

    @pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.0 - 1e-12])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    def test_product_sharpness_fails_a_bound_off_by_1e_12(self, monkeypatch, grid, factor):
        # the refined maximum of d1 d2 must be the bound within 8 ulp, on either profile's grid
        original = lambert.product_bound
        monkeypatch.setattr(lambert, "product_bound", lambda L: original(L) * factor)
        cert = run_sweep(SweepSpec("product-sharpness", grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize("name,factor", [("IDEAL_PRODUCT_BOUND", 1.0 + 1e-12), ("IDEAL_SUM_BOUND", 1.0 - 1e-12)])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    def test_ideal_extrema_fails_a_constant_off_by_1e_12(self, monkeypatch, grid, name, factor):
        # the refined maximum of the product and minimum of the sum must be
        # their sharp constants within 8 ulp, on either profile's grid
        monkeypatch.setattr(lambert, name, getattr(lambert, name) * factor)
        cert = run_sweep(SweepSpec("ideal-extrema", grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize(
        "field,factor",
        [("upper", 1.0 + 1e-12), ("lower", 1.0 + 1e-12), ("lower", 1.0 - 1e-12), ("equality_witness", 1.0 + 1e-6)],
    )
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    def test_sum_cases_fails_an_end_or_a_witness_a_little_off(self, monkeypatch, grid, field, factor):
        # the refined maximum must be the upper end within 8 ulp, and lie
        # within 1e-7 of the witness: 4.4e-7 off at L = 0.85; the value at
        # pi/4 must be the lower end within 8 ulp where it is attained
        original = lambert.sum_bounds

        def moved(L, theta=None):
            rep = original(L, theta)
            return rep._replace(**{field: getattr(rep, field) * factor})

        monkeypatch.setattr(lambert, "sum_bounds", moved)
        cert = run_sweep(SweepSpec("sum-cases", grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize("field", ["upper", "lower"])
    @pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.0 - 1e-12])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    def test_gc_sum_range_fails_an_end_off_by_1e_12(self, monkeypatch, grid, factor, field):
        # the refined peak must be the upper end, and G_c(sqrt2/2) the lower
        # end where it is attained, within 8 ulp
        original = verify.g_range

        def moved(c):
            rng = original(c)
            return rng._replace(**{field: getattr(rng, field) * factor})

        monkeypatch.setattr(verify, "g_range", moved)
        cert = run_sweep(SweepSpec("gc-sum-range", grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize("name,target", [("holder_mean", "arth-mean-extremum"), ("lemma_F_c", "fc-product-unimodal")])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    def test_a_lemma_function_off_by_1e_12_fails_its_claim(self, monkeypatch, grid, name, target):
        # the refined extrema must be arth(sqrt2/2) and arth(c sqrt2/2)^2 within 8 ulp
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: original(*args) * (1.0 + 1e-12))
        cert = run_sweep(SweepSpec(target, grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.0 - 1e-9])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    @pytest.mark.parametrize(
        "name,target,point",
        [("lemma_f_c", "fc-decreasing", 1e-9), ("aux_slope_ratio", "slope-ratio-decreasing", 1e-5), ("big_C_of_p", "hp-range", -2.000001)],
    )
    def test_a_limit_off_by_1e_9_at_its_point_fails_its_claim(self, monkeypatch, grid, name, target, point, factor):
        # only the value at the point check's own point moves, which no other
        # sub-check sees: f_1(1e-9) within 8 ulp of 1, the slope ratio at 1e-5
        # within twice 4r^2/5 of -2, C(-2 - 1e-6) within twice 5(p + 2)^2/12 of p
        original = getattr(verify, name)

        def moved(*args):
            return original(*args) * (factor if type(args[-1]) is float and args[-1] == point else 1.0)

        monkeypatch.setattr(verify, name, moved)
        cert = run_sweep(SweepSpec(target, grid))
        assert not cert.passed and cert.margin < 0.0

    @pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.0 - 1e-12])
    @pytest.mark.parametrize("grid", [1000, 100_000], ids=["fast", "thorough"])
    @pytest.mark.parametrize("name", ["qc_product_bound", "qc_ideal_bound"])
    def test_qc_k1_reduction_fails_a_bound_off_by_1e_12(self, monkeypatch, grid, name, factor):
        # at K = 1 each bound must be the unmapped one within 2 ulp
        original = getattr(qcbounds, name)

        def moved(arg):
            res = original(arg)
            return res._replace(bound=res.bound * factor) if name == "qc_product_bound" else res * factor

        monkeypatch.setattr(qcbounds, name, moved)
        cert = run_sweep(SweepSpec("qc-k1-reduction", grid))
        assert not cert.passed and cert.margin < 0.0

    def test_an_ideal_cut_above_K_star_fails_with_a_witness_past_K_star(self, monkeypatch):
        cert = run_sweep(SweepSpec("qc-branch-decided", 1000))
        assert cert.passed and 0.0 < cert.margin < 1e-4  # the headroom at the cut
        _raise_ideal_cut(monkeypatch)
        cert = run_sweep(SweepSpec("qc-branch-decided", 1000))
        assert not cert.passed and cert.margin < 0.0
        assert 2.3204520 < cert.witness[0] <= 2.33

    def test_yes_no_checks_leave_the_margin_open(self, monkeypatch, capsys):
        # qc-ml-exceeds-one records only yes/no sub-checks: its margin is
        # +inf, which the JSON report writes as null
        entry = next(e for e in REGISTRY if e.name == "qc-ml-exceeds-one")
        cert = run_sweep(SweepSpec(entry.target, 50))
        assert cert.passed and cert.margin == math.inf
        monkeypatch.setattr(verify, "REGISTRY", (entry,))
        assert main(["verify", "--json"]) == 0
        assert _strict_json(capsys.readouterr().out)["certificates"][0]["margin"] is None


EPS = 2.0**-52


def _inner_rows():
    """Seeded (A, B) rows of the distance oracle's inner problem, by kind:
    generic, |B| -> 0 and A + B -> 0 (their minimum reaches the clamp),
    |A| >> |B| and |A| << |B|, and exact edges: B = 0, A + B = 0, A = 0 and
    A = B = 0."""
    rng = np.random.default_rng(3207)

    def cplx(k=100):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    def tiny(k=100):
        return 10.0 ** -rng.uniform(0.0, 300.0, k)

    a, b = cplx(), cplx()
    return {
        "generic": (a, b),
        "B -> 0": (a, b * tiny()),
        "A + B -> 0": (-b + cplx() * tiny(), b),
        "|A| >> |B|": (a * 10.0 ** rng.uniform(3.0, 12.0, 100), b),
        "|A| << |B|": (a * 10.0 ** -rng.uniform(3.0, 12.0, 100), b),
        "exact": (np.array([1 + 2j, 3 - 1j, 0j, 0j]), np.array([0j, -3 + 1j, 0.5 - 0.25j, 0j])),
    }


def _h(a, b, u):
    """|A u + B|^2 / (u (1 - u)), as the oracle's inner search evaluated it."""
    re, im = a.real * u + b.real, a.imag * u + b.imag
    return (re * re + im * im) / ((1.0 - u) * u)


class TestDistanceOracleInnerMinimum:
    """optimize._least_over_g2 against the functions it minimises. A row whose
    A u + B nearly cancels at the minimum carries evaluation noise of a few
    ulp of H = (|A| u + |B|)^2 / (u (1 - u)), the value h would take without
    cancellation, so the bounds are in ulp of H at the exact minimiser u*
    (worst seen: 1.05 against the grid, 2.33 against the search)."""

    BOUND = 4 * EPS

    @staticmethod
    def _least(a, b):
        with np.errstate(all="raise"):  # no row reaches 0/0, nor any other invalid step
            least = optimize._least_over_g2(a.real, a.imag, b.real, b.imag)
        nb, nc = abs(b), abs(a + b)
        u = np.clip(nb / np.where(nb + nc > 0.0, nb + nc, 1.0), optimize._clamped(0.0), optimize._clamped(1.0))
        return least, u, (abs(a) * u + nb) ** 2 / (u * (1.0 - u))

    @pytest.mark.parametrize("kind", list(_inner_rows()))
    def test_at_most_the_least_of_a_dense_grid(self, kind):
        # 4 097 even parameters and 2 000 geometric ones from each end of [m, 1 - m]
        a, b = _inner_rows()[kind]
        least, _, scale = self._least(a, b)
        near_ends = np.geomspace(optimize._PARAM_MARGIN, 0.5, 2000)
        grid = np.concatenate([optimize._clamped(np.linspace(0.0, 1.0, 4097)), near_ends, optimize._clamped(1.0) - near_ends])
        assert np.all(np.isfinite(least)) and np.all(least >= 0.0)
        assert np.all(least <= _h(a, b, grid[:, None]).min(axis=0) + self.BOUND * scale)

    @pytest.mark.parametrize("kind", list(_inner_rows()))
    def test_agrees_with_the_bracket_search(self, kind):
        # never above the search; as low as it where the search's 1e-12
        # bracket resolves u*, and lower where u* is within 1e-3 of an end
        # (by up to 6e4 ulp of H at |B| -> 0): h varies there on the scale
        # of u*, or of 1 - u*
        a, b = _inner_rows()[kind]
        least, u, scale = self._least(a, b)
        searched = optimize._bracket_min(lambda t: _h(a, b, optimize._clamped(t)), len(a))
        assert np.all(least <= searched + self.BOUND * scale)
        inside = (u > 1e-3) & (u < 1.0 - 1e-3)
        assert np.all(abs(least - searched)[inside] <= self.BOUND * scale[inside])

    def test_clamped_and_degenerate_rows(self):
        # B = 0 is least at the first clamped parameter m, A + B = 0 at the
        # last, and A = B = 0 is 0 everywhere
        a, b = _inner_rows()["exact"]
        least, u, _ = self._least(a, b)
        assert u.tolist()[:2] == [optimize._PARAM_MARGIN, optimize._clamped(1.0)]
        assert least.tolist() == _h(a, b, u).tolist() and least[3] == 0.0


class TestChecker:
    def test_observed_is_the_largest_finite_deviation(self):
        chk = verify._Checker()
        chk.require(-1.0, 1.0, (0.0,))
        assert chk.observed() == (0.0, (0.0,))
        chk.require(0.25, 1.0, (1.0,))
        chk.require(0.5, 2.0, (2.0,))
        chk.require(0.125, 1.0, (3.0,))
        # the witness is the smallest slack's, 1 - 0.25, not the largest deviation's
        assert chk.observed() == (0.5, (1.0,))

    def test_yes_no_checks_are_never_observed(self):
        chk = verify._Checker()
        chk.require_true(True)
        chk.require_true(False, (1.0,))
        assert chk.observed() == (0.0, (1.0,))
        chk.require(0.5, 1.0)
        assert chk.observed() == (0.5, (1.0,)) and chk.margin == -math.inf

    def test_located_extremum_stands(self):
        chk = verify._Checker()
        chk.require(1.0, 2.0)
        chk.locate(0.75, (7.0,))
        chk.require(10.0, 20.0, (8.0,))
        assert chk.observed() == (0.75, (7.0,))

    def test_empty_located_witness_falls_back_to_the_smallest_slack(self):
        chk = verify._Checker()
        chk.require(0.1, 1.0, (1.0,))
        chk.require(0.1, 0.2, (2.0,))
        chk.locate(3.0)
        chk.require(0.1, 0.5, (3.0,))
        assert chk.observed() == (3.0, (2.0,))

    def test_nan_deviation_fails_and_is_not_observed(self, monkeypatch):
        def sweep(n, chk):
            chk.require(0.5, 1.0, (1.0,))
            chk.require(math.nan, 1.0, (2.0,))
            chk.require(0.25, 1.0, (3.0,))

        entry = dataclasses.replace(REGISTRY[0], sweep=sweep)
        monkeypatch.setattr(verify, "REGISTRY", (entry,))
        cert = run_sweep(SweepSpec(entry.name, 10))
        assert not cert.passed and math.isnan(cert.margin)
        assert (cert.observed_extremum, cert.witness) == (0.5, (2.0,))

    @pytest.mark.parametrize("block", [4, 4096])
    def test_a_decreasing_checks_witness_is_its_worst_step(self, monkeypatch, block):
        # a fall, steepest at the right end, that rises in one step, from xs[3]
        # to xs[4]: across two blocks at 4 points a block
        monkeypatch.setattr(verify, "_BLOCK", block)
        xs = np.linspace(0.0, 1.0, 11)
        vals = -(xs**3)
        vals[4] = vals[3] + 0.01
        grid = verify._Linspace(0.0, 1.0, 11)
        (ext,) = verify._grid_extrema(grid, (0.3,), lambda _, x: vals[np.searchsorted(xs, x)], steps=(0.3,)).values()
        chk = verify._Checker()
        verify._require_monotone(chk, grid, ext, increasing=False, allowance=1e-13, tag=0.3)
        assert chk.margin < 0.0 and chk.observed()[1] == (0.3, float(xs[3]))


def _checker_state(chk):
    # repr makes a NaN margin equal to itself
    return repr(chk.margin), chk._witness, chk._count, chk.observed()


def _row_by_row(chk, deviations, allowances, witnesses):
    rows = len(witnesses)
    for dev, allow, wit in zip(np.broadcast_to(deviations, (rows,)), np.broadcast_to(allowances, (rows,)), witnesses):
        chk.require(float(dev), float(allow), tuple(wit.tolist()))


def _prefixes():
    """Checker states a block can meet: fresh, a small slack, a NaN, a pass."""

    def fresh(chk):
        pass

    def small(chk):
        chk.require(0.9, 1.0, (-1.0,))

    def nan(chk):
        chk.require(math.nan, 1.0, (-2.0,))

    def passed(chk):
        chk.require_true(True, (-3.0,))

    return [fresh, small, nan, passed]


class TestRequireAll:
    """require_all leaves the state that require, row by row, leaves."""

    def _same(self, prefix, deviations, allowances, witnesses):
        by_rows, at_once = verify._Checker(), verify._Checker()
        prefix(by_rows)
        prefix(at_once)
        _row_by_row(by_rows, deviations, allowances, witnesses)
        at_once.require_all(deviations, allowances, witnesses)
        assert _checker_state(at_once) == _checker_state(by_rows)

    @pytest.mark.parametrize("prefix", _prefixes(), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rows(self, prefix, seed):
        rng = np.random.default_rng(seed)
        n = 500
        self._same(prefix, rng.normal(size=n), rng.uniform(0.5, 3.0, n), rng.uniform(size=(n, 3)))

    @pytest.mark.parametrize("prefix", _prefixes(), ids=lambda f: f.__name__)
    def test_ties_keep_the_first_smallest_slack(self, prefix):
        rng = np.random.default_rng(3)
        deviations = rng.integers(0, 3, 300).astype(float)
        self._same(prefix, deviations, 2.0, np.arange(300.0)[:, None])
        chk = verify._Checker()
        chk.require_all(np.array([0.5, 1.0, 1.0, 0.5]), 1.5, np.arange(4.0)[:, None])
        assert chk.margin == 0.5 and chk.observed() == (1.0, (1.0,))

    @pytest.mark.parametrize("prefix", _prefixes(), ids=lambda f: f.__name__)
    def test_the_last_nan_wins(self, prefix):
        rng = np.random.default_rng(4)
        deviations = rng.normal(size=200)
        deviations[[10, 70, 150]] = math.nan
        self._same(prefix, deviations, 1.0, rng.uniform(size=(200, 2)))
        chk = verify._Checker()
        chk.require_all(np.array([math.nan, 0.1, math.nan, 0.2]), 1.0, np.arange(4.0)[:, None])
        assert math.isnan(chk.margin) and chk.observed() == (0.2, (2.0,))

    @pytest.mark.parametrize("prefix", _prefixes(), ids=lambda f: f.__name__)
    def test_yes_no_infinities(self, prefix):
        # require_true records -inf (a pass) or +inf (a failure) against 0
        deviations = np.array([-math.inf, 0.25, math.inf, -math.inf, math.inf, 0.5])
        self._same(prefix, deviations, 0.0, np.arange(6.0)[:, None])
        self._same(prefix, np.full(3, -math.inf), 0.0, np.arange(3.0)[:, None])
        # an infinite deviation against an infinite allowance is a NaN slack
        self._same(prefix, np.array([0.1, math.inf]), np.array([1.0, math.inf]), np.arange(2.0)[:, None])

    def test_scalar_deviation_and_allowance_broadcast(self):
        for prefix in _prefixes():
            self._same(prefix, np.linspace(-1.0, 1.0, 50), 0.75, np.linspace(0.0, 1.0, 50)[:, None])
            self._same(prefix, math.nan, 0.75, np.arange(5.0)[:, None])
            self._same(prefix, 0.25, np.linspace(0.0, 1.0, 7), np.arange(14.0).reshape(7, 2))

    @pytest.mark.parametrize("prefix", _prefixes(), ids=lambda f: f.__name__)
    def test_an_empty_block_changes_nothing(self, prefix):
        chk, untouched = verify._Checker(), verify._Checker()
        prefix(chk)
        prefix(untouched)
        chk.require_all(np.zeros(0), 1.0, np.zeros((0, 4)))
        assert _checker_state(chk) == _checker_state(untouched)


#: sub-checks per sweep on the fast and thorough profiles (grids 1000 and
#: 100000, default seed), as the per-row loops ran them: the array sweeps
#: must check every row, and skip the same ones. thsq-identity counts each
#: of its samples, where it once recorded only the worst one.
SUB_CHECKS = {
    "arc-orthogonality": (1000, 99_999),
    "crossratio-distance": (1000, 100_000),
    "crossratio-invariance": (1000, 100_000),
    "isometry": (101_000, 101_000),
    "midpoint": (1200, 100_200),
    "chord-midpoint-circle": (500, 500),
    "hyperbolic-mean-bound": (1000, 10_000),
    "symmetric-geodesic-distance": (10, 10),
    "geodesic-distance-invariance": (64, 64),
    "lambert-oracle-agreement": (14, 64),
    "ideal-subdivision": (3, 3),
    "hp-range": (11, 11),
    "fc-decreasing": (6, 6),
    "fc-product-unimodal": (12, 12),
    "gc-sum-range": (17, 17),
    "h1-h-shape": (7, 7),
    "gle2-monotonicity": (7, 7),
    "slope-ratio-decreasing": (3, 3),
    "gpq-monotonicity": (9, 9),
    "arth-mean-extremum": (11, 11),
    "arth-convexity-region": (18, 18),
    "mu-identities": (2214, 2214),
    "distortion-bracket": (51, 51),
    "product-sharpness": (40, 40),
    "sum-cases": (13, 13),
    "thsq-identity": (1000, 100_000),
    "beardon-identity": (1106, 2106),
    "ideal-extrema": (6, 6),
    "qc-ml-exceeds-one": (1000, 1000),
    "qc-branch-continuity": (6, 6),
    "qc-k1-reduction": (1001, 1001),
    "qc-k-monotonicity": (6, 6),
    "qc-domination": (3000, 30_000),
    "qc-branch-decided": (1002, 100_002),
}


@pytest.mark.parametrize("grid,profile", [(1000, 0), (100_000, 1)], ids=["fast", "thorough"])
@pytest.mark.parametrize("name", SUB_CHECKS)
def test_sub_check_counts(monkeypatch, name, grid, profile):
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    entry = next(e for e in REGISTRY if e.name == name)
    chk = verify._Checker()
    entry.sweep(entry.samples(grid), chk)
    assert chk._count == SUB_CHECKS[name][profile] and chk.margin >= 0.0


#: (n, dim) for the sampler: small sizes; where the digit count in base 3
#: grows (3^7 + 1 needs 8 digits), and so the split of an index into its low
#: and high digits moves; just past a power of 2; the thorough profile's
#: largest draws
_HALTON_SIZES = [
    *itertools.product([1, 64, 2000], [2, 3, 12]),
    *itertools.product([3**7, 3**7 + 1, 2**17 + 1], [2, 3]),
    (200_000, 2),
    (100_000, 12),
]


#: seeds for the generator: small ones, every seed the registry draws by
#: default, and the sizes where SeedSequence's entropy gains a 32-bit word,
#: up to more words than its 4-word pool holds
_GENERATOR_SEEDS = [0, 1, 11, 701, *range(0x5EED, 0x5EED + 15), 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, 2**300]

#: every base the sampler uses (the primes up to 37, for 12 dimensions), and
#: a few larger ones
_GENERATOR_BASES = [*verify._primes(12), 41, 101, 257]


#: in a fresh interpreter: the modules of scipy and numpy.random loaded after
#: import hyplam.cli, then `hyplam verify --profile fast`'s exit code and
#: those modules after it
_SAMPLER_PROBE = """
import contextlib, io, sys
import hyplam.cli
loaded = lambda: [m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.random")]
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    status = hyplam.cli.main(["verify", "--profile", "fast"])
print(status, loaded())
"""


class TestHalton:
    @pytest.mark.parametrize("base", _GENERATOR_BASES)
    @pytest.mark.parametrize("seed", _GENERATOR_SEEDS, ids=hex)
    def test_permutations_are_numpys(self, seed, base):
        # as many shuffles of one array as the sampler draws for the base,
        # from numpy's generator and from the pure-Python one
        rng, words = np.random.default_rng(seed), verify._pcg64_words(seed)
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            perm = np.arange(base)
            rng.shuffle(perm)
            assert verify._permutation(words, base) == perm.tolist()

    def test_first_permutations_of_the_default_seed(self):
        # pinned without numpy's generator or scipy, which NEP 19 lets change
        # their streams between releases: the certificates depend on the
        # pure-Python generator alone
        words = verify._pcg64_words(verify.DEFAULT_SEED)
        assert [next(words) for _ in range(4)] == [1367064316, 592399874, 2947692083, 4252922383]
        assert [verify._permutation(words, base) for base in (5, 7, 11, 37)] == [
            [3, 4, 0, 1, 2],
            [1, 2, 0, 5, 3, 6, 4],
            [3, 8, 4, 9, 6, 1, 5, 10, 2, 0, 7],
            [1, 19, 17, 5, 18, 7, 27, 33, 12, 31, 10, 6, 3, 15, 9, 23, 13, 11, 20, 25, 35, 26, 0, 36, 2, 14, 24, 22,
             30, 32, 4, 29, 8, 34, 21, 16, 28],
        ]
        # index 0 has every digit 0, so its sample sums the first entry of every permutation of every base
        assert _halton(1, 12, verify.DEFAULT_SEED)[0].tolist() == [
            0.7721284668423108, 0.6600285366450404, 0.1828831924914311, 0.6786889422379986, 0.9879373116447127,
            0.9684079844645358, 0.7210899453784956, 0.8690432978770821, 0.03318844684323293, 0.10143403664818768,
            0.3905484229131237, 0.7291589743891729,
        ]

    @pytest.mark.parametrize("n,dim", _HALTON_SIZES)
    @pytest.mark.parametrize("seed", [0x5EED, 0x5EED + 2, 701, 2**200])
    def test_reproduces_scipy(self, dim, n, seed):
        qmc = pytest.importorskip("scipy.stats").qmc
        expected = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
        u = _halton(n, dim, seed)
        assert np.array_equal(u, expected) and u.strides == expected.strides

    @pytest.mark.parametrize("dim", [1, 2, 12])
    @pytest.mark.parametrize(
        "n,size",
        # n not a multiple of size; size above n; n just past 2^13, 3^7 and
        # 37^2, the powers where a base gains a digit
        [(1000, 97), (50, 64), (2**13 + 1, 1024), (3**7 + 1, 500), (37**2 + 1, 128)],
    )
    def test_blocks_concatenate_to_the_whole(self, n, dim, size):
        blocks = list(verify._halton_blocks(n, dim, 701, size))
        assert [b.shape for b in blocks] == [(min(size, n - i), dim) for i in range(0, n, size)]
        assert np.concatenate(blocks).tobytes() == _halton(n, dim, 701).tobytes()

    def test_cli_import_loads_no_scipy(self):
        # nor does `hyplam verify` load scipy or numpy.random: the sampler
        # draws its permutations in pure Python
        env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
        env.pop("HYPLAM_SEED", None)
        out = subprocess.run([sys.executable, "-c", _SAMPLER_PROBE], env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        assert out.stdout.splitlines() == ["[]", "0 []"]


#: in a fresh interpreter: whether numpy is loaded after import hyplam, after
#: import hyplam.cli and after each argument vector of argv[1], then main's
#: exit codes on argv[2:], with numpy loaded or not after each
_NUMPY_PROBE = """
import contextlib, io, sys
import hyplam
print("numpy" in sys.modules)
import hyplam.cli
print("numpy" in sys.modules)
for argv in open(sys.argv[1]).read().splitlines():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        hyplam.cli.main(argv.split())
    print("numpy" in sys.modules, argv)
for argv in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        print(hyplam.cli.main(argv.split()), "numpy" in sys.modules, file=sys.stderr)
"""


def test_only_subcommands_with_rows_load_numpy(tmp_path):
    # the reports each make one scalar evaluation: the package, the CLI and
    # every pinned report leave numpy unloaded; sweep and verify hold rows
    env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
    env.pop("HYPLAM_SEED", None)
    pinned = Path(__file__).parent / "data" / "cli_argv.txt"
    rows = [f"sweep --target mu --grid 10 --out {tmp_path / 'mu.csv'}", "verify --profile fast"]
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(pinned), *rows], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    reports = out.stdout.splitlines()
    assert len(reports) == 2 + len(pinned.read_text().splitlines())
    assert [line for line in reports if not line.startswith("False")] == []
    assert out.stderr.splitlines() == ["0 True", "0 True"]


#: in a fresh interpreter with numpy unimportable: a scalar geodesic_distance,
#: then each entry that holds rows, and what it raised
_NO_NUMPY_PROBE = """
import importlib, sys
sys.modules["numpy"] = None
import hyplam
g, h = hyplam.geodesic_through(0.5, 0.5 + 0.1j), hyplam.geodesic_through(-0.5, -0.5 + 0.1j)
print(hyplam.geodesic_distance(g, h) > 0.0)
entries = {"geodesic_distance": lambda: hyplam.geodesic_distance([g], [h])}
entries |= {name: (lambda name=name: getattr(hyplam, name)) for name in hyplam._VERIFY_NAMES}
entries |= {m: (lambda m=m: importlib.import_module(m)) for m in ("hyplam.verify", "hyplam._sweep")}
for name, entry in entries.items():
    try:
        entry()
    except hyplam.ConfigurationError as exc:
        print(name, exc)
    else:
        print(name, "returned")
"""


def test_without_numpy_every_row_entry_names_it():
    # numpy is no dependency: an entry that holds rows raises the typed
    # ConfigurationError naming it, which the CLI turns into exit 2
    env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    first, *lines = out.stdout.splitlines()
    names = ["geodesic_distance", *hyplam._VERIFY_NAMES, "hyplam.verify", "hyplam._sweep"]
    assert first == "True" and [line.split()[0] for line in lines] == names
    for line in lines:
        assert line.endswith(": pip install numpy") and " needs numpy, which could not be imported (" in line, line


#: in a fresh interpreter with numpy unimportable: a star import, the names
#: it bound, and what each registry name raises
_STAR_IMPORT_PROBE = """
import sys
sys.modules["numpy"] = None
from hyplam import *
import hyplam
print(" ".join(sorted(name for name in dir() if not name.startswith("_") and name not in ("sys", "hyplam"))))
for name in hyplam._VERIFY_NAMES:
    try:
        getattr(hyplam, name)
    except hyplam.ConfigurationError as exc:
        print(name, exc)
"""


def test_a_star_import_without_numpy_binds_every_report_name():
    # __all__ lists the registry's names only where numpy can be imported: a
    # star import without it binds the rest, and each registry name still names numpy
    env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _STAR_IMPORT_PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    bound, *lines = out.stdout.splitlines()
    assert bound.split() == sorted(set(hyplam.__all__) - set(hyplam._VERIFY_NAMES))
    assert {"rho_disk", "lambert_from", "qc_product_bound", "distortion_A", "Point"} <= set(bound.split())
    assert [line.split()[0] for line in lines] == list(hyplam._VERIFY_NAMES)
    for line in lines:
        assert line.endswith(": pip install numpy") and " needs numpy, which could not be imported (" in line, line


def test_cli_report_loads_no_registry():
    # the registry is imported by `hyplam verify` and on first use of its names
    code = (
        "import sys\n"
        "from hyplam.cli import main\n"
        "main(['lambert', '--L', '0.5', '--theta', '0.3', '--json'])\n"
        "print('hyplam.verify' in sys.modules)\n"
        "import hyplam\n"
        "from hyplam import run_all\n"
        "print('hyplam.verify' in sys.modules, run_all is hyplam.verify.run_all)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-2:] == ["False", "True True"]
    assert {"Certificate", "REGISTRY", "SweepSpec", "run_all", "run_sweep"} <= set(hyplam.__all__)
    with pytest.raises(AttributeError):
        hyplam.no_such_name


def test_the_certificates_do_not_depend_on_the_block_size(monkeypatch):
    # at 97 rows a block, the fast profile's streamed sweeps and isometry's
    # maps run many blocks each
    monkeypatch.delenv("HYPLAM_SEED", raising=False)

    def certificates():
        return json.dumps([dict(c.to_dict(), runtime_ms=None) for c in run_all("fast")])

    one_block = certificates()
    monkeypatch.setattr(verify, "_BLOCK", 97)
    assert certificates() == one_block


@pytest.mark.parametrize("block", [97, 1000, 4096])
@pytest.mark.parametrize("endpoint", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 97, 4096, 4097, 100_001])
def test_the_block_grid_is_linspace_bit_for_bit(monkeypatch, n, endpoint, block):
    # the theta grid of product-sharpness and sum-cases, qc-branch-decided's x
    # grid, and its L grid without its first point
    monkeypatch.setattr(verify, "_BLOCK", block)
    for start, stop, first in (
        (1e-7, math.pi / 2.0 - 1e-7, 0),
        (np.sqrt(1.0 - np.tanh(0.5) ** 2), 1.0, 0),
        (np.tanh(1.0), 1.0, 1),
    ):
        grid = verify._Linspace(start, stop, n, endpoint, first)
        whole = np.linspace(start, stop, n, endpoint=endpoint)[first:]
        blocks = list(grid.blocks())
        assert [i for i, _ in blocks] == list(range(first, n, block))
        assert np.concatenate([np.empty(0)] + [x for _, x in blocks]).tobytes() == whole.tobytes()
        # where a golden search refines an extremum at the ends, next to them and in the middle
        for i in {first, first + 1, n // 2, n - 2, n - 1} & set(range(first, n)):
            j = i - first
            expected = whole[max(j - 1, 0)], whole[min(j + 1, len(whole) - 1)]
            assert np.array(grid.neighbours(i)).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("levels", [(-1.0, 0.0, 2.5), (-math.inf, -1.0, 0.0, 2.5, math.inf)], ids=["finite", "inf"])
@pytest.mark.parametrize("nan_in", [None, "first", "middle", "last"])
@pytest.mark.parametrize("block", [1, 97, 4096])
def test_extrema_handed_over_by_block_are_those_of_the_whole(block, nan_in, levels):
    # a few levels, so that the largest and smallest values, and steps, tie
    # within and across blocks; three whole blocks and a partial one. The
    # steps are those of np.diff of the whole, those across blocks included
    rng = np.random.default_rng(45)
    n = 3 * block + (block + 1) // 2

    def extrema(vals):
        return float(np.max(vals)), float(np.min(vals)), int(np.argmax(vals)), int(np.argmin(vals))

    for _ in range(5):
        vals = rng.choice(levels, size=n)
        if nan_in is not None:
            vals[{"first": rng.integers(block), "middle": block + rng.integers(block), "last": n - 1}[nan_in]] = math.nan
        ext = verify._Extrema(steps=True)
        with np.errstate(invalid="ignore"):  # inf - inf
            for lo in range(0, n, block):
                ext.add(lo, vals[lo : lo + block])
            steps = np.diff(vals)
        assert repr((ext.max, ext.min, ext.argmax, ext.argmin)) == repr(extrema(vals))
        got = ext.steps.max, ext.steps.min, ext.steps.argmax, ext.steps.argmin
        assert repr(got) == repr(extrema(steps))


@pytest.mark.parametrize("block", [97, 4096])
@pytest.mark.parametrize("n", [1000, 20_001])
def test_arth_mean_extremum_takes_arth_once_a_grid_point(monkeypatch, n, block):
    # arth r and arth r' once a point of its grid, in its one block pass, and
    # arth once on the 300 log-spaced tiny radii; a second whole-grid pass for
    # p = 0.2's first point below the target took them twice
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    monkeypatch.setattr(verify, "_BLOCK", block)
    elements = {"arth": 0, "rprime": 0}

    def counting(name, original):
        def counted(x):
            if isinstance(x, np.ndarray):
                elements[name] += x.size
            return original(x)

        return counted

    for name in elements:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    assert run_sweep(SweepSpec("arth-mean-extremum", n)).passed
    assert elements == {"arth": 2 * n + 300, "rprime": n}


#: the last point of a 97-row block and the first of the next
@pytest.mark.parametrize("j", [290, 291])
def test_a_nan_in_one_block_fails_the_theta_sweeps_as_on_the_whole_grid(monkeypatch, j):
    # NaN in d1 at one theta of 1 000: np.max and np.min of the whole grid's
    # values are NaN there, and argmax is at j. At the default block the grid
    # is one block; at 97 rows the NaN is in one block of eleven
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    at_j = np.cos(np.linspace(1e-7, math.pi / 2.0 - 1e-7, 1000)[j])
    original = verify._sides_cs

    def nan_at_j(L, cos, sin):
        d1, d2 = original(L, cos, sin)
        return np.where(cos == at_j, math.nan, d1), d2

    monkeypatch.setattr(verify, "_sides_cs", nan_at_j)

    def certificates():
        return [dict(run_sweep(SweepSpec(name, 1000)).to_dict(), runtime_ms=None) for name in ("product-sharpness", "sum-cases")]

    one_block = certificates()
    product, total = one_block
    # the NaN maximum gives a NaN slack; the NaN minimum fails a yes/no sub-check
    assert not product["passed"] and math.isnan(product["margin"])
    assert not total["passed"] and total["margin"] == -math.inf
    monkeypatch.setattr(verify, "_BLOCK", 97)
    assert json.dumps(certificates()) == json.dumps(one_block)


#: the sweeps that draw, map and check their samples or grid points one block at a time
STREAMED = (
    "arc-orthogonality",
    "crossratio-distance",
    "midpoint",
    "crossratio-invariance",
    "thsq-identity",
    "product-sharpness",
    "sum-cases",
    "qc-branch-decided",
    "gc-sum-range",
    "ideal-extrema",
    "fc-decreasing",
    "fc-product-unimodal",
    "h1-h-shape",
    "gle2-monotonicity",
    "slope-ratio-decreasing",
    "hp-range",
    "gpq-monotonicity",
    "arth-mean-extremum",
)


@pytest.mark.parametrize("name", STREAMED)
def test_a_streamed_sweeps_peak_memory_does_not_grow_with_n(monkeypatch, name):
    # one block's samples and temporaries, whatever n; n samples of 2 to 12
    # dimensions held at once would take 6-13 MB at n = 10^5
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    sweep = next(e for e in REGISTRY if e.name == name).sweep
    peaks = []
    tracemalloc.start()
    try:
        for n in (100_000, 400_000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep(n, verify._Checker())
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 6e6 and max(peaks) <= 1.1 * min(peaks), peaks


def test_thorough_profile_takes_few_hypot_moduli(monkeypatch):
    # hypot (the rows table's abs, _rows.rows().abs) is taken for
    # Euclidean distances and _arc; every modulus that is only squared or
    # compared with 1 is x*x + y*y. The thorough profile took 9.74 M elements
    # of hypot when every modulus was taken by it, and 3.64 M since.
    from hyplam import _rows

    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    elements = []
    hypot_abs = _rows.rows().abs

    def counted(z):
        elements.append(np.size(z))
        return hypot_abs(z)

    monkeypatch.setattr(_rows.rows(), "abs", counted)
    assert all(c.passed for c in run_all("thorough"))
    assert sum(elements) <= 4_000_000
