import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyplam
from hyplam import REGISTRY, Certificate, ConfigurationError, SweepSpec, lambert, run_sweep, verify
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

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.delenv("HYPLAM_SEED", raising=False)
        spec = SweepSpec(target="beardon-identity", grid_size=50, tolerance=1e-12)
        a, b = run_sweep(spec), run_sweep(spec)
        # bitwise identical apart from wall-clock runtime
        assert (a.spec, a.passed, a.observed_extremum, a.witness, a.margin) == (
            b.spec,
            b.passed,
            b.observed_extremum,
            b.witness,
            b.margin,
        )

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
            def sweep(spec, chk):
                calls.append(name)
                chk.require(0.0, 0.0)
                return 0.0, ()

            return sweep

        stubs = tuple(dataclasses.replace(e, sweep=stub(e.name)) for e in REGISTRY)
        monkeypatch.setattr(verify, "REGISTRY", stubs)
        for entry in stubs:
            assert run_sweep(SweepSpec(entry.target, 10, tolerance=entry.tolerance)).passed
        assert calls == [e.name for e in REGISTRY]

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
    monkeypatch.setattr(verify, "lemma_f_c", lambda c, r: math.nan if 0.4 < r < 0.6 else original(c, r))


def _nan_rho_disk(monkeypatch):
    monkeypatch.setattr(verify, "rho_disk", lambda x, y: math.nan)


def _no_sub_check(monkeypatch):
    stubbed = tuple(
        dataclasses.replace(e, sweep=lambda spec, chk: (0.0, ())) if e.name == "distortion-bracket" else e
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

    def test_yes_no_checks_leave_the_margin_open(self, monkeypatch, capsys):
        # qc-ml-exceeds-one records only yes/no sub-checks: its margin is
        # +inf, which the JSON report writes as null
        entry = next(e for e in REGISTRY if e.name == "qc-ml-exceeds-one")
        cert = run_sweep(SweepSpec(entry.target, 50))
        assert cert.passed and cert.margin == math.inf
        monkeypatch.setattr(verify, "REGISTRY", (entry,))
        assert main(["verify", "--json"]) == 0
        assert _strict_json(capsys.readouterr().out)["certificates"][0]["margin"] is None


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
        def sweep(spec, chk):
            chk.require(0.5, 1.0, (1.0,))
            chk.require(math.nan, 1.0, (2.0,))
            chk.require(0.25, 1.0, (3.0,))

        entry = dataclasses.replace(REGISTRY[0], sweep=sweep)
        monkeypatch.setattr(verify, "REGISTRY", (entry,))
        cert = run_sweep(SweepSpec(entry.name, 10))
        assert not cert.passed and math.isnan(cert.margin)
        assert (cert.observed_extremum, cert.witness) == (0.5, (2.0,))


class TestHalton:
    @pytest.mark.parametrize("dim", [2, 3, 12])
    @pytest.mark.parametrize("n", [1, 64, 2000])
    @pytest.mark.parametrize("seed", [0x5EED, 0x5EED + 2, 701])
    def test_reproduces_scipy(self, dim, n, seed):
        qmc = pytest.importorskip("scipy.stats").qmc
        expected = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(n, dim, seed), expected)

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, hyplam.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
