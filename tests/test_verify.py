import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyplam
from hyplam import REGISTRY, Certificate, ConfigurationError, SweepSpec, run_sweep, verify
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
        assert cert.passed == (cert.margin >= -spec.tolerance)
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
        stubs = tuple(
            dataclasses.replace(e, sweep=lambda spec, chk, name=e.name: (calls.append(name), (0.0, ()))[1])
            for e in REGISTRY
        )
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
