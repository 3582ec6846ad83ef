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

import numpy as np
import pytest

import hyplam
from hyplam import REGISTRY, Certificate, ConfigurationError, SweepSpec, lambert, qcbounds, run_sweep, verify
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
    monkeypatch.setattr(verify, "_arc", lambda z1, z2: tuple(np.full_like(v, math.nan) for v in original(z1, z2)))


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
    "mu-identities": (1214, 1214),
    "distortion-bracket": (35, 35),
    "product-sharpness": (30, 30),
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


class TestHalton:
    @pytest.mark.parametrize("n,dim", _HALTON_SIZES)
    @pytest.mark.parametrize("seed", [0x5EED, 0x5EED + 2, 701])
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
        code = "import sys, hyplam.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        env = dict(os.environ, PYTHONPATH=str(Path(hyplam.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


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


#: the sweeps that draw, map and check their samples one block at a time
STREAMED = ("arc-orthogonality", "crossratio-distance", "midpoint", "crossratio-invariance", "thsq-identity")


@pytest.mark.parametrize("name", STREAMED)
def test_a_streamed_sweeps_peak_memory_does_not_grow_with_n(monkeypatch, name):
    # one block's samples and temporaries, whatever n; n samples of 2 to 12
    # dimensions held at once would take 6-13 MB at n = 10^5
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    sweep = next(e for e in REGISTRY if e.name == name).sweep
    peaks = []
    tracemalloc.start()
    try:
        for n in (50_000, 200_000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep(n, verify._Checker())
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 6e6 and max(peaks) <= 1.1 * min(peaks), peaks


def test_thorough_profile_takes_few_hypot_moduli(monkeypatch):
    # hypot (the rows namespace's abs, geometry._ROWS.abs) is taken for
    # Euclidean distances and _arc; every modulus that is only squared or
    # compared with 1 is x*x + y*y. The thorough profile took 9.74 M elements
    # of hypot when every modulus was taken by it, and 3.64 M since.
    from hyplam import geometry

    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    elements = []
    hypot_abs = geometry._ROWS.abs

    def counted(z):
        elements.append(np.size(z))
        return hypot_abs(z)

    monkeypatch.setattr(geometry._ROWS, "abs", counted)
    assert all(c.passed for c in run_all("thorough"))
    assert sum(elements) <= 4_000_000
