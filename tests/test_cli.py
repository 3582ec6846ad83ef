import csv
import io
import json
import math

import pytest

from hyplam import SweepSpec, lambert, run_sweep
from hyplam.cli import _sweep_rows, build_parser, main

PI4 = "0.7853981633974483"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLambert:
    def test_sharp_angle_flags_equality(self, capsys):
        code, out, _ = run(capsys, "lambert", "--L", "0.8", "--theta", PI4)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("product gap"))
        assert "[equality]" in line
        gap = float(line.split(":")[1].split()[0])
        assert abs(gap) <= 1e-12

    def test_equality_flag_is_relative_to_the_bound(self, capsys):
        def flagged(*argv):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return {line.split(":")[0] for line in out.splitlines() if "[equality]" in line}

        # d1 + d2 = 1.357e-300 lies strictly inside [1e-300, 1.414e-300], and
        # d1 d2 = 4.2e-601 lies 16% below the bound 5e-601, though both
        # underflow to 0
        assert flagged("lambert", "--L", "1e-300", "--theta", "0.5") == set()
        assert "product gap" in flagged("lambert", "--L", "1e-300", "--theta", PI4)
        assert flagged("lambert", "--L", "0.8", "--theta", PI4) == {"product gap", "sum gap to upper"}
        assert flagged("ideal", "--alpha", PI4) == {"product gap", "sum gap"}

    def test_small_L_violation_exits_1(self, capsys, monkeypatch):
        # the product bound at L = 1e-6 is 5e-13: the report's slack is
        # relative to it, so a bound 0.1% too low is a violation
        assert run(capsys, "lambert", "--L", "1e-6", "--theta", PI4)[0] == 0
        original = lambert.product_bound
        monkeypatch.setattr(lambert, "product_bound", lambda L: original(L) * (1.0 - 1e-3))
        assert run(capsys, "lambert", "--L", "1e-6", "--theta", PI4)[0] == 1

    def test_L1_sum_sits_on_lower_bound(self, capsys):
        code, out, _ = run(capsys, "lambert", "--L", "1", "--theta", PI4)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("sum gap to lower"))
        assert "[equality]" in line

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "lambert", "--L", "0.8", "--theta", "0.5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hyplam-report-v1"
        assert doc == json.loads(json.dumps(doc))
        assert doc["product"]["satisfied"] and doc["sum"]["satisfied"]
        assert doc["d1"] == pytest.approx(math.atanh(0.8 * math.cos(0.5)))

    def test_L_near_one_exits_0(self, capsys):
        # the sum bound's witness r0 ~ 2 (1 - L) must not cancel to a domain error
        code, out, _ = run(capsys, "lambert", "--L", "0.999999999", "--theta", "0.5")
        assert code == 0
        assert "(case 3)" in out

    @pytest.mark.parametrize(
        "L,theta",
        [
            ("1", "1e-7"),
            ("1", "1e-300"),
            ("1", "5e-324"),
            ("0.999999999999", "1e-9"),
            ("0.9999999999999999", "1.5707963267948963"),
        ],
    )
    def test_edge_quadrilaterals_exit_0(self, capsys, L, theta):
        # arth(L cos theta) near 1 and d1 up to ~745: no bound is violated
        code, out, err = run(capsys, "lambert", "--L", L, "--theta", theta)
        assert code == 0, out + err

    def test_out_of_range_L_exits_2(self, capsys):
        code, _, err = run(capsys, "lambert", "--L", "1.5", "--theta", "0.3")
        assert code == 2
        assert "L" in err


class TestIdeal:
    def test_alpha_pi4_constants(self, capsys):
        code, out, _ = run(capsys, "ideal", "--alpha", PI4, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["product"] == pytest.approx(3.1072776, abs=1e-6)
        assert doc["sum"] == pytest.approx(3.5254943, abs=1e-6)

    def test_quad_matches_alpha(self, capsys):
        code, out, _ = run(capsys, "ideal", "--quad", "1,0", "0,1", "-1,0", "0,-1", "--json")
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_tiny_alpha_exits_0(self, capsys):
        code, out, err = run(capsys, "ideal", "--alpha", "1e-300")
        assert code == 0, out + err

    def test_alpha_zero_exits_2(self, capsys):
        assert run(capsys, "ideal", "--alpha", "0")[0] == 2

    def test_missing_both_exits_2(self, capsys):
        assert run(capsys, "ideal")[0] == 2


class TestQcBound:
    def test_ideal_K1(self, capsys):
        code, out, _ = run(capsys, "qc-bound", "--K", "1", "--ideal", "--json")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(3.1072776, abs=1e-6)

    def test_lambert_report_fields(self, capsys):
        code, out, _ = run(capsys, "qc-bound", "--K", "2", "--L", "0.9", "--json")
        assert code == 0
        doc = json.loads(out)
        for key in ("regime", "r_L", "M_L", "bound"):
            assert key in doc

    def test_small_K_exits_2(self, capsys):
        assert run(capsys, "qc-bound", "--K", "0.5", "--L", "0.9")[0] == 2

    def test_missing_L_and_ideal_exits_2(self, capsys):
        assert run(capsys, "qc-bound", "--K", "2")[0] == 2

    def test_infinite_K_exits_2(self, capsys):
        code, _, err = run(capsys, "qc-bound", "--K", "inf", "--L", "0.5")
        assert code == 2
        assert "K = inf" in err


class TestSpecfun:
    def test_mu(self, capsys):
        code, out, _ = run(capsys, "specfun", "--fn", "mu", "--r", "0.70710678118654752", "--json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_missing_argument_exits_2(self, capsys):
        assert run(capsys, "specfun", "--fn", "phi", "--r", "0.5")[0] == 2

    def test_nan_K_exits_2(self, capsys):
        code, _, err = run(capsys, "specfun", "--fn", "A", "--K", "nan")
        assert code == 2
        assert "K = nan" in err


class TestSweep:
    def test_product_csv(self, capsys, tmp_path):
        out_file = tmp_path / "prod.csv"
        code, _, _ = run(capsys, "sweep", "--target", "product", "--L", "1", "--grid", "1000", "--out", str(out_file))
        assert code == 0
        with open(out_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1000
        margins = [float(row["margin"]) for row in rows]
        assert max(margins) <= 1e-12  # bound never violated
        best = rows[margins.index(max(margins))]
        assert max(margins) >= -1e-4  # and attained up to grid resolution
        assert float(best["theta"]) == pytest.approx(math.pi / 4.0, abs=2e-3)

    def test_mu_csv_columns(self, capsys, tmp_path):
        out_file = tmp_path / "mu.csv"
        code, _, _ = run(capsys, "sweep", "--target", "mu", "--grid", "100", "--out", str(out_file))
        assert code == 0
        with open(out_file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["r", "mu", "mu_product"]
        assert len(rows) == 100
        for row in rows[::25]:
            assert float(row[2]) == pytest.approx(math.pi**2 / 4.0, abs=1e-10)

    def test_seventeen_significant_digits(self, capsys, tmp_path):
        out_file = tmp_path / "mu.csv"
        run(capsys, "sweep", "--target", "mu", "--grid", "10", "--out", str(out_file))
        with open(out_file, newline="") as fh:
            next(fh)
            cell = next(fh).split(",")[1]
        assert float(cell) == pytest.approx(float(f"{float(cell):.17g}"), abs=0)
        assert len(cell.strip().replace(".", "").replace("-", "").lstrip("0")) >= 16

    @pytest.mark.parametrize("target", ["product", "sum", "ideal", "mu"])
    def test_bytes_match_csv_module(self, capsys, tmp_path, target):
        argv = ["sweep", "--target", target, "--grid", "50", "--out", str(tmp_path / "x.csv"), "--L", "1"]
        assert run(capsys, *argv)[0] == 0
        header, rows = _sweep_rows(build_parser().parse_args(argv))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(x):.17g}" for x in row])
        assert (tmp_path / "x.csv").read_bytes() == expected.getvalue().encode()

    def test_tiny_grid_exits_2(self, capsys, tmp_path):
        assert run(capsys, "sweep", "--target", "mu", "--grid", "1", "--out", str(tmp_path / "x.csv"))[0] == 2


class TestVerify:
    def test_reports_pass_lines(self, capsys, monkeypatch):
        import hyplam.cli as climod

        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        entry = next(e for e in climod.ver.REGISTRY if e.target == "distortion-bracket")
        monkeypatch.setattr(climod.ver, "run_all", lambda profile: [cert])
        monkeypatch.setattr(climod.ver, "REGISTRY", [entry])
        code, out, _ = run(capsys, "verify", "--profile", "fast")
        assert code == 0
        assert out.startswith("PASS")

    def test_json_certificates(self, capsys, monkeypatch):
        import hyplam.cli as climod

        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        monkeypatch.setattr(climod.ver, "run_all", lambda profile: [cert])
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hyplam-report-v1"
        assert doc["certificates"][0]["passed"] is True

    def test_failing_certificate_exits_1(self, capsys, monkeypatch):
        import dataclasses

        import hyplam.cli as climod

        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        bad = dataclasses.replace(cert, passed=False, margin=-1.0)
        entry = climod.ver.REGISTRY[0]
        monkeypatch.setattr(climod.ver, "run_all", lambda profile: [bad])
        monkeypatch.setattr(climod.ver, "REGISTRY", [entry])
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert out.startswith("FAIL")

    def test_unknown_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--profile", "exhaustive"])
        assert exc.value.code == 2
