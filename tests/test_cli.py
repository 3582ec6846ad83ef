import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyplam import SweepSpec, grotzsch_mu, lambert, rprime, run_sweep, verify
from hyplam import _sweep, cli
from hyplam._sweep import _CSV_CELLS, _csv_bytes, _sweep_rows
from hyplam.cli import build_parser, main
from test_verify import _strict_json

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

    def test_tiny_L_violation_exits_1(self, capsys, monkeypatch):
        # at L = 1e-300, d1 d2 and the bound both underflow to 0: the verdict
        # is taken at L scaled into the normal range, where a halved bound shows
        original = lambert.product_bound
        monkeypatch.setattr(lambert, "product_bound", lambda L: original(L) * 0.5)
        assert run(capsys, "lambert", "--L", "1e-300", "--theta", PI4)[0] == 1

    def test_tiny_L_on_the_bound_exits_0(self, capsys):
        assert run(capsys, "lambert", "--L", "1e-300", "--theta", PI4)[0] == 0

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

    @pytest.mark.parametrize("quad", [("2,0", "0,2", "-2,0", "0,-2"), ("0,0", "0,1", "-1,0", "0,-1")])
    def test_vertices_off_the_circle_exit_2(self, capsys, quad):
        # both reported alpha = pi/4 and exited 0
        code, out, err = run(capsys, "ideal", "--quad", *quad)
        assert code == 2 and out == ""
        assert "unit circle" in err


class TestQcBound:
    def test_ideal_K1(self, capsys):
        code, out, _ = run(capsys, "qc-bound", "--K", "1", "--ideal", "--json")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(3.1072776, abs=1e-6)

    def test_ideal_past_the_smallest_double(self, capsys):
        # the root's r' ~ 2 e^{-720} is below the smallest double
        code, out, _ = run(capsys, "qc-bound", "--K", "720", "--ideal", "--json")
        assert code == 0
        assert math.isfinite(json.loads(out)["bound"])

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

    @pytest.mark.parametrize("value, attached", [("-1e3", "--p=-1000"), ("-3.", "--p=-3"), ("-.5", "--p=-0.5")])
    def test_negative_values_need_no_equals_sign(self, capsys, value, attached):
        # argparse took "-1e3" and "-3." for options: "expected one argument"
        assert run(capsys, "specfun", "--fn", "C", "--p", value) == run(capsys, "specfun", "--fn", "C", attached)
        code, out, err = run(capsys, "lambert", "--L", value, "--theta", "0.5")
        assert (code, out) == (2, "") and "expected one argument" not in err


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

    @pytest.mark.parametrize("L", [2.0**-60, 0.5, lambert.SUM_CASE1_MAX, 1.0])
    @pytest.mark.parametrize("target", ["product", "sum", "ideal", "mu"])
    def test_rows_match_scalar_calls(self, capsys, tmp_path, target, L):
        # the sweep is one array call per target; each row is within 4 units
        # of 2^-52 of the scalar calls (numpy's log1p rounds apart from libm's)
        out_file = tmp_path / "x.csv"
        argv = ["sweep", "--target", target, "--grid", "200", "--out", str(out_file), "--L", repr(L)]
        assert run(capsys, *argv)[0] == 0
        with open(out_file, newline="") as fh:
            rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
        assert len(rows) == 200
        for got, want in zip(rows, map(scalar_row, [target] * 200, [L] * 200, (row[0] for row in rows))):
            scale = max(abs(x) for x in want if math.isfinite(x))
            assert all(g == w or abs(g - w) <= 4.0 * 2.0**-52 * scale for g, w in zip(got, want)), (got, want)

    @pytest.mark.parametrize("L", ["0", "1.5", "nan"])
    @pytest.mark.parametrize("target", ["product", "sum"])
    def test_bad_L_exits_2(self, capsys, tmp_path, target, L):
        argv = ["sweep", "--target", target, "--grid", "10", "--out", str(tmp_path / "x.csv"), "--L", L]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "L must lie in (0, 1]" in err

    @pytest.mark.parametrize("L", [2.0**-60, lambert.SUM_CASE1_MAX, 1.0])
    @pytest.mark.parametrize("target", ["product", "sum", "ideal", "mu"])
    def test_bytes_match_percent_format(self, capsys, tmp_path, target, L):
        argv = ["sweep", "--target", target, "--grid", "300", "--out", str(tmp_path / "x.csv"), "--L", repr(L)]
        assert run(capsys, *argv)[0] == 0
        header, table = _sweep_rows(build_parser().parse_args(argv))
        assert (tmp_path / "x.csv").read_bytes() == (",".join(header) + "\r\n").encode() + percent_csv(table)

    @pytest.mark.parametrize("target,cols", [("product", 4), ("sum", 5), ("ideal", 5), ("mu", 3)])
    def test_rows_past_whole_blocks(self, capsys, tmp_path, target, cols):
        # three whole blocks of this target's rows and a partial one
        n = _CSV_CELLS // cols * 3 + 7
        argv = ["sweep", "--target", target, "--grid", str(n), "--out", str(tmp_path / "x.csv"), "--L", "0.5"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith(f"wrote {n} rows")
        _, table = _sweep_rows(build_parser().parse_args(argv))
        assert table.shape == (n, cols)
        assert (tmp_path / "x.csv").read_bytes().split(b"\r\n", 1)[1] == percent_csv(table)

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, out):
        # exit 1 means a violated bound; the path is checked before the sweep runs
        monkeypatch.setattr(_sweep, "_sweep_rows", lambda args: pytest.fail("swept"))
        code, _, err = run(capsys, "sweep", "--target", "mu", "--grid", "10", "--out", str(tmp_path / out))
        assert code == 2 and err.startswith("error: ")

    def test_failed_sweep_keeps_the_old_file(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old")
        code, _, _ = run(capsys, "sweep", "--target", "sum", "--grid", "10", "--L", "1.5", "--out", str(out))
        assert code == 2 and out.read_bytes() == b"old"
        assert run(capsys, "sweep", "--target", "sum", "--grid", "10", "--L", "0.5", "--out", str(out))[0] == 0
        assert out.read_bytes().startswith(b"theta,value,lower,upper,margin\r\n")

    def test_sweep_over_a_longer_file_leaves_only_its_bytes(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--target", "mu", "--grid", "10", "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        fresh = out.read_bytes()
        out.write_bytes(b"x" * (10 * len(fresh)))
        assert run(capsys, *argv)[0] == 0
        assert out.read_bytes() == fresh

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_may_be_a_pipe(self):
        argv = ["sweep", "--target", "mu", "--grid", "3", "--out", "/dev/stdout"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "hyplam.cli", *argv], env=env, capture_output=True, check=True)
        assert done.stdout.startswith(b"r,mu,mu_product\r\n0.001,8.29") and done.stdout.endswith(b"rows to /dev/stdout\n")

    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_memory(args):
            raise MemoryError("Unable to allocate 711. TiB")

        monkeypatch.setattr(_sweep, "_sweep_rows", no_memory)
        code, _, err = run(capsys, "sweep", "--target", "mu", "--grid", "10", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err == "error: Unable to allocate 711. TiB\n"

    @pytest.mark.parametrize("argv", [["sweep", "--target", "mu", "--grid", "10", "--out", "x.csv"], ["verify"]],
                             ids=["sweep", "verify"])
    def test_without_numpy_exits_2_with_one_line(self, tmp_path, argv):
        # exit 1 means a violated bound: a missing numpy is an error, with no traceback
        code = "import sys; sys.modules['numpy'] = None; from hyplam.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2 and done.stdout == "" and not (tmp_path / "x.csv").exists()
        assert done.stderr.startswith("error: ") and "numpy" in done.stderr and done.stderr.count("\n") == 1


def percent_csv(table) -> bytes:
    """The reference CSV body: one "%.17g" per cell."""
    return "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in np.asarray(table).tolist()).encode()


def _powers_and_carries() -> np.ndarray:
    """10**e and 9.99999999999999995e<e> (which rounds to 17 nines or carries)
    for e from -324 to 308 where they are nonzero doubles, each with its 20
    neighbours on either side."""
    centres = [float(f"{m}e{e}") for e in range(-324, 309) for m in ("1", "9.99999999999999995")]
    centres = np.array([c for c in centres if 0.0 < c < math.inf])
    out = [centres]
    for toward in (0.0, math.inf):
        x = centres
        for _ in range(20):
            x = np.nextafter(x, toward)
            out.append(x)
    return np.concatenate(out)


def _ties() -> np.ndarray:
    """Doubles x = m 2**-(k+1), m odd, with x 10**k a half-integer in
    [1e16, 1e17): a tie at the 17th digit, for every k that has one."""
    rng = np.random.default_rng(7)
    out = []
    for k in range(25):
        lo, hi = 2 * 10**16 // 5**k + 1, min(2 * 10**17 // 5**k, 2**53)
        if lo < hi:
            out.append((rng.integers(lo, hi, 4000) | 1) * 2.0 ** -(k + 1))
    return np.concatenate(out)


class TestCsvBytes:
    """_csv_bytes against "%.17g" cell by cell."""

    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5])
    def test_random_bit_patterns(self, cols):
        rng = np.random.default_rng(cols)
        table = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
        table = table[: len(table) // cols * cols].reshape(-1, cols)
        assert _csv_bytes(table) == percent_csv(table)

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(11)
        x = 10.0 ** rng.uniform(-320, 308.25, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        assert _csv_bytes(x.reshape(-1, 4)) == percent_csv(x.reshape(-1, 4))

    def test_sweep_scale_values(self):
        # the digits near 1, where most sweep cells lie, and 1e-8 to 1e18
        rng = np.random.default_rng(12)
        x = np.exp(rng.uniform(math.log(1e-8), math.log(1e18), 100_000)) * rng.choice([-1.0, 1.0], 100_000)
        assert _csv_bytes(x.reshape(-1, 5)) == percent_csv(x.reshape(-1, 5))

    def test_ties_round_to_even(self):
        x = _ties()
        assert len(x) > 80_000
        assert _csv_bytes(x.reshape(-1, 2)) == percent_csv(x.reshape(-1, 2))

    def test_powers_of_ten_and_carries(self):
        x = _powers_and_carries()
        x = np.concatenate([x, -x])
        assert _csv_bytes(x.reshape(-1, 2)) == percent_csv(x.reshape(-1, 2))

    def test_special_values(self):
        x = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.225073858507201e-308]
        x += [2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4, 0.1, 1.0, 123.0, 1e16, 1e17]
        table = np.array(x).reshape(-1, 2)
        assert _csv_bytes(table) == percent_csv(table)
        assert _csv_bytes(np.array([[-0.0, math.nan, -math.inf]])) == b"-0,nan,-inf\r\n"

    @pytest.mark.parametrize("rows", [1, 7, _CSV_CELLS // 3 + 1])
    def test_row_counts(self, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 20, (rows, 3))
        assert _csv_bytes(table) == percent_csv(table)


_DIVISION = ZeroDivisionError("float division by zero")


@pytest.mark.parametrize(
    "argv,owner,name,exc",
    [
        (["lambert", "--L", "0.5", "--theta", "0.3"], lambert, "product_report", _DIVISION),
        (["ideal", "--alpha", "0.5"], lambert, "ideal_quad", _DIVISION),
        (["qc-bound", "--K", "2", "--ideal"], cli.qcb, "qc_ideal_bound", _DIVISION),
        (["specfun", "--fn", "A", "--K", "2"], cli, "distortion_A", _DIVISION),
        (["lambert", "--L", "0.5", "--theta", "0.3"], lambert, "product_report",
         ImportError("cannot import name 'linspace' from 'numpy'")),
    ],
    ids=["lambert", "ideal", "qc-bound", "specfun", "import"],
)
def test_an_unexpected_error_exits_3_with_one_line(capsys, monkeypatch, argv, owner, name, exc):
    # exit 1 means a violated bound and 2 a refused input: a fault of the
    # program is neither, and prints one line, not a traceback. A missing
    # numpy is a ConfigurationError, so any ImportError is such a fault
    def fault(*args):
        raise exc

    monkeypatch.setattr(owner, name, fault)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"error: unexpected {type(exc).__name__}: {exc}\n"


def test_help_lists_the_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert " ".join(capsys.readouterr().out.split()).endswith(
        "Exit codes: 0 success, 1 a checked bound was violated, 2 usage, domain, I/O or memory error, 3 an "
        "unexpected error (a fault of the program)."
    )


class TestParser:
    CALLS = [
        ["lambert", "--L", "0.5", "--theta", "0.3", "--json"],
        ["lambert", "--L", "0.5", "--theta", "0.3"],
        ["ideal", "--quad", "1,0", "0,1", "-1,0", "0,-1"],
        ["specfun", "--fn", "mu", "--r", "0.5"],
        ["lambert", "--L", "0.9", "--theta", "1.1", "--json"],
        ["ideal", "--alpha", "0.5", "--json"],
        ["specfun", "--fn", "A", "--K", "2"],
        ["lambert", "--L", "0.9", "--theta", "1.1"],
    ]

    def test_one_parser_gives_what_fresh_parsers_give(self, capsys, tmp_path, monkeypatch):
        sweep = ["sweep", "--target", "product", "--L", "0.5", "--grid", "20", "--out", str(tmp_path / "x.csv")]
        calls = self.CALLS + [sweep] + self.CALLS[::-1]
        shared = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [run(capsys, *argv) for argv in calls]
        assert shared == fresh
        assert {code for code, _, _ in shared} == {0}
        assert shared[0][1] != shared[1][1]  # --json does not stick


def scalar_row(target: str, L: float, x: float) -> tuple:
    """One sweep row from scalar calls at the row's theta, alpha or r."""
    if target == "product":
        d1, d2 = lambert.side_distances(L, x)
        bound = lambert.product_bound(L)
        return x, d1 * d2, bound, d1 * d2 - bound
    if target == "sum":
        d1, d2 = lambert.side_distances(L, x)
        rep = lambert.sum_bounds(L)
        return x, d1 + d2, rep.lower, rep.upper, d1 + d2 - rep.lower
    if target == "ideal":
        d1, d2 = lambert.ideal_quad(x)
        return x, d1 * d2, lambert.IDEAL_PRODUCT_BOUND, d1 + d2, lambert.IDEAL_SUM_BOUND
    mu = grotzsch_mu(x)
    return x, mu, mu * grotzsch_mu(rprime(x))


class TestVerify:
    def test_reports_pass_lines(self, capsys, monkeypatch):
        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        entry = next(e for e in verify.REGISTRY if e.target == "distortion-bracket")
        monkeypatch.setattr(verify, "run_all", lambda profile: [cert])
        monkeypatch.setattr(verify, "REGISTRY", [entry])
        code, out, _ = run(capsys, "verify", "--profile", "fast")
        assert code == 0
        assert out.startswith("PASS")

    def test_json_certificates(self, capsys, monkeypatch):
        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        monkeypatch.setattr(verify, "run_all", lambda profile: [cert])
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hyplam-report-v1"
        assert doc["certificates"][0]["passed"] is True

    def test_failing_certificate_exits_1(self, capsys, monkeypatch):
        import dataclasses

        cert = run_sweep(SweepSpec(target="distortion-bracket", grid_size=10, tolerance=1e-9))
        bad = dataclasses.replace(cert, passed=False, margin=-1.0)
        entry = verify.REGISTRY[0]
        monkeypatch.setattr(verify, "run_all", lambda profile: [bad])
        monkeypatch.setattr(verify, "REGISTRY", [entry])
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert out.startswith("FAIL")

    @pytest.mark.parametrize("raw", ["abc", ""])
    def test_malformed_seed_exits_2(self, capsys, monkeypatch, raw):
        # exit 1 means a bound failed; a bad setting is a usage error
        monkeypatch.setenv("HYPLAM_SEED", raw)
        code, out, err = run(capsys, "verify", "--profile", "fast")
        assert code == 2 and out == ""
        assert "HYPLAM_SEED" in err and repr(raw) in err

    def test_unknown_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--profile", "exhaustive"])
        assert exc.value.code == 2


DATA = Path(__file__).parent / "data"


def test_reports_match_the_pinned_bytes(capsys):
    # tests/data/cli_reports.txt holds, for each argument vector of
    # cli_argv.txt, "$ hyplam <argv>", the report on stdout and "[exit N]";
    # CI regenerates it through the installed entry point and diffs it
    out = []
    for argv in (DATA / "cli_argv.txt").read_text().splitlines():
        code = main(argv.split())
        out += [f"$ hyplam {argv}\n", capsys.readouterr().out, f"[exit {code}]\n"]
    assert "".join(out) == (DATA / "cli_reports.txt").read_text()


#: every --json vector of cli_argv.txt, and the registry's report
JSON_ARGV = [a for a in (DATA / "cli_argv.txt").read_text().splitlines() if "--json" in a.split()]


@pytest.mark.parametrize("argv", [*JSON_ARGV, "verify --profile fast --json"])
def test_every_json_report_is_strict_json(capsys, monkeypatch, argv):
    # an unbounded sum range (L = 1) and the r_L and M_L that do not exist
    # below th(1) are null: Infinity and NaN are tokens no JSON parser takes
    monkeypatch.delenv("HYPLAM_SEED", raising=False)
    main(argv.split())
    assert _strict_json(capsys.readouterr().out)["schema"] == "hyplam-report-v1"


def test_a_value_the_writer_does_not_map_is_a_fault(capsys, monkeypatch):
    # without the mapping to null, the writer refuses the unbounded upper end
    # of the case-4 sum range: exit 3, and no report on stdout
    monkeypatch.setattr(cli, "_json_ready", lambda payload: payload)
    code, out, err = run(capsys, "lambert", "--L", "1", "--theta", "0.5", "--json")
    assert (code, out) == (3, "") and "ValueError" in err


def _near(x: float) -> list[float]:
    """x and the doubles either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


#: the domains' edges: theta and alpha at 0 and pi/2, L at 0, 1 and the sum
#: cases' limits, K at 1 and large, r at 0 and 1; then +-0, subnormals, the
#: double range's ends, infinities and nan, as argparse's float reads them
_EDGE_NUMBERS = sorted({
    repr(v) for x in (
        0.0, 1e-9, 1e-12, math.pi / 4.0, math.pi / 2.0, math.pi / 2.0 - 2.7e-8, math.pi / 2.0 - 9.5e-11,
        1.0, 1.0 - 1e-9, lambert.SUM_CASE1_MAX, lambert.SUM_CASE3_MIN, cli.qcb.TH1, cli.qcb.M1, cli.qcb.IDEAL_K_CUT,
        20.0, 1e6, 1e300, 2.0**-1022, 5e-324, 4.05e-320, 1e-310, 2.0**-500, 2.0**-1000, 1.7976931348623157e308,
    ) for v in _near(x) + [-x]
} | {"0", "-0", "-0.0", "inf", "-inf", "nan", "-nan", "1e400", "-1e-400", str(10**400), f"-{10**400}"})
#: what argparse's float or the point parser refuses
_NON_NUMBERS = ["", "abc", "1,2", "0x10", "1e", "--", "1.0.0", "nanx", "+-1", "1_000e400_0"]
_NUMBER = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(5e-324, 2.0**-1022).map(repr),
    st.floats(0.0, math.pi / 2.0).map(repr),
)
_VALUE = st.one_of(_NUMBER, st.sampled_from(_NON_NUMBERS))
#: a point of --quad: on the circle, near it, at an edge, or no point at all
_POINT = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda a: f"{math.cos(a)!r},{math.sin(a)!r}"),
    st.tuples(_NUMBER, _NUMBER).map(",".join),
    st.sampled_from(_NON_NUMBERS),
)
_JSON = st.sampled_from([[], ["--json"]])
_REPORT_ARGV = st.one_of(
    st.tuples(_VALUE, _VALUE, _JSON).map(lambda v: ["lambert", "--L", v[0], "--theta", v[1], *v[2]]),
    st.tuples(_VALUE, _JSON).map(lambda v: ["ideal", "--alpha", v[0], *v[1]]),
    st.tuples(st.lists(_POINT, min_size=4, max_size=4), _JSON).map(lambda v: ["ideal", "--quad", *v[0], *v[1]]),
    st.tuples(_VALUE, _VALUE, _JSON).map(lambda v: ["qc-bound", "--K", v[0], "--L", v[1], *v[2]]),
    st.tuples(_VALUE, _JSON).map(lambda v: ["qc-bound", "--K", v[0], "--ideal", *v[1]]),
    st.tuples(st.sampled_from(sorted(cli._SPECFUN)), _VALUE, _VALUE, _VALUE, _JSON).map(
        lambda v: ["specfun", "--fn", v[0], "--r", v[1], "--K", v[2], "--p", v[3], *v[4]]
    ),
)


@given(_REPORT_ARGV)
@example(["lambert", "--L", "5e-324", "--theta", PI4])
@example(["lambert", "--L", "3e-323", "--theta", "0.5", "--json"])
@example(["ideal", "--quad", "1e308,1e308", "0,1", "-1,0", "0,-1"])
@settings(max_examples=300, deadline=None)
def test_a_report_exits_0_or_2_with_one_error_line(argv):
    # exit 1 means a violated bound, which the paper's bounds never are, and
    # 3 a fault of the program; a refused input exits 2 with one line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1 and "error: " in err.getvalue(), argv
    else:
        assert out.getvalue() and err.getvalue() == "", argv
