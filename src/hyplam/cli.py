"""Command-line interface: bound reports, special-function evaluation,
verification sweeps, and plot-ready CSV export.

The reports (lambert, ideal, qc-bound, specfun) each make one scalar
evaluation and never load numpy: only `sweep` (through `_sweep`) and
`verify` (through the registry) hold rows and need it, and exit 2 without it.

Exit codes: 0 success, 1 a checked bound was violated, 2 usage, domain, I/O
or memory error, 3 an unexpected error (a fault of the program).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import lambert as lam
from . import qcbounds as qcb
from .errors import HyplamError
from .specfun import big_C_of_p, distortion_A, distortion_bracket, grotzsch_mu, mu_inverse, phi_K, threshold_C

SCHEMA = "hyplam-report-v1"
_EQ_TOL = 1e-9


def _json_ready(x):
    """x with each float that is not finite as None, at any depth, and each tuple as a list."""
    if isinstance(x, dict):
        return {k: _json_ready(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit_json(payload: dict):
    """The package's one JSON writer: strict JSON, keys sorted, null for a value absent or not finite."""
    print(json.dumps(_json_ready({"schema": SCHEMA} | payload), indent=2, sort_keys=True, allow_nan=False))


def _gap_line(label: str, gap: float, rel_gap: float) -> str:
    """The gap to a bound, flagged as equality when the gap relative to the
    bound, `rel_gap`, is within _EQ_TOL."""
    flag = "  [equality]" if abs(rel_gap) <= _EQ_TOL else ""
    return f"{label}: {gap:.17g}{flag}"


def _parse_point(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise HyplamError(f"bad point {text!r}, expected re,im") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_lambert(args) -> int:
    prod = lam.product_report(args.L, args.theta)  # raises first on a bad L or theta
    total = lam.sum_bounds(args.L, args.theta)
    quad = lam.lambert_from(args.L, args.theta)
    d1, d2, phi = quad.d1, quad.d2, quad.phi
    if args.json:
        _emit_json(
            {
                "d1": d1,
                "d2": d2,
                "phi": phi,
                "product": prod.to_dict(),
                "sum": total.to_dict(),
            }
        )
    else:
        print(f"Lambert quadrilateral  L={args.L:.17g}  theta={args.theta:.17g}")
        print(f"d1 = {d1:.17g}")
        print(f"d2 = {d2:.17g}")
        print(f"phi = {phi:.17g}")
        print(f"d1*d2 = {prod.observed:.17g}  bound = {prod.upper:.17g}")
        # the bound's square root: d1*d2 and the bound underflow below L ~ 1e-154
        root = lam.product_root(args.L)
        print(_gap_line("product gap", prod.upper - prod.observed, 1.0 - (d1 / root) * (d2 / root)))
        print(
            f"d1+d2 = {total.observed:.17g}  range = [{total.lower:.17g}, "
            f"{total.upper:.17g}]  ({total.case_label})"
        )
        print(_gap_line("sum gap to lower", total.observed - total.lower, total.observed / total.lower - 1.0))
        if math.isfinite(total.upper):
            print(_gap_line("sum gap to upper", total.upper - total.observed, 1.0 - total.observed / total.upper))
    return 0 if (prod.satisfied and total.satisfied) else 1


def cmd_ideal(args) -> int:
    if args.quad is not None:
        pts = [_parse_point(p) for p in args.quad]
        alpha = lam.alpha_from_quadruple(*pts)
    else:
        alpha = args.alpha
        if alpha is None:
            raise HyplamError("one of --alpha or --quad is required")
    d1, d2 = lam.ideal_quad(alpha)
    product, total = d1 * d2, d1 + d2
    ok = product <= lam.IDEAL_PRODUCT_BOUND + 1e-12 and total >= lam.IDEAL_SUM_BOUND - 1e-12
    if args.json:
        _emit_json(
            {
                "alpha": alpha,
                "d1": d1,
                "d2": d2,
                "product": product,
                "product_bound": lam.IDEAL_PRODUCT_BOUND,
                "sum": total,
                "sum_bound": lam.IDEAL_SUM_BOUND,
                "satisfied": ok,
            }
        )
    else:
        print(f"ideal quadrilateral  alpha={alpha:.17g}")
        print(f"d1 = {d1:.17g}")
        print(f"d2 = {d2:.17g}")
        print(f"d1*d2 = {product:.17g}  bound = {lam.IDEAL_PRODUCT_BOUND:.17g}")
        print(_gap_line("product gap", lam.IDEAL_PRODUCT_BOUND - product, 1.0 - product / lam.IDEAL_PRODUCT_BOUND))
        print(f"d1+d2 = {total:.17g}  bound = {lam.IDEAL_SUM_BOUND:.17g}")
        print(_gap_line("sum gap", total - lam.IDEAL_SUM_BOUND, total / lam.IDEAL_SUM_BOUND - 1.0))
    return 0 if ok else 1


def cmd_qc_bound(args) -> int:
    if args.ideal:
        bound = qcb.qc_ideal_bound(args.K)
        if args.json:
            _emit_json({"K": args.K, "ideal": True, "bound": bound, "M_1": qcb.M1})
        else:
            print(f"ideal quadrilateral image bound, K={args.K:.17g}")
            print(f"M_1 = {qcb.M1:.17g}")
            print(f"bound = {bound:.17g}")
        return 0
    if args.L is None:
        raise HyplamError("one of --L or --ideal is required")
    res = qcb.qc_product_bound(qcb.QcBoundInput(args.K, args.L))
    if args.json:
        _emit_json({"K": args.K, "L": args.L} | res.to_dict())
    else:
        print(f"Lambert image bound, K={args.K:.17g}  L={args.L:.17g}")
        print(f"regime = {res.regime.value}")
        if res.r_L is not None:
            print(f"r_L = {res.r_L:.17g}")
            print(f"M_L = {res.M_L:.17g}")
        if res.r_LK is not None:
            print(f"r_LK = {res.r_LK:.17g}")
        print(f"bound = {res.bound:.17g}")
    return 0


def _bracket(K: float) -> dict:
    k_, lo, mid, a_k, hi = distortion_bracket(K)
    return {"K": k_, "linear_lower": lo, "log_cosh": mid, "A": a_k, "linear_upper": hi, "value": a_k}


#: per --fn: the options it needs, in the order they are checked, and its
#: output fields from their values
_SPECFUN = {
    "mu": (("r",), lambda r: {"r": r, "value": grotzsch_mu(r)}),
    "mu-inverse": (("r",), lambda y: {"y": y, "value": mu_inverse(y)}),
    "phi": (("r", "K"), lambda r, K: {"K": K, "r": r, "value": phi_K(K, r)}),
    "A": (("K",), lambda K: {"K": K, "value": distortion_A(K)}),
    "bracket": (("K",), _bracket),
    "C": (("p",), lambda p: {"p": p, "value": big_C_of_p(p)}),
    "threshold-C": ((), lambda: {"value": threshold_C()}),
}


def cmd_specfun(args) -> int:
    needs, fields = _SPECFUN[args.fn]
    values = [getattr(args, name) for name in needs]
    for name, value in zip(needs, values):
        if value is None:
            raise HyplamError(f"--fn {args.fn} requires --{name}")
    out = fields(*values)
    if args.json:
        _emit_json({"fn": args.fn} | out)
    else:
        for k, v in out.items():
            print(f"{k} = {v:.17g}")
    return 0


def cmd_verify(args) -> int:
    # imported here: the registry is 17-29 ms of import that no other subcommand uses
    from . import verify as ver

    certs = ver.run_all(args.profile)
    if args.json:
        _emit_json({"certificates": [c.to_dict() for c in certs]})
    else:
        for entry, cert in zip(ver.REGISTRY, certs):
            status = "PASS" if cert.passed else "FAIL"
            print(f"{status}  {entry.name:<28s} margin={cert.margin:+.3e}  {entry.claim}")
    return 0 if all(c.passed for c in certs) else 1


def cmd_sweep(args) -> int:
    # the sweep's rows and CSV kernel, and numpy with them, are loaded here only
    from . import _sweep

    if args.grid < 2:
        raise HyplamError("--grid must be at least 2")
    # opened first, so that a path that cannot be written fails before the
    # sweep is computed, and emptied only once it is (a pipe is not emptied)
    with open(args.out, "ab") as fh:
        header, table = _sweep._sweep_rows(args)
        if fh.seekable() and fh.tell():  # in append mode tell() is the file's size
            fh.truncate(0)
        _sweep.write_csv(fh, header, table)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a usage error on one line of stderr, as every other exit 2 prints."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyplam",
        description="sharp distance bounds for Lambert and ideal hyperbolic quadrilaterals",
        epilog=__doc__[__doc__.index("Exit codes"):],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lambert", help="bound report for a Lambert quadrilateral")
    p.add_argument("--L", type=float, required=True, help="th of the diagonal, in (0, 1]")
    p.add_argument("--theta", type=float, required=True, help="diagonal angle in (0, pi/2), radians")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lambert)

    p = sub.add_parser("ideal", help="bound report for an ideal quadrilateral")
    p.add_argument("--alpha", type=float, help="vertex half-angle in (0, pi/2), radians")
    p.add_argument("--quad", nargs=4, metavar="re,im", help="four boundary vertices in positive order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("qc-bound", help="bound under a K-quasiconformal self-map of the disk")
    p.add_argument("--K", type=float, required=True, help="maximal dilatation, >= 1")
    p.add_argument("--L", type=float, help="Lambert diagonal parameter in (0, 1]")
    p.add_argument("--ideal", action="store_true", help="use the ideal-quadrilateral bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qc_bound)

    p = sub.add_parser("specfun", help="evaluate the special functions")
    p.add_argument("--fn", choices=sorted(_SPECFUN), required=True)
    p.add_argument("--r", type=float, help="argument in (0, 1) (or y for mu-inverse)")
    p.add_argument("--K", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_specfun)

    p = sub.add_parser("verify", help="run the claim-verification registry")
    p.add_argument("--profile", choices=("fast", "thorough"), default="fast")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="export a parameter sweep as CSV")
    p.add_argument("--target", required=True, choices=("product", "sum", "ideal", "mu"))
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--L", type=float)
    p.set_defaults(func=cmd_sweep)

    # let values that start with a minus sign through as values, not options:
    # "-1e3" and "-3." for --p, which argparse's own pattern refuses, and
    # points with a negative real part ("-1,0") for --quad
    negative = re.compile(r"^-\.?\d")
    for p in sub.choices.values():
        p._negative_number_matcher = negative
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built once a process: building it costs ~20
    times what parsing one command line does."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (HyplamError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, which no input should reach
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
