"""Command-line interface: bound reports, special-function evaluation,
verification sweeps, and plot-ready CSV export.

Exit codes: 0 success, 1 a checked bound was violated, 2 usage/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import lambert as lam
from . import qcbounds as qcb
from . import verify as ver
from .errors import HyplamError
from .specfun import (
    big_C_of_p,
    distortion_A,
    distortion_bracket,
    grotzsch_mu,
    mu_inverse,
    phi_K,
    rprime,
    threshold_C,
)

SCHEMA = "hyplam-report-v1"
_EQ_TOL = 1e-9


def _emit_json(payload: dict):
    payload = {"schema": SCHEMA} | payload
    print(json.dumps(payload, indent=2, sort_keys=True))


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
    prod = lam.product_report(args.L, args.theta)
    total = lam.sum_bounds(args.L, args.theta)
    d1, d2 = lam.side_distances(args.L, args.theta)
    phi = lam.beardon_phi(d1, d2)
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
        root = lam.arth(lam.SQRT2 / 2.0 * args.L)
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
        if not math.isnan(res.r_L):
            print(f"r_L = {res.r_L:.17g}")
            print(f"M_L = {res.M_L:.17g}")
        if res.r_LK is not None:
            print(f"r_LK = {res.r_LK:.17g}")
        print(f"bound = {res.bound:.17g}")
    return 0


_SPECFUN_NEEDS = {
    "mu": "r",
    "mu-inverse": "r",
    "phi": "rK",
    "A": "K",
    "bracket": "K",
    "C": "p",
    "threshold-C": "",
}


def cmd_specfun(args) -> int:
    need = _SPECFUN_NEEDS[args.fn]
    if "r" in need and args.r is None:
        raise HyplamError(f"--fn {args.fn} requires --r")
    if "K" in need and args.K is None:
        raise HyplamError(f"--fn {args.fn} requires --K")
    if "p" in need and args.p is None:
        raise HyplamError(f"--fn {args.fn} requires --p")
    if args.fn == "mu":
        out = {"r": args.r, "value": grotzsch_mu(args.r)}
    elif args.fn == "mu-inverse":
        out = {"y": args.r, "value": mu_inverse(args.r)}
    elif args.fn == "phi":
        out = {"K": args.K, "r": args.r, "value": phi_K(args.K, args.r)}
    elif args.fn == "A":
        out = {"K": args.K, "value": distortion_A(args.K)}
    elif args.fn == "bracket":
        k_, lo, mid, a_k, hi = distortion_bracket(args.K)
        out = {"K": k_, "linear_lower": lo, "log_cosh": mid, "A": a_k, "linear_upper": hi, "value": a_k}
    elif args.fn == "C":
        out = {"p": args.p, "value": big_C_of_p(args.p)}
    else:
        out = {"value": threshold_C()}
    if args.json:
        _emit_json({"fn": args.fn} | out)
    else:
        for k, v in out.items():
            print(f"{k} = {v:.17g}")
    return 0


def cmd_verify(args) -> int:
    certs = ver.run_all(args.profile)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "certificates": [c.to_dict() for c in certs]}, indent=2))
    else:
        for entry, cert in zip(ver.REGISTRY, certs):
            status = "PASS" if cert.passed else "FAIL"
            print(f"{status}  {entry.name:<28s} margin={cert.margin:+.3e}  {entry.claim}")
    return 0 if all(c.passed for c in certs) else 1


def _sweep_rows(args):
    n = args.grid
    if args.target == "product":
        if args.L is None:
            raise HyplamError("--target product requires --L")
        bound = lam.product_bound(args.L)
        header = ["theta", "value", "bound", "margin"]
        thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, n)
        rows = []
        for t in thetas:
            d1, d2 = lam.side_distances(args.L, float(t))
            rows.append((t, d1 * d2, bound, d1 * d2 - bound))
        return header, rows
    if args.target == "sum":
        if args.L is None:
            raise HyplamError("--target sum requires --L")
        rep = lam.sum_bounds(args.L)
        header = ["theta", "value", "lower", "upper", "margin"]
        thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, n)
        rows = []
        for t in thetas:
            d1, d2 = lam.side_distances(args.L, float(t))
            rows.append((t, d1 + d2, rep.lower, rep.upper, d1 + d2 - rep.lower))
        return header, rows
    if args.target == "ideal":
        header = ["alpha", "product", "product_bound", "sum", "sum_bound"]
        alphas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, n)
        rows = []
        for a in alphas:
            d1, d2 = lam.ideal_quad(float(a))
            rows.append((a, d1 * d2, lam.IDEAL_PRODUCT_BOUND, d1 + d2, lam.IDEAL_SUM_BOUND))
        return header, rows
    if args.target == "mu":
        header = ["r", "mu", "mu_product"]
        rs = np.linspace(1e-3, 1.0 - 1e-3, n)
        rows = []
        for r in rs:
            m = grotzsch_mu(float(r))
            rows.append((r, m, m * grotzsch_mu(rprime(float(r)))))
        return header, rows
    raise HyplamError(f"unknown sweep target {args.target!r}")


def cmd_sweep(args) -> int:
    if args.grid < 2:
        raise HyplamError("--grid must be at least 2")
    header, rows = _sweep_rows(args)
    # the bytes csv.writer writes for these fields: no field needs quoting
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyplam",
        description="sharp distance bounds for Lambert and ideal hyperbolic quadrilaterals",
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
    # let point arguments with a negative real part ("-1,0") through
    p._negative_number_matcher = re.compile(r"^-\d")

    p = sub.add_parser("qc-bound", help="bound under a K-quasiconformal self-map of the disk")
    p.add_argument("--K", type=float, required=True, help="maximal dilatation, >= 1")
    p.add_argument("--L", type=float, help="Lambert diagonal parameter in (0, 1]")
    p.add_argument("--ideal", action="store_true", help="use the ideal-quadrilateral bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qc_bound)

    p = sub.add_parser("specfun", help="evaluate the special functions")
    p.add_argument("--fn", choices=sorted(_SPECFUN_NEEDS), required=True)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HyplamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
