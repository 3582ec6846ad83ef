"""The rows of `hyplam sweep` and their CSV bytes: the part of the CLI that
holds rows and imports numpy, loaded by `cli.cmd_sweep` alone."""

import functools
import math

import numpy as np

from . import lambert as lam
from .errors import HyplamError
from .specfun import grotzsch_mu, rprime


def _sweep_rows(args):
    """The header and the float64 table (one row per grid point) of a sweep:
    one array call per target, row by row under the scalar rules."""
    n = args.grid
    if args.target in ("product", "sum"):
        if args.L is None:
            raise HyplamError(f"--target {args.target} requires --L")
        thetas = np.linspace(1e-7, math.pi / 2.0 - 1e-7, n)
        # product_bound and sum_bounds check L, and the thetas lie in (0, pi/2)
        if args.target == "product":
            bound = lam.product_bound(args.L)
            d1, d2 = lam._side_distances(args.L, thetas, np)
            value = d1 * d2
            return ["theta", "value", "bound", "margin"], _table(thetas, value, bound, value - bound)
        rep = lam.sum_bounds(args.L)
        d1, d2 = lam._side_distances(args.L, thetas, np)
        value = d1 + d2
        header = ["theta", "value", "lower", "upper", "margin"]
        return header, _table(thetas, value, rep.lower, rep.upper, value - rep.lower)
    if args.target == "ideal":
        alphas = np.linspace(1e-6, math.pi / 2.0 - 1e-6, n)
        d1, d2 = lam.ideal_quad(alphas)
        header = ["alpha", "product", "product_bound", "sum", "sum_bound"]
        return header, _table(alphas, d1 * d2, lam.IDEAL_PRODUCT_BOUND, d1 + d2, lam.IDEAL_SUM_BOUND)
    if args.target == "mu":
        rs = np.linspace(1e-3, 1.0 - 1e-3, n)
        m = grotzsch_mu(rs)
        return ["r", "mu", "mu_product"], _table(rs, m, m * grotzsch_mu(rprime(rs)))
    raise HyplamError(f"unknown sweep target {args.target!r}")


def _table(first, *columns) -> np.ndarray:
    """The float64 table whose columns are an ndarray and columns or constants."""
    return np.column_stack(np.broadcast_arrays(first, *columns))


# ---------------------------------------------------------------------------
# CSV cells: the bytes "%.17g" writes, without a call per cell

#: rows per _csv_bytes call: 512 to 2048 ran alike on a 2-CPU host, 256 slower;
#: a block's temporaries stay near 200 kB
_CSV_BLOCK = 1024
#: the powers 10**k that _scaled takes: k = 16 - E for the decimal exponents
#: E = -324 ... 308 of the finite doubles, and for log10's guess one off
_K_MIN, _K_MAX = -293, 341
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: how far from a rounding boundary an inexact S must lie to be trusted: its
#: error is below 2**-45
_TRUST = 2.0**-40
#: a cell's last record word after its exponent words e-324 ... e+308: none,
#: "inf" or "nan"; each word ends with the separator
_NO_EXPONENT, _INF, _NAN = 633, 634, 635
#: a layout with no digits, for "inf" and "nan"
_NO_DIGITS = 21 * 17


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as one little-endian uint64, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _csv_tables() -> tuple:
    """The tables of _csv_bytes, built on the first sweep.

    - For each k, 10**k / 2**g as a double-double and the exact scale 2**g;
      g = 0 but at the ends of the range, where 10**k leaves the doubles.
    - The first record word of a cell by its leading digit d: "-0.000d.".
    - For each 4-digit group 0000-9999, its digits each followed by a point,
      as one record word, and its count of trailing zeros (4 for 0000).
    - The last record word: the exponent or none, "inf" or "nan", then ","
      (first half) or "\r\n" (second half).
    - For each layout and sign, the mask of the first five record words:
      the bytes of the sign, "0.", zeros, digits and point the text keeps.
    """
    ks = range(_K_MIN, _K_MAX + 1)
    shift = [200 if k > 280 else -200 if k < -280 else 0 for k in ks]
    hi, lo = [], []
    for k, g in zip(ks, shift):
        num, den = (10**k, 1 << g) if k >= 0 else (1 << -g, 10**-k)
        h = num / den  # correctly rounded, as is the remainder below
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    powers = np.array(hi), np.array(lo), np.ldexp(1.0, shift)

    group = np.arange(10000)
    slots = np.full((10000, 4, 2), ord("."), np.uint8)
    slots[..., 0] = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1) + ord("0")
    zeros = np.where(group == 0, 4, np.sum([group % 10**j == 0 for j in (1, 2, 3)], axis=0))
    leads = _words(b"-0.000%d." % d for d in range(10))

    ends = [b"e%+03d" % e for e in range(-324, 309)] + [b"", b"inf", b"nan"]
    last = np.concatenate([_words(t + b"," for t in ends), _words(t + b"\r\n" for t in ends)])

    # layout (p, nd): nd significant digits, the point after the digit p
    # places right of the leading one (p = 0 in scientific notation); slot i
    # of the groups holds the digit i + 1 places right of the leading one
    p = np.arange(-4, 17)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    i = np.arange(16)
    keep = np.zeros((21, 17, 2, 40), bool)
    keep[..., 1, 0] = True  # the sign
    keep[..., 1:3] = (p < 0)[..., None]  # "0."
    keep[..., 3:6] = np.arange(3) < -1 - p[..., None]  # the zeros after it
    keep[..., 6] = True  # the leading digit
    keep[..., 7] = (p == 0) & (nd > 1)
    keep[..., 8::2] = i <= np.maximum(nd - 2, p - 1)[..., None]
    keep[..., 9::2] = (i == p[..., None] - 1) & (nd - 1 > p)[..., None]
    keep = np.concatenate([keep.reshape(-1, 2, 40), [[[False] * 40, [True] + [False] * 39]]])  # no digits
    keep = (keep * np.uint8(255)).view("<u8").reshape(-1, 5).T.copy()

    return powers, leads, slots.reshape(-1, 8).view("<u8").ravel(), zeros.astype(np.uint8), last, keep


def _scaled(a, k):
    """(hi, lo): hi + lo is a * 10**k as a double-double, exactly when
    0 <= k <= 22, for positive doubles a with a * 10**k in [1e15, 1e18)."""
    power, tail, scale = (np.take(t, k - _K_MIN) for t in _csv_tables()[0])
    a = a * scale
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * power
    b_hi = c - (c - power)
    b_lo = power - b_hi
    t = a * power
    s = (((a_hi * b_hi - t) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo) + a * tail
    hi = t + s
    return hi, s - (hi - t)


def _csv_bytes(table: np.ndarray) -> bytes:
    r"""The CSV bytes of a float64 table: each cell as "%.17g" formats it,
    "," between cells and "\r\n" after each row.

    A finite nonzero x has the decimal exponent E = floor(log10 |x|), and its
    17 significant digits are the integer N nearest S = |x| 10**k, ties to
    even, where k = 16 - E puts S in [1e16, 1e17). A carry to N = 1e17 makes
    N = 1e16 and the exponent E + 1. log10 can miss E by one near a power of
    ten, so S is compared with 1e16 and 1e17 and, if outside, taken again.

    - For 0 <= k <= 22, 10**k is a double, and Dekker's two-product gives
      S = hi + lo exactly. Then hi >= 1e16 > 2**53 is an even integer, so
      N = hi + rint(lo) rounds a tie to even, as Python's dtoa does.
    - For other k (|x| < 1e-6 or |x| >= 1e17, all in scientific notation),
      10**k is a double-double correct to 2**-106, and S carries an error
      below 2**-45. A cell whose S lies within _TRUST of 1e16, 1e17 or a
      half-integer is not proved, and "%.17g" formats it: the powers of ten
      1e17 to 1e22, the ties m 2**-24 and m 2**-25 (m odd), and a share of
      about 2e-12 of other values. 0, inf and nan never reach this test.

    The text follows %g: fixed notation for exponents -4 to 16, scientific
    otherwise, trailing zeros stripped, no point when no digit follows it,
    "-" for a negative value and -0.0, "inf", "-inf" and "nan". Each cell is
    a record of six 8-byte words: "-0.000", the leading digit and a point;
    the other 16 digits, each followed by a point; the exponent and the
    separator. A mask by the cell's layout zeroes what its text leaves out,
    and the zero bytes are deleted.
    """
    powers, leads, groups, zeros, last, keep = _csv_tables()
    rows, cols = table.shape
    x = table.ravel()
    finite = np.isfinite(x)
    number = finite & (x != 0.0)
    a = np.where(number, np.abs(x), 1.0)  # no arithmetic on 0, inf or nan

    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    step = (hi - 1e17 + lo >= 0).astype(np.intp) - (hi - 1e16 + lo < 0)
    again = np.flatnonzero(step)
    if again.size:
        e[again] += step[again]
        hi[again], lo[again] = _scaled(a[again], 16 - e[again])
    below, above = hi - 1e16 + lo, hi - 1e17 + lo  # of the exact sign when S is exact
    nearest = np.rint(lo)
    trusted = (np.abs(below) > _TRUST) & (np.abs(above) > _TRUST) & (np.abs(np.abs(lo - nearest) - 0.5) > _TRUST)
    exact = (e >= -6) & (e <= 16)
    unproved = number & ((below < 0) | (above >= 0) | ~(exact | trusted))
    ok = number & ~unproved
    n = np.where(ok, hi, 0.0).astype(np.int64) + np.where(ok, nearest, 0.0).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e = np.where(ok, e + carry, 0)

    # N as its leading digit and four 4-digit groups
    top = n // 10**8
    lead = top // 10**8
    mid, low = top - lead * 10**8, n - top * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g = [g1, mid - g1 * 10**4, g3, low - g3 * 10**4]
    z1, z2, z3, z4 = (np.take(zeros, gi) for gi in g)
    nd = 17 - (z4 + (g[3] == 0) * (z3 + (g[2] == 0) * (z2 + (g[1] == 0) * z1)))

    sci = (e < -4) | (e > 16)
    layout = np.where(finite, (np.where(sci, 0, e) + 4) * 17 + nd - 1, _NO_DIGITS)
    end = np.where(sci, e + 324, _NO_EXPONENT)
    if not finite.all():
        end[np.isinf(x)] = _INF
        end[np.isnan(x)] = _NAN
    end = end.reshape(rows, cols)
    end[:, -1] += len(last) // 2

    rec = np.empty((rows * cols, 6), "<u8")  # a cell's record per row
    mask = layout * 2 + (np.signbit(x) & ~np.isnan(x))
    for w, (words, index) in enumerate(zip([leads] + [groups] * 4, [lead] + g)):
        rec[:, w] = np.take(words, index) & np.take(keep[w], mask)
    rec[:, 5] = np.take(last, end).ravel()
    for i in np.flatnonzero(unproved):
        rec[i, :5] = np.frombuffer((b"%.17g" % x[i]).ljust(40, b"\0"), "<u8")
    return rec.tobytes().translate(None, b"\0")
