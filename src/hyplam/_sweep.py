"""The rows of `hyplam sweep` and their CSV bytes: the part of the CLI that
holds rows and needs numpy, loaded by `cli.cmd_sweep` alone."""

import functools
import math

from . import _rows
from . import lambert as lam
from .errors import HyplamError
from .specfun import grotzsch_mu, rprime

np = _rows.numpy()


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
            d1, d2 = lam._side_distances(args.L, thetas, _rows.rows())
            value = d1 * d2
            return ["theta", "value", "bound", "margin"], _table(thetas, value, bound, value - bound)
        rep = lam.sum_bounds(args.L)
        d1, d2 = lam._side_distances(args.L, thetas, _rows.rows())
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

#: cells per _csv_bytes call, whatever the column count. Milliseconds for
#: each target's 5 000-row table, on a 2-CPU Xeon host, medians of 30 shuffled
#: rounds in one process, and the minor page faults (ru_minflt) of each
#: target's second 5 000-row pass in a fresh process:
#:
#:     cells   product  sum   ideal  mu     faults
#:     1 024   4.12     5.05  5.03   2.79   0
#:     2 048   3.25     3.97  4.00   2.28   0-5
#:     2 560   3.04     3.62  3.69   2.00   0
#:     3 072   2.87     3.59  3.70   1.90   0
#:     5 120   2.62     3.30  3.40   2.03   0
#:
#: No size faults more than 5 times a pass, but larger calls, faster still,
#: raise a sweep's peak memory: the sweep-export benchmark's peak RSS read
#: 41.6-41.7 MB at 2 048 cells, 41.9-42.1 at 3 072, 42.3-42.5 at 4 096-5 120.
_CSV_CELLS = 2048
#: the powers 10**k that _scaled takes: k = 16 - E for the decimal exponents
#: E = -324 ... 308 of the finite doubles, and for log10's guess one off
_K_MIN, _K_MAX = -293, 341
#: 10**(16 - E) is column _K_COLUMN - E of the powers table
_K_COLUMN = 16 - _K_MIN
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: how far from a rounding boundary an inexact S must lie to be trusted: its
#: error is below 2**-45
_TRUST = 2.0**-40
#: a cell's code: 0 for 0 and for a cell "%.17g" formats, E + _E_CODE for a
#: finite nonzero x, then inf and nan
_E_CODE = 325
_INF, _NAN = 634, 635
_BYTE, _TOP = np.uint64(8), np.uint64(56)  # uint64, so that no shift widens to float64 under numpy 1.x


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as one little-endian uint64, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _csv_tables() -> tuple:
    """The tables of _csv_bytes, built on the first sweep.

    - For each k, 10**k / 2**g as a double-double, its high part split by
      Dekker, and the exact scale 2**g; g = 0 but at the ends of the range,
      where 10**k leaves the doubles.
    - The first record word of a cell by its leading digit d: "-0.000d.".
    - For each 4-digit group 0000-9999, its digits as half a record word, and
      its count of trailing zeros (4 for 0000).
    - By code, the last record word: the exponent or none, "inf" or "nan",
      then "," (first half) or "\r\n" (second half).
    - By code, where its cells' layouts start: a cell with nd significant
      digits, the point after the digit p places right of the leading one
      (p = 0 in scientific notation) and sign s has the layout
      2 (17 (p + 4) + nd - 1) + s, its code's start plus 2 nd + s; inf and
      nan start at the layout with no digits.
    - By layout, the mask of the first three record words (the bytes of the
      sign, "0.", zeros, digits and point the text keeps) and the point's
      place p where it falls among the 16 digits, else 0.
    - By p, the masks that move the digits after the p-th one right of the
      leading one up a byte and put the point in the byte freed, each as two
      words.
    """
    ks = range(_K_MIN, _K_MAX + 1)
    shift = [200 if k > 280 else -200 if k < -280 else 0 for k in ks]
    columns = []
    for k, g in zip(ks, shift):
        num, den = (10**k, 1 << g) if k >= 0 else (1 << -g, 10**-k)
        h = num / den  # correctly rounded, as is the remainder below
        p, q = h.as_integer_ratio()
        c = _SPLIT * h
        h_hi = c - (c - h)
        columns.append((h, h_hi, h - h_hi, (num * q - p * den) / (den * q), 2.0**g))
    powers = np.array(columns).T.copy()

    group = np.arange(10000)
    digits = np.stack([group // 10**j % 10 for j in (3, 2, 1, 0)], axis=1) + ord("0")
    quads = digits.astype(np.uint8).view("<u4").ravel()
    zeros = np.where(group == 0, 4, np.sum([group % 10**j == 0 for j in (1, 2, 3)], axis=0))
    leads = _words(b"-0.000%d." % d for d in range(10))

    exps = range(-324, 309)
    ends = [b""] + [b"e%+03d" % e if e < -4 or e > 16 else b"" for e in exps] + [b"inf", b"nan"]
    last = np.concatenate([_words(t + b"," for t in ends), _words(t + b"\r\n" for t in ends)])
    places = [0] + [0 if e < -4 or e > 16 else e for e in exps]
    base = np.array([2 * (17 * (p + 4) - 1) for p in places] + [2 * 17 * 21 - 2] * 2, np.intp)

    p = np.arange(-4, 17)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    i = np.arange(16)
    keep = np.zeros((21, 17, 2, 24), bool)
    keep[..., 1, 0] = True  # the sign
    keep[..., 1:3] = (p < 0)[..., None]  # "0."
    keep[..., 3:6] = np.arange(3) < -1 - p[..., None]  # the zeros after it
    keep[..., 6] = True  # the leading digit
    keep[..., 7] = (p == 0) & (nd > 1)
    keep[..., 8:] = i <= np.maximum(nd - 2, p - 1)[..., None]  # byte 8 + i: the digit i + 1 right of the leading one
    keep = np.concatenate([keep.reshape(-1, 2, 24), [[[False] * 24, [True] + [False] * 23]]])  # no digits
    keep = (keep * np.uint8(255)).view("<u8").reshape(-1, 3).T.copy()
    inner = np.where((p >= 1) & (nd - 1 > p), p, 0).repeat(2, axis=2)
    point = np.concatenate([inner.ravel(), [0, 0]]).astype(np.uint8)

    # the 16 digits as one 128-bit word: the bytes below p stay, the others
    # move up a byte, and p takes the point
    full = (1 << 128) - 1
    masks = [((1 << 8 * p) - 1, full ^ ((1 << 8 * p + 8) - 1), 0x2E << 8 * p) for p in range(16)]
    moves = np.array([[m >> w & (1 << 64) - 1 for w in (0, 64) for m in row] for row in masks], np.uint64)

    return powers, leads, quads, zeros.astype(np.uint8), last, base, keep, point, moves.T.copy()


def _scaled(a, e):
    """(hi, lo): hi + lo is a * 10**k with k = 16 - e as a double-double,
    exactly when 0 <= k <= 22, for positive doubles a with a * 10**k in
    [1e15, 1e18)."""
    power, b_hi, b_lo, tail, scale = np.take(_csv_tables()[0], _K_COLUMN - e, axis=1)
    a = a * scale
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
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
    a record of four 8-byte words: "-0.000", the leading digit and a point;
    the other 16 digits, 8 a word; the exponent and the separator. A mask by
    the cell's layout zeroes what its text leaves out. Where the point falls
    inside the 16 digits (fixed notation, E = 1 to 15, with digits after the
    point), the digits from there on move up a byte behind the point, and
    the last of them into the front of the separator word, which holds at
    most 7 bytes. A text "%.17g" writes fills at most the first three words,
    24 bytes. The zero bytes are deleted.
    """
    powers, leads, quads, zeros, last, base, keep, point, moves = _csv_tables()
    rows, cols = table.shape
    x = table.ravel()
    finite = np.isfinite(x)
    number = finite & (x != 0.0)
    a = np.where(number, np.abs(x), 1.0)  # no arithmetic on 0, inf or nan

    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    below, above = hi - 1e16 + lo, hi - 1e17 + lo  # of the exact sign when S is exact
    unproved = (below < 0) | (above >= 0)
    again = np.flatnonzero(unproved)
    if again.size:
        e[again] += (above[again] >= 0).astype(np.intp) - (below[again] < 0)
        hi[again], lo[again] = _scaled(a[again], e[again])
        below[again], above[again] = hi[again] - 1e16 + lo[again], hi[again] - 1e17 + lo[again]
        unproved[again] = (below[again] < 0) | (above[again] >= 0)
    nearest = np.rint(lo)
    exact = (e >= -6) & (e <= 16)
    if not exact.all():  # only an inexact S is tested for trust
        trusted = (np.abs(below) > _TRUST) & (np.abs(above) > _TRUST) & (np.abs(np.abs(lo - nearest) - 0.5) > _TRUST)
        unproved |= number & ~(exact | trusted)
    ok = number & ~unproved
    n = hi.astype(np.int64) + nearest.astype(np.int64)
    n *= ok
    code = (e + _E_CODE) * ok
    carry = np.flatnonzero(n == 10**17)
    n[carry] = 10**16
    code[carry] += 1
    if not finite.all():
        code[np.isinf(x)] = _INF
        code[np.isnan(x)] = _NAN

    # N as its leading digit and four 4-digit groups
    top = n // 10**8
    lead = top // 10**8
    mid, low = top - lead * 10**8, n - top * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g = [g1, mid - g1 * 10**4, g3, low - g3 * 10**4]
    nd = 17 - zeros[g[3]]
    short = np.flatnonzero(g[3] == 0)  # trailing zeros past the last group
    if short.size:  # 13: the last group's 4 zeros counted
        z1, z2, z3 = (zeros[gi[short]] for gi in g[:3])
        nd[short] = 13 - (z3 + (g[2][short] == 0) * (z2 + (g[1][short] == 0) * z1))
    mask = base[code] + 2 * nd + (np.signbit(x) & ~np.isnan(x))

    rec = np.empty((rows * cols, 4), "<u8")  # a cell's record per row
    np.bitwise_and(leads[lead], keep[0][mask], out=rec[:, 0])
    digits = rec.view("<u4")[:, 2:6]  # 4 digits a half-word
    for j in range(4):
        digits[:, j] = quads[g[j]]
    for w in (1, 2):
        rec[:, w] &= keep[w][mask]
    code.reshape(rows, cols)[:, -1] += len(last) // 2
    rec[:, 3] = last[code]
    at = point[mask]
    inner = np.flatnonzero(at)
    if inner.size:
        k1, s1, p1, k2, s2, p2 = moves[:, at[inner]]
        d1, d2 = rec[inner, 1], rec[inner, 2]
        rec[inner, 1] = (d1 & k1) | ((d1 << _BYTE) & s1) | p1
        rec[inner, 2] = (d2 & k2) | (((d2 << _BYTE) | (d1 >> _TOP)) & s2) | p2
        rec[inner, 3] = (rec[inner, 3] << _BYTE) | (d2 >> _TOP)
    for i in np.flatnonzero(unproved):
        rec[i, :3] = np.frombuffer((b"%.17g" % x[i]).ljust(24, b"\0"), "<u8")
    return rec.tobytes().translate(None, b"\0")
