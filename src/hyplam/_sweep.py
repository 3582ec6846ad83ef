"""The rows of `hyplam sweep` and its CSV file: the part of the CLI that
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
#: rounds in one process:
#:
#:     cells   product  sum   ideal  mu
#:     1 024   4.12     5.05  5.03   2.79
#:     2 048   3.25     3.97  4.00   2.28
#:     2 560   3.04     3.62  3.69   2.00
#:     3 072   2.87     3.59  3.70   1.90
#:     5 120   2.62     3.30  3.40   2.03
#:
#: Larger calls win there but lose in a process that also reads what it
#: wrote back: over 60 rounds of the four 5 000-row sweeps, each read back by
#: np.loadtxt, 2 048 cells took 0 minor page faults (ru_minflt) a round in
#: the median and 4 096 took ~1 400, as glibc trimmed the heap after each
#: call and the next one faulted it back in, and six alternating pairs of the
#: sweep-export benchmark read x0.82 the rows/s at 4 096 cells (slower in
#: 6/6), with the same peak RSS (42.1-42.6 MB against 42.2-42.5).
_CSV_CELLS = 2048
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: a cell's code: 0 for 0 and for a cell "%.17g" formats, else E + _E_CODE
#: for its decimal exponent E = -6 ... 16
_E_CODE = 7
_BYTE, _TOP = np.uint64(8), np.uint64(56)  # uint64, so that no shift widens to float64 under numpy 1.x


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as one little-endian uint64, NUL-padded."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _csv_tables() -> tuple:
    """The tables of _csv_bytes, built on the first sweep.

    - For k = 0 ... 22, the double 10**k and its two halves split by Dekker.
    - The first record word of a cell by its leading digit d: "-0.000d.".
    - For each 4-digit group 0000-9999, its digits as half a record word, and
      its count of trailing zeros (4 for 0000).
    - By code, the last record word: the exponent or none, then ","
      (first half) or "\r\n" (second half).
    - By code, where its cells' layouts start: a cell with nd significant
      digits, the point after the digit p places right of the leading one
      (p = 0 in scientific notation) and sign s has the layout
      2 (17 (p + 4) + nd - 1) + s, its code's start plus 2 nd + s.
    - By layout, the mask of the first three record words (the bytes of the
      sign, "0.", zeros, digits and point the text keeps) and the point's
      place p where it falls among the 16 digits, else 0.
    - By p, the masks that move the digits after the p-th one right of the
      leading one up a byte and put the point in the byte freed, each as two
      words.
    """
    powers = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
    c = _SPLIT * powers
    high = c - (c - powers)
    powers = np.stack([powers, high, powers - high])

    group = np.arange(10000)
    digits = np.stack([group // 10**j % 10 for j in (3, 2, 1, 0)], axis=1) + ord("0")
    quads = digits.astype(np.uint8).view("<u4").ravel()
    zeros = np.where(group == 0, 4, np.sum([group % 10**j == 0 for j in (1, 2, 3)], axis=0))
    leads = _words(b"-0.000%d." % d for d in range(10))

    exps = range(-6, 17)
    ends = [b""] + [b"e%+03d" % e if e < -4 else b"" for e in exps]
    last = np.concatenate([_words(t + b"," for t in ends), _words(t + b"\r\n" for t in ends)])
    places = [0] + [0 if e < -4 else e for e in exps]
    base = np.array([2 * (17 * (p + 4) - 1) for p in places], np.intp)

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
    keep = (keep * np.uint8(255)).view("<u8").reshape(-1, 3).T.copy()
    point = np.where((p >= 1) & (nd - 1 > p), p, 0).repeat(2, axis=2).ravel().astype(np.uint8)

    # the 16 digits as one 128-bit word: the bytes below p stay, the others
    # move up a byte, and p takes the point
    full = (1 << 128) - 1
    masks = [((1 << 8 * p) - 1, full ^ ((1 << 8 * p + 8) - 1), 0x2E << 8 * p) for p in range(16)]
    moves = np.array([[m >> w & (1 << 64) - 1 for w in (0, 64) for m in row] for row in masks], np.uint64)

    return powers, leads, quads, zeros.astype(np.uint8), last, base, keep, point, moves.T.copy()


def _scaled(powers, a, e):
    """(hi, lo): hi + lo = a * 10**(16 - e) exactly, by Dekker's two-product,
    and hi is that product rounded, for positive doubles a and -6 <= e <= 16
    with a * 10**(16 - e) in [1, 1e18); powers is _csv_tables()'s first table."""
    power, b_hi, b_lo = np.take(powers, 16 - e, axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * power
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _csv_bytes(table: np.ndarray) -> bytes:
    r"""The CSV bytes of a float64 table: each cell as "%.17g" formats it,
    "," between cells and "\r\n" after each row.

    A finite nonzero x has the decimal exponent E = floor(log10 |x|), and its
    17 significant digits are the integer N nearest S = |x| 10**k, ties to
    even, where k = 16 - E. The one layout path writes the cells with E in
    [-6, 16] (|x| in [1e-6, 1e17)) and S in [1e16, 1e17 - 1/2), where N has
    17 digits and E is its exponent. There 10**k is a double, Dekker's
    two-product gives S = hi + lo exactly, and hi >= 1e16 > 2**53 is an even
    integer, so N = hi + rint(lo) rounds a tie to even, as Python's dtoa does.

    "%.17g" formats every other cell: inf and nan; a cell outside [1e-6,
    1e17); and an S outside that range, where log10 missed E by one or N
    carries to 1e17. 0 takes N = 0.

    The text follows %g: fixed notation for exponents -4 to 16, scientific
    otherwise, trailing zeros stripped, no point when no digit follows it,
    "-" for a negative value and -0.0. Each cell is a record of four 8-byte
    words: "-0.000", the leading digit and a point; the other 16 digits, 8 a
    word; the exponent and the separator. A mask by the cell's layout zeroes
    what its text leaves out. Where the point falls inside the 16 digits
    (fixed notation, E = 1 to 15, with digits after the point), the digits
    from there on move up a byte behind the point, and the last of them into
    the front of the separator word, which holds at most 7 bytes. A text
    "%.17g" writes fills at most the first three words, 24 bytes. The zero
    bytes are deleted.
    """
    powers, leads, quads, zeros, last, base, keep, point, moves = _csv_tables()
    rows, cols = table.shape
    x = table.ravel()
    finite = np.isfinite(x)
    number = finite & (x != 0.0)
    a = np.where(number, np.abs(x), 1.0)  # no arithmetic on 0, inf or nan

    e = np.floor(np.log10(a)).astype(np.intp)
    inside = (e >= -6) & (e <= 16)
    hi, lo = _scaled(powers, np.where(inside, a, 1.0), np.where(inside, e, 16))  # S = 1 outside [1e-6, 1e17)
    unproved = ~finite | (hi - 1e16 + lo < 0) | (hi - 1e17 + lo >= -0.5)  # exact signs, S being exact
    ok = number & ~unproved
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    n *= ok
    code = (e + _E_CODE) * ok

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
    mask = base[code] + 2 * nd + np.signbit(x)

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
    fall = np.flatnonzero(unproved)
    if fall.size:  # each value once: sum's upper bound at L = 1 is a column of inf
        values, which = np.unique(x[fall], return_inverse=True)
        texts = b"".join((b"%.17g" % v).ljust(24, b"\0") for v in values.tolist())
        rec[fall, :3] = np.frombuffer(texts, "<u8").reshape(-1, 3)[which]
    return rec.tobytes().translate(None, b"\0")


def write_csv(fh, header, table: np.ndarray) -> None:
    """Write a sweep's CSV file to the binary file fh: the header line, then
    the table's rows, _CSV_CELLS cells or one row to a _csv_bytes call."""
    fh.write((",".join(header) + "\r\n").encode())
    block = max(1, _CSV_CELLS // table.shape[1])
    for start in range(0, len(table), block):
        fh.write(_csv_bytes(table[start : start + block]))
