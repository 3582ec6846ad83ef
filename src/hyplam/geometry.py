"""Hyperbolic geometry of the unit disk: metrics, geodesics, Moebius maps.

Points live in the closed unit disk (or the upper half plane after a Cayley
transform): complex numbers of the extended plane (Beardon, The Geometry of
Discrete Groups, 1983). A geodesic is held as its two ends on the unit
circle, which `_geodesic_ends` finds; `geodesic_distance` is a closed form in
the four ends, and optimize holds the search that checks it.

Each function has one body over scalars and rows: `_points` reads each
argument once (any complex number, or a complex ndarray of finite points)
as its coordinate snapped by `_snap`, which is idempotent, and whether it
lies on the circle, and picks the table of `_rows` that the kernels compute
with. A scalar with an infinite part and no NaN is the point at infinity,
`Point(math.inf)`. `Point` (a complex number), `Geodesic` and `MoebiusMap`
are the typed scalar API.

A modulus is taken by hypot (the table's `abs`) only for a Euclidean or
chordal distance, a chordal norm or a unit vector; a modulus that is only
squared or compared with 1 is x*x + y*y, `sq_abs`.
"""

from __future__ import annotations

import cmath
import math

from . import _rows
from .errors import DegenerateInputError, DomainError, _new_tuple, _Record

#: 64 ulp: a wider window snaps interior points near the circle, and their rho to inf
_BOUNDARY_SNAP = 64 * 2.0**-52
#: a point within 2 ulp of the circle is on it and stays where it is: z / |z| lands there
_SNAPPED = 2 * 2.0**-52
#: a squared modulus below this is never snapped (_snap), so rho_disk reads it as it is
_NEVER_SNAPPED = 1.0 - 4.0 * _BOUNDARY_SNAP
#: the line through z1 and z2 counts as through 0 when the nearer point lies off
#: the diameter through the farther one by less than this times their distance
_COLLINEAR_TOL = 1e-12
#: a map with |ad - bc| at most this times |ad| + |bc| counts as degenerate
_DET_TOL = 5e-15
#: a part this large or larger takes its call's points at scale 1/4 (_scaled),
#: and its Moebius image in the chart at infinity (_chart)
_HUGE_PART = 2.0**1021
#: the chart's u = 1/z is taken as t u: u is subnormal past |z| = 2^1022, t u is not
_CHART_T = 2.0**54


class Point(complex):
    """A point of the extended plane, as the package returns it: a complex
    number, and Point(math.inf) at infinity. It lies on the unit circle iff
    _snap says so; no kind is stored."""

    __slots__ = ()

    @property
    def z(self) -> complex:
        """The point as a plain complex number."""
        return complex(self)


#: the point at infinity
_INFINITY = Point(math.inf)
#: the scalar types that _snap reads as they are
_COMPLEX = (complex, Point)


# ---------------------------------------------------------------------------
# Kernels: complex scalars or complex ndarrays of finite points


def _snap(z):
    """z with every point within B = 64 ulp of the unit circle on r =
    hypot(x, y) moved onto it, and where that is (a bool for a scalar, a mask
    for an array); (None, False) for a scalar with an infinite part and no
    NaN, the point at infinity. DomainError for a NaN part, or a row that is
    not finite.

    A point moves to z / r, each part divided by r, only if r lies more than
    2 ulp from 1; z / r lands within 2 ulp, so _snap is idempotent bit for
    bit. Rows take hypot only when some row lies within 4B of the circle on
    s = fl(x^2 + y^2): |r - 1| <= B gives |s - 1| < 4B (|z|^2 - 1 = 2d + d^2,
    |d| <= B + ulp), so no point with s < 1 - 4B moves. A row divides part by
    part (_unit), as a scalar does, to its scalar call's bits, up to the sign
    of a zero imaginary part.
    """
    if type(z) in _COMPLEX:
        try:
            r = abs(z)  # inf or nan for a coordinate that is not finite
        except OverflowError:  # finite coordinates whose |z| passes the doubles, as on rows: off the circle
            return z, False
        if r < math.inf:
            d = abs(r - 1.0)
            if d > _BOUNDARY_SNAP:
                return z, False
            return (z / r if d > _SNAPPED else z), True
        if not cmath.isnan(z):
            return None, False
        raise DomainError(f"a point needs coordinates that are not NaN, got {z}")
    if (ns := _rows.rows()).isfinite(z).all():
        near = abs(ns.sq_abs(z) - 1.0) <= 4.0 * _BOUNDARY_SNAP
        if not near.any():
            return z, near
        r = ns.hypot(z.real, z.imag)
        d = abs(r - 1.0)
        move = (d > _SNAPPED) & (d <= _BOUNDARY_SNAP)
        return ns.where(move, _unit(z, ns.where(move, r, 1.0)), z), d <= _BOUNDARY_SNAP
    raise DomainError("a row needs finite coordinates: the point at infinity is a scalar, Point(math.inf)")


def _points(*values) -> list:
    """[ns, (z, on), ...]: the rows table if any value is an ndarray, else
    SCALAR, then each value's coordinate, snapped as by _snap, and whether it
    lies on the circle (a mask for an ndarray, (None, False) at infinity)."""
    out = [_rows.SCALAR]
    for v in values:
        if type(v) in _COMPLEX:
            out.append(_snap(v))
        elif _rows.is_rows(v):
            out[0] = _rows.rows()
            out.append(_snap(out[0].asarray(v, dtype=complex)))
        else:
            out.append(_snap(complex(v)))
    return out


def _interior(what: str, *values) -> list:
    """[ns, z, ...]: the table and the snapped coordinates; DomainError unless
    each point or row lies strictly inside the disk (|z|^2 > 1 tells |z| > 1
    off the circle)."""
    ns, *pairs = _points(*values)
    if any(z is None or ns.any(on | (ns.sq_abs(z) > 1.0)) for z, on in pairs):
        raise DomainError(f"{what} needs interior points")
    return [ns, *(z for z, _ in pairs)]


def _disk_factor(sz, sw, ns=_rows.SCALAR):
    """sqrt((1 - |z|^2)(1 - |w|^2)) for interior points z and w, from their
    squared moduli sz = ns.sq_abs(z) and sw. 1 - fl(|z|^2) is exact near the
    circle, so its relative error is that of fl(|z|^2), at most 1.5 ulp of 1,
    over 1 - |z|^2: about eps / (1 - |z|) at worst. Against 300-bit mpmath at
    |z| = 1 - 10^-k, k = 1..14, 0.31 eps / (1 - |z|) was seen (0.28 for
    (1 - |z|)(1 + |z|) with |z| by hypot)."""
    return ns.sqrt((1.0 - sz) * (1.0 - sw))


def _rho(z, w, sz, sw, ns=_rows.SCALAR):
    """2 arsh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) for interior points,
    given with their squared moduli."""
    return 2.0 * ns.arcsinh(ns.abs(z - w) / _disk_factor(sz, sw, ns))


def _scaled(ns, *zs) -> list:
    """[s, s z, ...]: s = 1/4 where a part of some point reaches 2^1021, row
    by row, and 1.0 elsewhere; then no modulus or difference of the scaled
    points passes the doubles. The multiply is exact but for subnormal parts,
    and a call with no such part skips it. None (infinity) stays None."""
    big = False
    for z in zs:
        if z is not None:
            big = big | (abs(z.real) >= _HUGE_PART) | (abs(z.imag) >= _HUGE_PART)
    if not ns.any(big):
        return [1.0, *zs]
    s = ns.where(big, 0.25, 1.0)
    return [s, *(None if z is None else z * s for z in zs)]


def _moebius(a, b, c, d, z):
    """(a z + b) / (c z + d); the coefficients may be per-row arrays."""
    return (a * z + b) / (c * z + d)


def _chart(a, b, c, d, z):
    """(a z + b) / (c z + d) for a part of z at least _HUGE_PART, in the chart
    u = 1/z: (t a + b v) / (t c + d v) with v = t u = (t / 16) / (z / 16).
    Smith's division cannot overflow on z / 16, and numpy's, which
    multiplies by the reciprocal of its divisor, finds that normal (not so
    at z / 4). The images of z -> z and z -> z / 2 were within 2 ulp on 200
    seeded points (mpmath), where u itself, subnormal, lost up to 1 419."""
    return _moebius(b, _CHART_T * a, d, _CHART_T * c, 0.0625 * _CHART_T / (0.0625 * z))


def _unit(z, r):
    """z / r for r = |z|, the real and the imaginary part each divided by r:
    numpy divides a complex row by a real one as a complex quotient, which
    rounds otherwise than Python's division of a complex number by a float."""
    return z.real / r + 1j * (z.imag / r)


def _arc(z1, z2, ns=_rows.SCALAR):
    """Center, radius and the two circle ends of the geodesic arc through two
    points not collinear with 0: the circle through them orthogonal to the
    unit circle, in real arithmetic, so a row gives what a scalar call does.
    The ends (1 +- i r)/conj(c) are the directions of (1 +- i r) c; they
    inherit the center's cancellation, which puts them off the circle (2e-13
    for ends 1e-4 apart), so each is taken as its unit vector. The cross
    product and the center come from the chord (dx, dy) = z2 - z1, exact for
    near points, and |z2|^2 - |z1|^2 = dx (x1 + x2) + dy (y1 + y2). verify's
    arc-orthogonality claim calls it on rows."""
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    dx, dy = x2 - x1, y2 - y1
    r1, r2 = ns.abs(z1), ns.abs(z2)
    s1, ds = 1.0 + r1 * r1, dx * (x1 + x2) + dy * (y1 + y2)
    cross = x1 * dy - y1 * dx
    cx, cy = (s1 * dy - ds * y1) / (2.0 * cross), (ds * x1 - s1 * dx) / (2.0 * cross)
    # the ratios first: a product of |z2| and cross underflows for points near 0
    radius = (ns.abs(z1 - z2) / abs(cross)) * (ns.abs(z1 * (r2 * r2) - z2) / (2.0 * r2))
    e1 = (cx - radius * cy) + 1j * (cy + radius * cx)
    e2 = (cx + radius * cy) + 1j * (cy - radius * cx)
    return cx + 1j * cy, radius, _unit(e1, ns.abs(e1)), _unit(e2, ns.abs(e2))


def _geodesic_ends(z1, z2, ns=_rows.SCALAR):
    """The two ends on the unit circle of the geodesic through distinct
    points z1 and z2 of the closed disk: complex numbers, or complex rows.
    One body in real arithmetic, so each row's ends are its scalar call's,
    bit for bit.

    The geodesic is a diameter when the nearer point lies off the diameter
    through the farther one, by |Im(conj(z1) z2)| / max(|z1|, |z2|), at most
    1e-12 times their distance: the test does not depend on the scale, so two
    points near 0 are judged by the direction of the line through them, and
    a point next to 0 lies on a diameter with any other. A diameter's ends
    are +-u, u the farther point's unit vector with its angle in [0, pi); an
    arc's are _arc's, which a diameter's row reaches as a stand-in pair, so
    that its zero cross is not divided by."""
    r1, r2 = ns.abs(z1), ns.abs(z2)
    first = r1 >= r2
    far, r = ns.where(first, z1, z2), ns.where(first, r1, r2)
    cross = z1.real * z2.imag - z1.imag * z2.real
    diameter = abs(cross) <= _COLLINEAR_TOL * r * ns.abs(z1 - z2)
    # far / -r where far's angle is in [-pi, 0)
    u = _unit(far, ns.where((far.imag < 0.0) | ((far.imag == 0.0) & (far.real < 0.0)), -r, r))
    _, _, e1, e2 = _arc(ns.where(diameter, 0.5, z1), ns.where(diameter, 0.5j, z2), ns)
    return ns.where(diameter, u, e1), ns.where(diameter, -u, e2)


def _midpoint(z, w, ns=_rows.SCALAR):
    """The (unsnapped) hyperbolic midpoint of interior points.

    The automorphism z -> 0 sends w to u = (w - z) / (1 - conj(z) w); the
    midpoint of [0, u] is u / (1 + sqrt(1 - |u|^2)), which halves 2 arth|u|;
    the inverse map sends it back. 1 - |u|^2 is taken from the identity
    (1 - |z|^2)(1 - |w|^2) / |1 - conj(z) w|^2, which does not cancel when u
    is near the circle.
    """
    den = 1.0 - z.conjugate() * w
    u = (w - z) / den
    u_prime = _disk_factor(ns.sq_abs(z), ns.sq_abs(w), ns) / ns.sqrt(ns.sq_abs(den))
    return _moebius(1.0, z, z.conjugate(), 1.0, u / (1.0 + u_prime))


def _ratio(a, b, c, d, ns=_rows.SCALAR):
    """The absolute ratio (|a - c| / |a - b|) (|b - d| / |c - d|) of four
    snapped coordinates (None at infinity), the ratios first: a product of
    two distances under- or overflows for points near 1e-170 or 1e170.

    Each point stands once above and once below, so a point at infinity's
    two distances cancel and each is taken as 1; DegenerateInputError where
    two coordinates are equal, two points at infinity included."""
    if ns.any((a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d)):
        raise DegenerateInputError("absolute ratio needs four distinct points")
    ab = 1.0 if a is None or b is None else ns.abs(a - b)
    ac = 1.0 if a is None or c is None else ns.abs(a - c)
    bd = 1.0 if b is None or d is None else ns.abs(b - d)
    cd = 1.0 if c is None or d is None else ns.abs(c - d)
    return (ac / ab) * (bd / cd)


# ---------------------------------------------------------------------------
# Metrics


def chordal_distance(x, y):
    """Metric of the Riemann sphere pulled back to the plane: |z - w| / n(z)
    / n(w) with n(z) = hypot(1, |z|), 1 / n(z) from z to infinity and 0
    between two infinities. Each norm is divided in turn, so points near
    1e200 overflow neither a product of norms nor the result; at _scaled's s,
    s |z - w| / hypot(s, |z|) / hypot(s, |w|). On ndarrays, row by row."""
    ns, (z, _), (w, _) = _points(x, y)
    s, z, w = _scaled(ns, z, w)
    if z is None or w is None:
        return 0.0 if z is w else s / ns.hypot(s, ns.abs(w if z is None else z))
    return s * ns.abs(z - w) / ns.hypot(s, ns.abs(z)) / ns.hypot(s, ns.abs(w))


def absolute_ratio(a, b, c, d):
    """Moebius-invariant cross ratio (|a - c| |b - d|) / (|a - b| |c - d|):
    the chordal norms cancel in it, and so do a point at infinity's two
    distances. It takes the points at _scaled's scale. On complex ndarrays
    of finite points, row by row."""
    ns, (za, _), (zb, _), (zc, _), (zd, _) = _points(a, b, c, d)
    _, za, zb, zc, zd = _scaled(ns, za, zb, zc, zd)
    return _ratio(za, zb, zc, zd, ns)


def rho_disk(x, y):
    """Hyperbolic distance in the unit disk; infinite if an endpoint is on the
    circle (0 between equal points there). On ndarrays, row by row."""
    if type(x) in _COMPLEX and type(y) in _COMPLEX:
        # two points that _snap cannot move, as |z|^2 < 1 - 4B shows: no
        # _points and no circle mask; |z|^2 as _rows.SCALAR.sq_abs takes it
        sz, sw = x.real * x.real + x.imag * x.imag, y.real * y.real + y.imag * y.imag
        if sz < _NEVER_SNAPPED and sw < _NEVER_SNAPPED:
            return _rho(x, y, sz, sw)
    ns, (z, z_on), (w, w_on) = _points(x, y)
    if z is None or w is None:
        raise DomainError("rho_disk is undefined at infinity")
    on = z_on | w_on
    circle = ns.any(on)
    # a circle point reaches _rho as 0, not at its zero disk factor: that result is not selected
    z_in, w_in = (ns.where(on, 0.0, z), ns.where(on, 0.0, w)) if circle else (z, w)
    sz, sw = ns.sq_abs(z_in), ns.sq_abs(w_in)
    if ns.any((sz > 1.0) | (sw > 1.0)):
        raise DomainError("rho_disk needs points in the closed unit disk")
    rho = _rho(z_in, w_in, sz, sw, ns)
    return ns.where(on, ns.where(z_on & w_on & (z == w), 0.0, math.inf), rho) if circle else rho


def rho_halfplane(x, y):
    """Hyperbolic distance in the upper half plane: sinh(rho/2) = q =
    |x - y| / (2 sqrt(Im x Im y)), which neither cancels between near
    points, as 1 + |x - y|^2 / (2 Im x Im y) in arcosh does, nor underflows
    for tiny imaginary parts. At _scaled's s it is |s x - s y| / (2 s sqrt(Im
    x Im y)) of the unscaled Im x and Im y, which s could round to 0. Where q
    passes the doubles, asinh q is log 2q to the last bit, and rho is 2 (log|s
    x - s y| - log s - log(Im x)/2 - log(Im y)/2), whose terms do not
    overflow. On ndarrays, row by row."""
    ns, (z, _), (w, _) = _points(x, y)
    if z is None or w is None or ns.any((z.imag <= 0.0) | (w.imag <= 0.0)):
        raise DomainError("rho_halfplane needs points with positive imaginary part")
    s, sz, sw = _scaled(ns, z, w)
    chord = ns.abs(sz - sw)
    # at s = 1/4 the divisor underflows to 0 for parts near 5e-324: the
    # smallest double in its place leaves q = 0 between equal points, and
    # lets it pass the doubles between the others
    q = ns.divide(chord, ns.fmax(2.0 * s * ns.sqrt(z.imag) * ns.sqrt(w.imag), 5e-324))
    far = q == math.inf
    if not ns.any(far):
        return 2.0 * ns.arcsinh(q)
    logs = ns.log(ns.where(far, chord, 1.0)) - ns.log(s) - 0.5 * ns.log(z.imag) - 0.5 * ns.log(w.imag)
    return ns.where(far, 2.0 * logs, 2.0 * ns.arcsinh(q))


# ---------------------------------------------------------------------------
# Geodesics


class Geodesic(_Record):
    """A hyperbolic line of the disk, held as its two ends on the unit
    circle, the Points that geodesic_through makes."""

    __slots__ = ()

    def __new__(cls, endpoints: tuple[Point, Point]) -> "Geodesic":
        return _new_tuple(cls, (endpoints,))


def geodesic_through(x, y) -> Geodesic:
    """The hyperbolic line through two distinct points of the closed disk.

    An input on the circle is an end itself, at its snapped coordinate: the
    nearer computed end is replaced by it, or for two such inputs, the
    nearer to the first input by it and the other by the second, so both are
    ends even where the computed ends are too rough to tell which is which."""
    ns, (z1, on1), (z2, on2) = _points(x, y)
    # a snapped circle point may lie an ulp outside, as in rho_disk
    if z1 is None or z2 is None or (ns.sq_abs(z1) > 1.0 and not on1) or (ns.sq_abs(z2) > 1.0 and not on2):
        raise DomainError("geodesics live in the closed unit disk")
    if abs(z1 - z2) == 0.0:
        raise DegenerateInputError("coincident points define no geodesic")
    e1, e2 = _geodesic_ends(z1, z2, ns)
    if on1 or on2:
        z, w = (z1, z2) if on1 else (z2, z1)
        first = abs(e1 - z) <= abs(e2 - z)
        if on1 and on2:
            e1, e2 = (z, w) if first else (w, z)
        else:
            e1, e2 = (z, e2) if first else (e1, z)
    return _new_tuple(Geodesic, ((Point(e1), Point(e2)),))


def _ends_of(g: Geodesic) -> tuple[complex, complex]:
    """A geodesic's ends, snapped; DomainError unless two distinct points of the circle."""
    _, (e1, on1), (e2, on2) = _points(*g[0])
    if not (on1 and on2) or e1 == e2:
        raise DomainError("a geodesic needs two distinct ends on the unit circle")
    return e1, e2


def _ends_distance(e1, e2, f1, f2, ns=_rows.SCALAR):
    """The distance of geodesics with distinct ends (e1, e2) and (f1, f2) on
    the circle, numbers or rows, in real arithmetic: sinh^2(delta/2) =
    min(p, q)/r, p = |e1 - f1||e2 - f2|, q = |e1 - f2||e2 - f1|, r = |e1 -
    e2||f1 - f2| (Beardon, The Geometry of Discrete Groups, 1983, section 7),
    from chords of coordinate differences, exact for nearby ends; r is
    Ptolemy's third product, not max(p, q) - min(p, q), which cancels. It is
    0.0 where the real cross ratio (e1 - f1)(e2 - f2)/((e1 - f2)(e2 - f1)) is
    negative (crossing) or 0 (a shared end), a sign that needs no tolerance
    and holds where r and max(p, q) agree to the last bit, down to ~1e-80."""
    a, b, c, d = e1 - f1, e2 - f2, e1 - f2, e2 - f1
    ab_re, ab_im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    cd_re, cd_im = c.real * d.real - c.imag * d.imag, c.real * d.imag + c.imag * d.real
    a, b, c, d = ns.abs(a), ns.abs(b), ns.abs(c), ns.abs(d)
    near = a * b <= c * d
    s = ns.sqrt(ns.where(near, a, c) / ns.abs(e1 - e2)) * ns.sqrt(ns.where(near, b, d) / ns.abs(f1 - f2))
    return ns.where(ab_re * cd_re + ab_im * cd_im > 0.0, 2.0 * ns.math_asinh(s), 0.0)


def geodesic_distance(g1, g2):
    """Infimum of rho over point pairs on two geodesics; on two equal-length
    sequences of geodesics, an ndarray of each pair's scalar result, bit for
    bit. The closed form of the chords of the four ends (_ends_distance):
    0.0 for crossing geodesics and for a shared end. DomainError for a
    geodesic whose ends are not two distinct points of the circle."""
    if isinstance(g1, Geodesic) and isinstance(g2, Geodesic):
        return _ends_distance(*_ends_of(g1), *_ends_of(g2))
    if isinstance(g1, Geodesic) or isinstance(g2, Geodesic):
        raise DomainError("geodesic_distance takes two geodesics or two sequences of them")
    gs1, gs2 = list(g1), list(g2)
    if len(gs1) != len(gs2):
        raise DomainError(f"geodesic_distance needs sequences of equal length, not {len(gs1)} and {len(gs2)}")
    ns = _rows.rows()
    ends = ns.asarray([(*_ends_of(x), *_ends_of(y)) for x, y in zip(gs1, gs2)], dtype=complex)
    return _ends_distance(*ends.reshape(-1, 4).T, ns)


def rho_via_crossratio(x, y):
    """Distance as log of the absolute ratio with the geodesic endpoints. On
    ndarrays, row by row."""
    ns, z, w = _interior("rho_via_crossratio", x, y)
    if ns.any(z == w):
        raise DegenerateInputError("coincident points define no geodesic")
    e1, e2 = _geodesic_ends(z, w, ns)
    # label so that e_x, x, y, e_y occur in order along the geodesic
    swap = ns.sq_abs(e1 - z) > ns.sq_abs(e1 - w)
    return ns.log(_ratio(ns.where(swap, e2, e1), z, w, ns.where(swap, e1, e2), ns))


# ---------------------------------------------------------------------------
# Moebius maps


class MoebiusMap(_Record):
    """z -> (a z + b)/(c z + d), stored as (a, b, c, d) and then the same
    coefficients scaled by a power of two to a largest modulus in [1, 2),
    with which the map computes: the images are the same, and c z + d
    underflows to 0 at no scale of the map."""

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex, d: complex) -> "MoebiusMap":
        """DegenerateInputError for a determinant that is 0 relative to its
        terms, or NaN, taken of the scaled coefficients (_moebius_map)."""
        big = max(abs(a), abs(b), abs(c), abs(d))
        return _moebius_map(cls, a, b, c, d, 1.0 if 1.0 <= big < 2.0 else math.ldexp(1.0, 1 - math.frexp(big)[1]))

    def __call__(self, z):
        """The image Point: Point(math.inf) where c z + d is 0 or the image
        overflows. On a complex ndarray, the snapped image of each row,
        and DomainError if a row's image is not finite.

        A point with a part of at least _HUGE_PART is taken in the chart u =
        1/z (_chart). Elsewhere the coefficients, scaled into [1, 2), keep a z
        + b and c z + d, and the division's own terms, finite."""
        # a complex scalar, as most calls take, is snapped without _points
        ns, (z, _) = (_rows.SCALAR, _snap(z)) if type(z) in _COMPLEX else _points(z)
        a, b, c, d = self[4:]
        if ns is _rows.SCALAR:  # Python's division raises ZeroDivisionError at the pole, numpy's gives inf
            try:
                # c z + d is taken once, in _moebius: Python's division refuses
                # exactly a zero divisor, so the pole is decided on c z + d == 0
                if z is None:
                    w = complex(a / c)
                elif abs(z.real) < _HUGE_PART and abs(z.imag) < _HUGE_PART:
                    w = _moebius(a, b, c, d, z)
                else:
                    w = _chart(a, b, c, d, z)
            except ZeroDivisionError:
                return _INFINITY
            return _INFINITY if cmath.isinf(w) else Point(_snap(w)[0])
        if not (c * z + d == 0).any():
            with ns.errstate(all="ignore"):
                w = _moebius(a, b, c, d, z)
                huge = (abs(z.real) >= _HUGE_PART) | (abs(z.imag) >= _HUGE_PART)
                if huge.any():
                    w = ns.where(huge, _chart(a, b, c, d, z), w)
            if ns.isfinite(w).all():
                return _snap(w)[0]
        raise DomainError("a row maps to infinity, which has no finite coordinate")

    @staticmethod
    def cayley() -> "MoebiusMap":
        """z -> i(1+z)/(1-z), mapping the disk onto the upper half plane."""
        return MoebiusMap(1j, 1j, -1, 1)

    @staticmethod
    def disk_automorphism(a: complex, phase: float = 0.0) -> "MoebiusMap":
        """z -> e^{i phase} (z - a)/(1 - conj(a) z) for |a| < 1 and a finite
        phase; DomainError naming the center or the phase otherwise, a center
        that is not finite included."""
        if not abs(a) < 1.0:
            raise DomainError(f"disk automorphism needs a center a with |a| < 1, got a = {a}")
        if not math.isfinite(phase):
            raise DomainError(f"disk automorphism needs a finite phase, got phase = {phase}")
        e = cmath.exp(1j * phase)
        # its largest coefficient modulus is d = 1 or |e|, within an ulp of 1
        return _moebius_map(MoebiusMap, e, -e * a, -a.conjugate(), 1.0, 1.0)


def _moebius_map(cls, a, b, c, d, unit: float) -> MoebiusMap:
    """The map of MoebiusMap(a, b, c, d), scaled by unit, which is the power
    of two that MoebiusMap takes for these coefficients."""
    sa, sb, sc, sd = a * unit, b * unit, c * unit, d * unit
    # tested on the scaled coefficients: their largest modulus is in [1, 2), so
    # the products do not over- or underflow for the scale of the map alone
    ad, bc = sa * sd, sb * sc
    if not abs(ad - bc) > _DET_TOL * (abs(ad) + abs(bc)):
        raise DegenerateInputError("Moebius map has a (near-)zero or undefined determinant")
    return _new_tuple(cls, (a, b, c, d, sa, sb, sc, sd))


# ---------------------------------------------------------------------------
# Midpoints


def hyperbolic_midpoint(x, y):
    """Point p on the segment from x to y with rho(x,p) = rho(p,y), snapped.
    On ndarrays, the complex midpoint of each row."""
    ns, z, w = _interior("hyperbolic midpoint", x, y)
    m = _snap(_midpoint(z, w, ns))[0]
    return Point(m) if ns is _rows.SCALAR else m
