"""Hyperbolic geometry of the unit disk: metrics, geodesics, Moebius maps.

Points live in the closed unit disk (or the upper half plane after a Cayley
transform). A geodesic is held as its two ends on the unit circle, and
nothing else: `_geodesic_ends` finds them, one body over scalars and rows
in real arithmetic, and `geodesic_through` puts an input on the circle in
place of its end. A numerical geodesic-to-geodesic distance oracle
deliberately works by a nested bracket search over sampled points, so it
stays independent of any closed-form distance it checks. It samples each
geodesic as the image of a diameter under a disk automorphism built from
the two ends (`_ends_form`), and runs its inner search in real arithmetic.

Each function has one body over scalars and rows. An argument may be a
complex number, a `Point` or a complex ndarray of finite points: `_points`
tests each argument's exact type once and turns it into its coordinate and
whether it lies on the circle, and builds no `Point` for a number. A number
or a row is snapped onto the circle within 64 ulp (`_snap`, whose scalar
tail is one abs and a comparison); a `Point`'s stored coordinate was
snapped when it was made and is used as it is, never snapped again, since
a second snap moves some points by an ulp. A coordinate or a row that is
not finite raises DomainError: the point at infinity is `Point.infinity()`.
`_where` selects row by row on a mask and by a conditional on a bool. So
`rho_disk`, `rho_halfplane`, `absolute_ratio`, `chordal_distance`,
`rho_via_crossratio`, `hyperbolic_midpoint` and `MoebiusMap.__call__` take
complex ndarrays as well as scalars and return ndarrays, each row under the
scalar rules.
`Point`, `Geodesic` and `MoebiusMap` are the typed scalar API: a scalar
midpoint or Moebius image is a `Point`, and `geodesic_through` takes two
scalar points. A `Point` is an immutable tuple (re, im, kind), made by
`tuple.__new__` with no per-field setattr, and its kind is tested by
identity against the module's constants.

A modulus is taken by libm hypot (`_abs`, ~30 ns an element) only for a
Euclidean distance |z - w| or a unit vector, in `_arc` and `_geodesic_ends`,
whose scale-free diameter test must neither over- nor underflow. Everywhere
else a modulus is only squared or compared with 1, and `_sq_abs` (a
multiply-add) takes |z|^2: the snap window on rows, 1 - |z|^2 in the disk
factor, the closed-disk tests of rows. The absolute ratio of four finite
points takes Euclidean distances, whose chordal norms cancel.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .errors import DegenerateInputError, DomainError

#: numpy's array type, bound once, as in specfun: each scalar call tests for it
#: several times, and isinstance(x, np.ndarray) costs ~5 times isinstance(x, _ndarray)
_ndarray = np.ndarray

#: 64 ulp: a wider window snaps interior points near the circle, and their rho to inf
_BOUNDARY_SNAP = 64 * 2.0**-52
#: the line through z1 and z2 counts as through 0 when the nearer point lies off
#: the diameter through the farther one by less than this times their distance
_COLLINEAR_TOL = 1e-12
_PARAM_MARGIN = 1e-9
#: the six pairs of four points, in the order ab, ac, ad, bc, bd, cd
_PAIRS = tuple(itertools.combinations(range(4), 2))
#: a map with |ad - bc| at most this times |ad| + |bc| counts as degenerate
_DET_TOL = 5e-15


class PointKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    INFINITY = "infinity"


#: the kinds, tested by identity
_INTERIOR, _BOUNDARY, _AT_INFINITY = PointKind.INTERIOR, PointKind.BOUNDARY, PointKind.INFINITY
_new_tuple = tuple.__new__


class Point(tuple):
    """A point of the extended plane: the immutable triple (re, im, kind).

    kind is BOUNDARY on the unit circle, INTERIOR at any other finite point
    and INFINITY at the point at infinity, stored as (0, 0). A Point equals
    only a Point with the same re, im and kind, never a bare tuple or a
    complex, and hashes as that triple. Its coordinates are finite:
    Point.infinity() is the one way to the point at infinity.
    """

    __slots__ = ()

    def __new__(cls, re: float, im: float, kind: PointKind) -> "Point":
        if kind is not _AT_INFINITY and not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError(f"a point needs finite coordinates, got ({re}, {im}); use Point.infinity()")
        return _new_tuple(cls, (re, im, kind))

    re = property(itemgetter(0))
    im = property(itemgetter(1))
    kind = property(itemgetter(2))

    def __eq__(self, other):
        return type(other) is Point and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"Point(re={self[0]!r}, im={self[1]!r}, kind={self[2]!r})"

    def __getnewargs__(self):
        return tuple(self)

    @property
    def z(self) -> complex:
        re, im, kind = self
        if kind is _AT_INFINITY:
            raise DomainError("point at infinity has no finite coordinate")
        return complex(re, im)

    @property
    def is_infinity(self) -> bool:
        return self[2] is _AT_INFINITY

    @staticmethod
    def of(value) -> "Point":
        """Coerce a complex/float/Point; snaps near-unit moduli to the circle
        and refuses a non-finite coordinate with DomainError."""
        t = type(value)
        if t is Point:
            return value
        return _point(value if t is complex else complex(value))

    @staticmethod
    def infinity() -> "Point":
        return _new_tuple(Point, (0.0, 0.0, _AT_INFINITY))


def _point(z: complex) -> Point:
    """The Point of a complex number, snapped as by _snap."""
    z, on = _snap(z)
    return _new_tuple(Point, (z.real, z.imag, _BOUNDARY if on else _INTERIOR))


# ---------------------------------------------------------------------------
# Kernels: complex scalars or complex ndarrays of finite points


def _where(cond, a, b):
    """np.where(cond, a, b) on a mask; a if cond else b on a bool. The caller
    has computed both branches already, so each must be safe on every input."""
    return np.where(cond, a, b) if isinstance(cond, _ndarray) else (a if cond else b)


def _any(cond):
    """Whether a bool holds, or any row of a mask."""
    return cond.any() if isinstance(cond, _ndarray) else cond


def _sqrt(x):
    """math.sqrt on a scalar, np.sqrt on an array: a scalar stays a Python float."""
    return np.sqrt(x) if isinstance(x, _ndarray) else math.sqrt(x)


def _asinh(x):
    """math.asinh on a scalar, np.arcsinh on an array: a scalar stays a Python float."""
    return np.arcsinh(x) if isinstance(x, _ndarray) else math.asinh(x)


def _log(x):
    """math.log on a scalar, np.log on an array: a scalar stays a Python float."""
    return np.log(x) if isinstance(x, _ndarray) else math.log(x)


def _abs(z):
    """|z| by hypot, on an array too, as Python's abs computes it: numpy's
    complex abs rounds differently, and rho amplifies that near the circle.
    It costs ~15 times a multiply-add, so it is taken only for a Euclidean
    distance |z - w| or a unit vector, in _arc and in _geodesic_ends; a
    modulus that is only squared or compared with 1 is _sq_abs."""
    return np.hypot(z.real, z.imag) if isinstance(z, _ndarray) else abs(z)


def _sq_abs(z):
    """|z|^2 as x*x + y*y: the same IEEE operations on a scalar and a row,
    within 1.5 ulp of the true square. Past |z| ~ 1e154 it is inf, on a row
    too with no warning, as on a scalar."""
    x, y = z.real, z.imag
    if isinstance(z, _ndarray):
        with np.errstate(over="ignore"):
            return x * x + y * y
    return x * x + y * y


def _snap(z):
    """z with every point within 64 ulp of the unit circle moved onto it, and
    where that happened (a bool for a scalar, a mask for an array).

    The window is B = 64 ulp on r = hypot(x, y). On rows, hypot is taken
    only when some row lies within 4B of the circle on s = fl(x^2 + y^2): if
    |r - 1| <= B, then |z| = 1 + d with |d| <= B + ulp, so |z|^2 - 1 = 2d + d^2
    and |s - 1| <= 2B + B^2 + O(eps) < 4B. A row outside the wider window on
    s is thus outside the window on r, and snaps to nothing either way: the
    result is bit for bit what the window on r alone gives. A scalar (a
    complex) goes straight to abs, which is hypot, one C call that costs
    less than the test on s.

    DomainError for a coordinate that is not finite, or a row with one: the
    point at infinity is Point.infinity(), not a number.
    """
    if type(z) is complex:
        r = abs(z)  # inf or nan for a coordinate that is not finite
        if r < math.inf:
            on = abs(r - 1.0) <= _BOUNDARY_SNAP
            return (z / r if on else z), on
    elif np.isfinite(z).all():
        near = abs(_sq_abs(z) - 1.0) <= 4.0 * _BOUNDARY_SNAP
        if not near.any():
            return z, near
        r = np.hypot(z.real, z.imag)
        on = abs(r - 1.0) <= _BOUNDARY_SNAP
        return np.where(on, z / np.where(on, r, 1.0), z), on
    raise DomainError("a point needs finite coordinates: the point at infinity is Point.infinity()")


def _points(*values) -> list:
    """Each value as a pair (z, on): its coordinate, snapped as by _snap, and
    whether it lies on the circle. A complex and a bool for a number or a
    Point, a complex ndarray and a mask for an ndarray, and (None, False)
    for the point at infinity; DomainError for a coordinate or a row that is
    not finite. Each value's exact type is tested once. A Point's stored
    coordinate is used as it is: it was snapped when the Point was made, and
    _snap is not idempotent (a second snap moves some points within 64 ulp
    of the circle by an ulp)."""
    out = []
    for v in values:
        t = type(v)
        if t is Point:
            re, im, kind = v
            out.append((None, False) if kind is _AT_INFINITY else (complex(re, im), kind is _BOUNDARY))
        elif t is complex:
            out.append(_snap(v))
        elif t is float or t is int or not isinstance(v, _ndarray):
            out.append(_snap(complex(v)))
        else:
            out.append(_snap(np.asarray(v, dtype=complex)))
    return out


def _interior(what: str, *values) -> list:
    """The values' snapped coordinates; DomainError unless each point, or
    every row, lies strictly inside the unit disk. A point off the circle
    lies more than 64 ulp from it, so |z|^2 > 1 tells |z| > 1."""
    zs = []
    for z, on in _points(*values):
        if z is None or _any(on | (_sq_abs(z) > 1.0)):
            raise DomainError(f"{what} needs interior points")
        zs.append(z)
    return zs


def _snapped(z):
    """z snapped as by _snap: complex rows for an ndarray, a Point for a scalar."""
    return _snap(z)[0] if isinstance(z, _ndarray) else _point(z)


def _chordal_norm(z):
    """hypot(1, |z|) = sqrt(1 + |z|^2), finite for every finite z: the
    chordal distance of z and w is |z - w| / n(z) / n(w), and that of z and
    infinity 1 / n(z)."""
    r = _abs(z)
    return np.hypot(1.0, r) if isinstance(r, _ndarray) else math.hypot(1.0, r)


def _chordal(z, w, nz, nw):
    """Chordal distance of two points given with their _chordal_norm; None
    stands for the point at infinity. It divides by each norm in turn, so
    points near 1e200 neither overflow a product of norms nor the result."""
    if z is None:
        return 0.0 if w is None else 1.0 / nw
    if w is None:
        return 1.0 / nz
    return _abs(z - w) / nz / nw


def _disk_factor(sz, sw):
    """sqrt((1 - |z|^2)(1 - |w|^2)) for interior points z and w, from their
    squared moduli sz = _sq_abs(z) and sw. 1 - fl(|z|^2) is exact near the
    circle, so its relative error is the absolute error of fl(|z|^2), at
    most 1.5 ulp of 1, over 1 - |z|^2: about eps / (1 - |z|) at worst. Against 300-bit mpmath at |z| = 1 - 10^-k, k = 1..14, the
    worst seen was 0.31 eps / (1 - |z|), and 0.28 for (1 - |z|)(1 + |z|)
    with |z| by hypot."""
    return _sqrt((1.0 - sz) * (1.0 - sw))


def _rho(z, w, sz, sw):
    """2 arsh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) for interior points,
    given with their squared moduli."""
    return 2.0 * _asinh(_abs(z - w) / _disk_factor(sz, sw))


def _moebius(a, b, c, d, z):
    """(a z + b) / (c z + d); the coefficients may be per-row arrays."""
    return (a * z + b) / (c * z + d)


def _unit(z, r):
    """z / r for r = |z|, the real and the imaginary part each divided by r:
    numpy divides a complex row by a real one as a complex quotient, which
    rounds otherwise than Python's division of a complex number by a float."""
    return z.real / r + 1j * (z.imag / r)


def _arc(z1, z2):
    """Center, radius and the two circle ends of the geodesic arc through two
    points not collinear with 0: the circle through them orthogonal to the
    unit circle, in real arithmetic, so a row gives what a scalar call does.
    The ends (1 +- i r)/conj(c) are the directions of (1 +- i r) c; they
    inherit the center's cancellation, which puts them off the circle (2e-13
    for ends 1e-4 apart), so each is taken as its unit vector."""
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    r1, r2 = _abs(z1), _abs(z2)
    s1, s2 = 1.0 + r1 * r1, 1.0 + r2 * r2
    cross = x1 * y2 - y1 * x2
    cx, cy = (s1 * y2 - s2 * y1) / (2.0 * cross), (s2 * x1 - s1 * x2) / (2.0 * cross)
    # the ratios first: a product of |z2| and cross underflows for points near 0
    radius = (_abs(z1 - z2) / abs(cross)) * (_abs(z1 * (r2 * r2) - z2) / (2.0 * r2))
    e1 = (cx - radius * cy) + 1j * (cy + radius * cx)
    e2 = (cx + radius * cy) + 1j * (cy - radius * cx)
    return cx + 1j * cy, radius, _unit(e1, _abs(e1)), _unit(e2, _abs(e2))


def _geodesic_ends(z1, z2):
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
    r1, r2 = _abs(z1), _abs(z2)
    first = r1 >= r2
    far, r = _where(first, z1, z2), _where(first, r1, r2)
    cross = z1.real * z2.imag - z1.imag * z2.real
    diameter = abs(cross) <= _COLLINEAR_TOL * r * _abs(z1 - z2)
    # far / -r where far's angle is in [-pi, 0)
    u = _unit(far, _where((far.imag < 0.0) | ((far.imag == 0.0) & (far.real < 0.0)), -r, r))
    _, _, e1, e2 = _arc(_where(diameter, 0.5, z1), _where(diameter, 0.5j, z2))
    return _where(diameter, u, e1), _where(diameter, -u, e2)


def _midpoint(z, w):
    """The (unsnapped) hyperbolic midpoint of interior points.

    The automorphism z -> 0 sends w to u = (w - z) / (1 - conj(z) w); the
    midpoint of [0, u] is u / (1 + sqrt(1 - |u|^2)), which halves 2 arth|u|;
    the inverse map sends it back. 1 - |u|^2 is taken from the identity
    (1 - |z|^2)(1 - |w|^2) / |1 - conj(z) w|^2, which does not cancel when u
    is near the circle.
    """
    den = 1.0 - z.conjugate() * w
    u = (w - z) / den
    u_prime = _disk_factor(_sq_abs(z), _sq_abs(w)) / _sqrt(_sq_abs(den))
    return _moebius(1.0, z, z.conjugate(), 1.0, u / (1.0 + u_prime))


def _ratio(a, b, c, d):
    """The absolute ratio (|a - c| / |a - b|) (|b - d| / |c - d|) of four
    snapped coordinates (None at infinity), the ratios first: a product of
    two distances under- or overflows for points near 1e-170 or 1e170.

    The chordal norms cancel in it, so four finite points take Euclidean
    distances and are distinct when their coordinates differ; with a point
    at infinity, the distances are chordal, and a zero one means equal
    points."""
    if a is None or b is None or c is None or d is None:
        zs = (a, b, c, d)
        norms = [None if z is None else _chordal_norm(z) for z in zs]
        ab, ac, ad, bc, bd, cd = (_chordal(zs[i], zs[j], norms[i], norms[j]) for i, j in _PAIRS)
        equal = 0.0 in (ab, ac, ad, bc, bd, cd)
    else:
        equal = _any((a == b) | (a == c) | (a == d) | (b == c) | (b == d) | (c == d))
        ab, ac, bd, cd = _abs(a - b), _abs(a - c), _abs(b - d), _abs(c - d)
    if equal:
        raise DegenerateInputError("absolute ratio needs four distinct points")
    return (ac / ab) * (bd / cd)


# ---------------------------------------------------------------------------
# Metrics


def chordal_distance(x, y):
    """Metric of the Riemann sphere pulled back to the plane. On ndarrays of
    finite points, row by row."""
    (z, _), (w, _) = _points(x, y)
    return _chordal(z, w, *(None if v is None else _chordal_norm(v) for v in (z, w)))


def absolute_ratio(a, b, c, d):
    """Moebius-invariant cross ratio (|a - c| |b - d|) / (|a - b| |c - d|),
    in the chordal metric, in which a point at infinity needs no case of its
    own; between finite points the chordal norms cancel, and it takes
    Euclidean distances. On complex ndarrays of finite points, row by row.
    """
    return _ratio(*(z for z, _ in _points(a, b, c, d)))


def rho_disk(x, y):
    """Hyperbolic distance in the unit disk; infinite if an endpoint is on the
    circle (0 between equal points there). On ndarrays, row by row."""
    (z, z_on), (w, w_on) = _points(x, y)
    if z is None or w is None:
        raise DomainError("rho_disk is undefined at infinity")
    on = z_on | w_on
    # a circle point reaches _rho as 0, not at its zero disk factor: that
    # result is not selected
    z_in, w_in = _where(on, 0.0, z), _where(on, 0.0, w)
    sz, sw = _sq_abs(z_in), _sq_abs(w_in)
    if _any((sz > 1.0) | (sw > 1.0)):
        raise DomainError("rho_disk needs points in the closed unit disk")
    return _where(on, _where(z_on & w_on & (z == w), 0.0, math.inf), _rho(z_in, w_in, sz, sw))


def rho_halfplane(x, y):
    """Hyperbolic distance in the upper half plane: sinh(rho/2) =
    |x - y| / (2 sqrt(Im x Im y)), which neither cancels between near
    points, as 1 + |x - y|^2 / (2 Im x Im y) in arcosh does, nor underflows
    for tiny imaginary parts. On ndarrays, row by row."""
    (z, _), (w, _) = _points(x, y)
    if z is None or w is None or _any((z.imag <= 0.0) | (w.imag <= 0.0)):
        raise DomainError("rho_halfplane needs points with positive imaginary part")
    return 2.0 * _asinh(_abs(z - w) / (2.0 * _sqrt(z.imag) * _sqrt(w.imag)))


# ---------------------------------------------------------------------------
# Geodesics


@dataclass(frozen=True)
class Geodesic:
    """A hyperbolic line of the disk, held as its two ends on the unit
    circle: Points typed BOUNDARY, as geodesic_through makes them."""

    endpoints: tuple[Point, Point]


def geodesic_through(x, y) -> Geodesic:
    """The hyperbolic line through two distinct points of the closed disk.

    An input on the circle is an end itself, at its stored coordinate, which
    is not snapped again: the nearer computed end is replaced by it, or for
    two such inputs, the nearer to the first input by it and the other by
    the second, so both are ends even where the computed ends are too rough
    to tell which is which."""
    (z1, on1), (z2, on2) = _points(x, y)
    # a snapped circle point may lie an ulp outside, as in rho_disk
    if z1 is None or z2 is None or (abs(z1) > 1.0 and not on1) or (abs(z2) > 1.0 and not on2):
        raise DomainError("geodesics live in the closed unit disk")
    if abs(z1 - z2) == 0.0:
        raise DegenerateInputError("coincident points define no geodesic")
    e1, e2 = _geodesic_ends(z1, z2)
    if on1 or on2:
        z, w = (z1, z2) if on1 else (z2, z1)
        first = abs(e1 - z) <= abs(e2 - z)
        if on1 and on2:
            e1, e2 = (z, w) if first else (w, z)
        else:
            e1, e2 = (z, e2) if first else (e1, z)
    ends = _new_tuple(Point, (e1.real, e1.imag, _BOUNDARY)), _new_tuple(Point, (e2.real, e2.imag, _BOUNDARY))
    return Geodesic(ends)


#: samples per bracket: each round shrinks an interior bracket 8-fold
_BRACKET_SAMPLES = np.linspace(0.0, 1.0, 17)
#: the samples next to each sample, or the end sample itself, bounding the next bracket
_BRACKET_BELOW = np.append(_BRACKET_SAMPLES[:1], _BRACKET_SAMPLES[:-1])
_BRACKET_ABOVE = np.append(_BRACKET_SAMPLES[1:], _BRACKET_SAMPLES[-1:])
#: a search stops once its bracket is at most this wide
_BRACKET_WIDTH = 1e-12
#: geodesics closer than this count as intersecting: their distance is 0.0
_INTERSECT_TOL = 1e-10
#: ends this close are one ideal point: _arc rounds an end by an ulp or so
#: (1.1e-16 seen); ends 2e-14 apart are distinct, at distance 2.0e-7
_SHARED_END_TOL = 4 * 2.0**-52


def _bracket_min(f, rows: int):
    """Per row, the minimum over [0, 1] of a unimodal f.

    f maps a (k, rows) array of parameters, column j for row j, to their
    values. Each round samples every bracket at k points and keeps the two
    neighbours of the best sample, which still enclose the minimum of a
    unimodal function. A bracket at most 1e-12 wide stays as it is, so its
    row samples the same points until every bracket is that narrow: a row's
    minimum does not depend on the other rows. The samples run down the
    columns so that per-row constants broadcast along the contiguous axis.
    """
    lo, hi = np.zeros(rows), np.ones(rows)
    while True:
        width = hi - lo
        vals = f(lo + width * _BRACKET_SAMPLES[:, None])
        open_ = width > _BRACKET_WIDTH
        if not open_.any():
            return vals.min(axis=0)
        i = np.argmin(vals, axis=0)
        lo, hi = (
            np.where(open_, lo + width * _BRACKET_BELOW[i], lo),
            np.where(open_, lo + width * _BRACKET_ABOVE[i], hi),
        )


def _ends_form(gs):
    """Each geodesic of gs as the image of a diameter under a disk
    automorphism (Beardon, The Geometry of Discrete Groups, 1983, section 7),
    built from its two ends alone: arrays (m, x0, sigma, c), entry j for gs[j].

    With e1 and e2 the ends divided by their modulus, delta = arg(e2 conj(e1))
    in (-pi, pi], sigma = sign delta, m = e1 e^{i delta/2} the middle of the
    shorter circle arc between the ends and x0 = tan(pi/4 - |delta|/4), the
    geodesic is

        w(v) = m (x0 + i sigma v)/(1 + i sigma x0 v)
             = m (x0 (1 + v^2) + i sigma c v)/(1 + x0^2 v^2),  v in (-1, 1),

    from e1 at v = -1 to e2 at v = 1, with c = 1 - x0^2; a diameter is
    x0 = 0, with no case of its own. No angle is taken: cos(delta/2) and
    |sin(delta/2)| are the half-chords a = |e1 + e2|/2 and b = |e2 - e1|/2,
    whose sum and difference cancel only exactly, so x0 = a/(1 + b) and
    c = 2b/(1 + b) keep their digits where the ends are nearly antipodal or
    nearly equal, and 1 - |w|^2 = c (1 - v^2)/(1 + x0^2 v^2) does not cancel
    near the circle. m is (e1 + e2)/(2a), or -i sigma (e2 - e1)/(2b) where
    b > a. The constants are taken one geodesic at a time, so a row does not
    depend on the others."""
    form = []
    for g in gs:
        e1, e2 = (p.z / abs(p.z) for p in g.endpoints)
        a, b = 0.5 * abs(e1 + e2), 0.5 * abs(e2 - e1)
        sigma = math.copysign(1.0, e1.real * e2.imag - e1.imag * e2.real)
        m = (e1 + e2) / (2.0 * a) if a >= b else -1j * sigma * (e2 - e1) / (2.0 * b)
        form.append((m, a / (1.0 + b), sigma, 2.0 * b / (1.0 + b)))
    m, x0, sigma, c = (np.array(col) for col in zip(*form))
    return m, x0, sigma, c


def _clamped(taus):
    """u = tau clamped off the ends of [0, 1], as a new array."""
    u = taus * (1.0 - 2.0 * _PARAM_MARGIN)
    u += _PARAM_MARGIN
    return u


def _on_geodesics(form, taus):
    """The points w(v) of the geodesics of form (see _ends_form) at a
    (k, rows) array of parameters tau in [0, 1], column j on geodesic j:
    their real and imaginary parts and 1 - |w|^2. v = 2u - 1, so that
    1 - v^2 = 4u(1 - u)."""
    m, x0, sigma, c = form
    u = _clamped(taus)
    v = 2.0 * u - 1.0
    v2 = v * v
    den = 1.0 / (1.0 + x0 * x0 * v2)
    a, b = x0 * (1.0 + v2) * den, sigma * c * v * den
    return m.real * a - m.imag * b, m.real * b + m.imag * a, c * (4.0 * u * (1.0 - u)) * den


def _distance_rows(gs1, gs2) -> np.ndarray:
    """geodesic_distance for each pair (gs1[j], gs2[j]), as one array search.

    The outer search runs over the pairs, the inner one over the pairs times
    the outer samples. Both minimise sinh^2(rho/2) = |z - w|^2 / ((1 -
    |z|^2)(1 - |w|^2)), which is monotone in rho; rho = 2 arsh(sqrt(.)) is
    taken once, of the minimum. With w(v) on the second geodesic as in
    _ends_form and z fixed, z - w = -(P v + Q)/(1 + i sigma x0 v) for
    P = i sigma (m - x0 z) and Q = m x0 - z, so

        sinh^2(rho/2) = |P v + Q|^2 / ((1 - |z|^2) c (1 - v^2))
                      = |A u + B|^2 / (4 (1 - |z|^2) c u (1 - u)),

    with v = 2u - 1, A = 2P and B = Q - P. A and B are taken once per outer
    sample, and the inner search minimises |A u + B|^2 / (u (1 - u)) in real
    arithmetic, with no complex division; the factor 1/(4 (1 - |z|^2) c),
    the same along an inner row, is applied to the row's minimum.
    """
    form1 = _ends_form(gs1)
    m, x0, sigma, c = _ends_form(gs2)
    mr, mi = m.real, m.imag

    def to_g2(t1):
        zr, zi, z_factor = _on_geodesics(form1, t1)
        # one inner row per outer sample: A and B in real and imaginary parts
        pr, pi = (sigma * (x0 * zi - mi)).ravel(), (sigma * (mr - x0 * zr)).ravel()
        br, bi = (mr * x0 - zr).ravel() - pr, (mi * x0 - zi).ravel() - pi
        ar, ai = 2.0 * pr, 2.0 * pi

        def scaled_sinh2_half_rho(t2):
            # in place where it can: these are the search's largest arrays
            u = _clamped(t2)
            re, im, u_u = ar * u, ai * u, 1.0 - u
            re += br
            re *= re
            im += bi
            im *= im
            re += im
            u_u *= u
            re /= u_u
            return re

        least = _bracket_min(scaled_sinh2_half_rho, t1.size).reshape(t1.shape)
        return least / (4.0 * z_factor * c)

    rho = 2.0 * np.arcsinh(np.sqrt(_bracket_min(to_g2, len(gs1))))
    ends1, ends2 = (np.array([[p.z for p in g.endpoints] for g in gs]) for gs in (gs1, gs2))
    shared = (abs(ends1[:, :, None] - ends2[:, None, :]) <= _SHARED_END_TOL).any(axis=(1, 2))
    return np.where((rho < _INTERSECT_TOL) | shared, 0.0, rho)


def geodesic_distance(g1, g2):
    """Infimum of rho over point pairs on two geodesics; on two equal-length
    sequences of geodesics, an ndarray with the distance of each pair.

    A nested bracket search over the geodesics' parametrizations:
    the outer one over the points of g1, the inner one, for each of those,
    over the points of g2. Both searches converge because hyperbolic
    distance is convex along geodesics (Bridson and Haefliger, Metric Spaces
    of Non-positive Curvature, 1999, II.2.2 and II.2.5), so the distance from
    a fixed point to the points of g2, and the distance from a point of g1 to
    g2, are unimodal along each geodesic. Each geodesic is parametrized
    from its two ends as the image of the segment (-1, 1) under a Moebius
    map (see _ends_form), which is monotone along it, and a monotone change
    of parameter keeps a function unimodal; each search needs no more than
    that. Returns 0.0 for intersecting geodesics and for geodesics that share
    an ideal endpoint, that is, whose ends lie within 4 ulp. A pair's
    distance is the same, bit for bit, alone or in a sequence.
    """
    if isinstance(g1, Geodesic) and isinstance(g2, Geodesic):
        return float(_distance_rows([g1], [g2])[0])
    if isinstance(g1, Geodesic) or isinstance(g2, Geodesic):
        raise DomainError("geodesic_distance takes two geodesics or two sequences of them")
    gs1, gs2 = list(g1), list(g2)
    if len(gs1) != len(gs2):
        raise DomainError(f"geodesic_distance needs sequences of equal length, not {len(gs1)} and {len(gs2)}")
    if not gs1:
        return np.zeros(0)
    return _distance_rows(gs1, gs2)


def rho_via_crossratio(x, y):
    """Distance as log of the absolute ratio with the geodesic endpoints. On
    ndarrays, row by row."""
    z, w = _interior("rho_via_crossratio", x, y)
    if _any(z == w):
        raise DegenerateInputError("coincident points define no geodesic")
    e1, e2 = _geodesic_ends(z, w)
    # label so that e_x, x, y, e_y occur in order along the geodesic
    swap = _sq_abs(e1 - z) > _sq_abs(e1 - w)
    return _log(_ratio(_where(swap, e2, e1), z, w, _where(swap, e1, e2)))


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MoebiusMap:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        """DegenerateInputError for a determinant that is 0 relative to the
        size of its terms, or not a number, so a map and its multiples by
        any factor are accepted or refused alike. The map computes with its coefficients
        scaled by a power of two to a largest modulus in [1, 2): the images
        are the same, and c z + d underflows to 0 at no scale of the map."""
        ad, bc = self.a * self.d, self.b * self.c
        if not abs(ad - bc) > _DET_TOL * (abs(ad) + abs(bc)):
            raise DegenerateInputError("Moebius map has a (near-)zero or undefined determinant")
        big = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        unit = 1.0 if 1.0 <= big < 2.0 else math.ldexp(1.0, 1 - math.frexp(big)[1])
        object.__setattr__(self, "_unit", (self.a * unit, self.b * unit, self.c * unit, self.d * unit))

    def __call__(self, z):
        """The image Point: the point at infinity where c z + d is 0 or the
        image overflows. On a complex ndarray, the snapped image of each row,
        and DomainError if a row's image is not finite."""
        z, _ = _points(z)[0]
        a, b, c, d = self._unit
        if isinstance(z, _ndarray):
            if not (c * z + d == 0).any():
                with np.errstate(over="ignore", invalid="ignore"):
                    w = _moebius(a, b, c, d, z)
                if np.isfinite(w).all():
                    return _snap(w)[0]
            raise DomainError("a row maps to infinity, which has no finite coordinate")
        try:
            # c z + d is taken once, in _moebius: Python's division refuses
            # exactly a zero divisor, so the pole is decided on c z + d == 0
            w = complex(a / c) if z is None else _moebius(a, b, c, d, z)
        except ZeroDivisionError:
            return Point.infinity()
        return Point.infinity() if cmath.isinf(w) else _point(w)

    @staticmethod
    def cayley() -> "MoebiusMap":
        """z -> i(1+z)/(1-z), mapping the disk onto the upper half plane."""
        return MoebiusMap(1j, 1j, -1, 1)

    @staticmethod
    def disk_automorphism(a: complex, phase: float = 0.0) -> "MoebiusMap":
        """z -> e^{i phase} (z - a)/(1 - conj(a) z) for |a| < 1."""
        if abs(a) >= 1.0:
            raise DomainError("disk automorphism needs |a| < 1")
        e = cmath.exp(1j * phase)
        return MoebiusMap(e, -e * a, -a.conjugate(), 1.0)


# ---------------------------------------------------------------------------
# Midpoints


def hyperbolic_midpoint(x, y):
    """Point p on the segment from x to y with rho(x,p) = rho(p,y). On
    ndarrays, the complex midpoint of each row."""
    return _snapped(_midpoint(*_interior("hyperbolic midpoint", x, y)))
