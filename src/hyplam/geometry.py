"""Hyperbolic geometry of the unit disk: metrics, geodesics, Moebius maps.

Points live in the closed unit disk (or the upper half plane after a Cayley
transform). Geodesics are diameters or arcs of circles orthogonal to the
unit circle. A numerical geodesic-to-geodesic distance oracle is provided;
it deliberately works by a nested bracket search over sampled points so it
stays independent of any closed-form distance it is used to check.

One numeric core serves both scalar and array callers: the private kernels
below (the boundary snap, the chordal distance, rho, Moebius application,
the arc through two points and the midpoint) take complex scalars or complex
ndarrays. `Point`, `Geodesic` and `MoebiusMap` are the typed scalar API;
`rho_disk`, `rho_halfplane`, `absolute_ratio`, `rho_via_crossratio`,
`hyperbolic_midpoint` and `MoebiusMap.__call__` also take complex ndarrays
of finite points and return ndarrays, row by row under the scalar rules.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

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


class PointKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    INFINITY = "infinity"


@dataclass(frozen=True)
class Point:
    re: float
    im: float
    kind: PointKind

    @property
    def z(self) -> complex:
        if self.kind is PointKind.INFINITY:
            raise DomainError("point at infinity has no finite coordinate")
        return complex(self.re, self.im)

    @property
    def is_infinity(self) -> bool:
        return self.kind is PointKind.INFINITY

    @staticmethod
    def of(value) -> "Point":
        """Coerce a complex/float/Point; snaps near-unit moduli to the circle."""
        if isinstance(value, Point):
            return value
        z, on = _snap(complex(value))
        return Point(z.real, z.imag, PointKind.BOUNDARY if on else PointKind.INTERIOR)

    @staticmethod
    def infinity() -> "Point":
        return Point(0.0, 0.0, PointKind.INFINITY)


# ---------------------------------------------------------------------------
# Kernels: complex scalars or complex ndarrays of finite points


def _is_rows(*values) -> bool:
    """True if any argument is an ndarray: the call then works row by row."""
    for v in values:
        if isinstance(v, _ndarray):
            return True
    return False


def _sqrt(x):
    """math.sqrt on a scalar, np.sqrt on an array: a scalar stays a Python float."""
    return np.sqrt(x) if isinstance(x, _ndarray) else math.sqrt(x)


def _asinh(x):
    """math.asinh on a scalar, np.arcsinh on an array: a scalar stays a Python float."""
    return np.arcsinh(x) if isinstance(x, _ndarray) else math.asinh(x)


def _abs(z):
    """|z| by hypot, on an array too, as Python's abs computes it: numpy's
    complex abs rounds differently, and rho amplifies that near the circle."""
    return np.hypot(z.real, z.imag) if isinstance(z, _ndarray) else abs(z)


def _snap(z):
    """z with every point within 64 ulp of the unit circle moved onto it, and
    where that happened (a bool for a scalar, a mask for an array)."""
    r = _abs(z)
    on = abs(r - 1.0) <= _BOUNDARY_SNAP
    if isinstance(on, _ndarray):
        return np.where(on, z / np.where(on, r, 1.0), z), on
    return (z / r if on else z), on


def _chordal_norm(z):
    """sqrt(1 + |z|^2): the chordal distance of z and w is |z - w| / (n(z) n(w)),
    and that of z and infinity 1 / n(z)."""
    return _sqrt(1.0 + _abs(z) ** 2)


def _chordal(z, w, nz, nw):
    """Chordal distance of two points given with their _chordal_norm; None
    stands for the point at infinity (scalars only)."""
    if z is None:
        return 0.0 if w is None else 1.0 / nw
    if w is None:
        return 1.0 / nz
    return _abs(z - w) / (nz * nw)


def _disk_factor(z, w):
    """sqrt((1 - |z|^2)(1 - |w|^2)), written so as not to cancel near the circle."""
    az, aw = _abs(z), _abs(w)
    return _sqrt((1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw))


def _rho(z, w):
    """2 arsh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) for interior points."""
    return 2.0 * _asinh(_abs(z - w) / _disk_factor(z, w))


def _moebius(a, b, c, d, z):
    """(a z + b) / (c z + d); the coefficients may be per-row arrays."""
    return (a * z + b) / (c * z + d)


def _through_origin(z1, z2):
    """Whether the geodesic through distinct z1 and z2 is a diameter (a bool
    for scalars, a mask for arrays).

    |Im(conj(z1) z2)| / max(|z1|, |z2|) is how far the nearer point lies off
    the diameter through the farther one; it is compared with their distance,
    so the test does not depend on the scale: two points near 0 are judged by
    the direction of the line through them, and a point next to 0 lies on a
    diameter with any other.
    """
    cross = z1.real * z2.imag - z1.imag * z2.real
    far = np.maximum(_abs(z1), _abs(z2)) if isinstance(cross, _ndarray) else max(abs(z1), abs(z2))
    return abs(cross) <= _COLLINEAR_TOL * far * _abs(z1 - z2)


def _arc(z1, z2):
    """Center, radius and the two (unsnapped) circle endpoints of the
    geodesic arc through two points not collinear with 0: the circle through
    them orthogonal to the unit circle."""
    cross = z1.real * z2.imag - z1.imag * z2.real
    center = 1j * (z2 * (1.0 + _abs(z1) ** 2) - z1 * (1.0 + _abs(z2) ** 2)) / (2.0 * (-cross))
    # the ratios first: a product of |z2| and cross underflows for points near 0
    radius = (_abs(z1 - z2) / abs(cross)) * (_abs(z1 * _abs(z2) ** 2 - z2) / (2.0 * _abs(z2)))
    conj = center.conjugate()
    return center, radius, (1.0 + 1j * radius) / conj, (1.0 - 1j * radius) / conj


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
    u_prime = _disk_factor(z, w) / _abs(den)
    return _moebius(1.0, z, z.conjugate(), 1.0, u / (1.0 + u_prime))


def _rows(value):
    """A complex ndarray, snapped like Point.of, and where it snapped."""
    return _snap(np.asarray(value, dtype=complex))


def _interior_rows(what: str, *values) -> list:
    """The values as snapped complex ndarrays; DomainError unless every row
    is strictly inside the unit disk."""
    out = []
    for value in values:
        z, on = _rows(value)
        if (on | (abs(z) > 1.0)).any():
            raise DomainError(f"{what} needs interior points")
        out.append(z)
    return out


def _interior_points(what: str, *values) -> list["Point"]:
    """As _interior_rows, for scalars: the values as interior Points."""
    pts = [Point.of(v) for v in values]
    if any(p.kind is not PointKind.INTERIOR or abs(p.z) > 1.0 for p in pts):
        raise DomainError(f"{what} needs interior points")
    return pts


# ---------------------------------------------------------------------------
# Metrics


def chordal_distance(x, y) -> float:
    """Metric of the Riemann sphere pulled back to the plane."""
    zs = [None if p.is_infinity else p.z for p in (Point.of(x), Point.of(y))]
    return _chordal(*zs, *(None if z is None else _chordal_norm(z) for z in zs))


def absolute_ratio(a, b, c, d):
    """Moebius-invariant cross ratio built from chordal distances.

    Always evaluated through the chordal metric so that points at infinity
    need no special casing. On complex ndarrays of finite points, row by row.
    """
    rows = _is_rows(a, b, c, d)
    if rows:
        zs = [_rows(p)[0] for p in (a, b, c, d)]
    else:
        zs = [None if p.is_infinity else p.z for p in map(Point.of, (a, b, c, d))]
    norms = [None if z is None else _chordal_norm(z) for z in zs]
    dists = [_chordal(zs[i], zs[j], norms[i], norms[j]) for i, j in _PAIRS]
    coincident = any((q == 0.0).any() for q in dists) if rows else 0.0 in dists
    if coincident:
        raise DegenerateInputError("absolute ratio needs four distinct points")
    ab, ac, _, _, bd, cd = dists
    return (ac * bd) / (ab * cd)


def rho_disk(x, y):
    """Hyperbolic distance in the unit disk; infinite if an endpoint is on the
    circle (0 between equal points there). On ndarrays, row by row."""
    if _is_rows(x, y):
        (z, z_on), (w, w_on) = _rows(x), _rows(y)
        on = z_on | w_on
        if (~on & ((abs(z) > 1.0) | (abs(w) > 1.0))).any():
            raise DomainError("rho_disk needs points in the closed unit disk")
        inner = _rho(np.where(on, 0.0, z), np.where(on, 0.0, w))
        return np.where(on, np.where(z_on & w_on & (z == w), 0.0, math.inf), inner)
    px, py = Point.of(x), Point.of(y)
    if px.is_infinity or py.is_infinity:
        raise DomainError("rho_disk is undefined at infinity")
    if px.kind is PointKind.BOUNDARY or py.kind is PointKind.BOUNDARY:
        if px == py:
            return 0.0
        return math.inf
    if abs(px.z) > 1.0 or abs(py.z) > 1.0:
        raise DomainError("rho_disk needs points in the closed unit disk")
    return _rho(px.z, py.z)


def rho_halfplane(x, y):
    """Hyperbolic distance in the upper half plane: sinh(rho/2) =
    |x - y| / (2 sqrt(Im x Im y)), which neither cancels between near
    points, as 1 + |x - y|^2 / (2 Im x Im y) in arcosh does, nor underflows
    for tiny imaginary parts. On ndarrays, row by row."""
    if _is_rows(x, y):
        z, w = _rows(x)[0], _rows(y)[0]
        if ((z.imag <= 0.0) | (w.imag <= 0.0)).any():
            raise DomainError("rho_halfplane needs points with positive imaginary part")
    else:
        px, py = Point.of(x), Point.of(y)
        if px.is_infinity or py.is_infinity or px.im <= 0.0 or py.im <= 0.0:
            raise DomainError("rho_halfplane needs points with positive imaginary part")
        z, w = px.z, py.z
    return 2.0 * _asinh(_abs(z - w) / (2.0 * _sqrt(z.imag) * _sqrt(w.imag)))


# ---------------------------------------------------------------------------
# Geodesics


class GeodesicKind(Enum):
    DIAMETER = "diameter"
    ARC = "arc"


@dataclass(frozen=True)
class Geodesic:
    kind: GeodesicKind
    endpoints: tuple[Point, Point]
    direction: float = 0.0  # diameter only, angle in [0, pi)
    center: complex = 0j  # arc only
    radius: float = 0.0  # arc only

    def carrier_contains(self, z: complex, tol: float = 1e-10) -> bool:
        if self.kind is GeodesicKind.DIAMETER:
            u = cmath.exp(1j * self.direction)
            return abs((z * u.conjugate()).imag) <= tol
        return abs(abs(z - self.center) - self.radius) <= tol


def geodesic_through(x, y) -> Geodesic:
    """The hyperbolic line through two distinct points of the closed disk."""
    px, py = Point.of(x), Point.of(y)
    if px.is_infinity or py.is_infinity:
        raise DomainError("geodesics live in the closed unit disk")
    z1, z2 = px.z, py.z
    if abs(z1 - z2) == 0.0:
        raise DegenerateInputError("coincident points define no geodesic")
    if _through_origin(z1, z2):
        # a Euclidean diameter
        ref = z1 if abs(z1) >= abs(z2) else z2
        direction = math.atan2(ref.imag, ref.real) % math.pi
        e = cmath.exp(1j * direction)
        return Geodesic(
            kind=GeodesicKind.DIAMETER,
            direction=direction,
            endpoints=(Point.of(e), Point.of(-e)),
        )
    center, radius, e1, e2 = _arc(z1, z2)
    return Geodesic(
        kind=GeodesicKind.ARC,
        center=center,
        radius=radius,
        endpoints=(Point.of(e1), Point.of(e2)),
    )


def _arc_angles(g: Geodesic) -> tuple[float, float]:
    """Start angle and signed sweep of the in-disk arc around its center."""
    w1 = cmath.phase(g.endpoints[0].z - g.center)
    w2 = cmath.phase(g.endpoints[1].z - g.center)
    delta = math.atan2(math.sin(w2 - w1), math.cos(w2 - w1))
    mid = g.center + g.radius * cmath.exp(1j * (w1 + 0.5 * delta))
    if abs(mid) > 1.0:
        delta -= math.copysign(2.0 * math.pi, delta)
    return w1, delta


def geodesic_points(g: Geodesic, taus):
    """Open-arc parametrization by tau in [0, 1], clamped off the boundary."""
    taus = np.asarray(taus, dtype=float)
    return _parametrization([g])(taus.reshape(1, -1)).reshape(taus.shape)


#: samples per bracket: each round shrinks an interior bracket 8-fold
_BRACKET_SAMPLES = np.linspace(0.0, 1.0, 17)
#: a search stops once its bracket is at most this wide
_BRACKET_WIDTH = 1e-12
#: geodesics closer than this count as intersecting: their distance is 0.0
_INTERSECT_TOL = 1e-10
#: ends this close are one ideal point: each was snapped from within _BOUNDARY_SNAP
_SHARED_END_TOL = 2.0 * _BOUNDARY_SNAP


def _bracket_min(f, rows: int):
    """Per row, the minimum over [0, 1] of a unimodal f.

    f maps a (rows, k) array of parameters to their values. Each round
    samples every bracket at k points and keeps the two neighbours of the
    best sample, which still enclose the minimum of a unimodal function. A
    bracket at most 1e-12 wide stays as it is, so its row samples the same
    points until every bracket is that narrow: a row's minimum does not
    depend on the other rows.
    """
    lo, hi = np.zeros(rows), np.ones(rows)
    last = len(_BRACKET_SAMPLES) - 1
    while True:
        width = hi - lo
        vals = f(lo[:, None] + width[:, None] * _BRACKET_SAMPLES)
        open_ = width > _BRACKET_WIDTH
        if not open_.any():
            return vals.min(axis=1)
        i = np.argmin(vals, axis=1)
        lo, hi = (
            np.where(open_, lo + width * _BRACKET_SAMPLES[np.maximum(i - 1, 0)], lo),
            np.where(open_, lo + width * _BRACKET_SAMPLES[np.minimum(i + 1, last)], hi),
        )


def _parametrization(gs):
    """The parametrization of geodesic_points for a (rows, k) array of
    parameters, row j on gs[j]: diameters e^{i phi}(2u - 1) and arcs
    c + r e^{i(w1 + delta u)}, where u clamps the parameter off the boundary
    and w1, delta are the arc's start angle and signed sweep."""
    arc = np.array([g.kind is GeodesicKind.ARC for g in gs], dtype=bool)
    dia = ~arc
    arcs = [g for g in gs if g.kind is GeodesicKind.ARC]
    angles = [_arc_angles(g) for g in arcs]

    def column(values, dtype):
        return np.array(list(values), dtype=dtype).reshape(-1, 1)

    e_phi = column((cmath.exp(1j * g.direction) for g in gs if g.kind is GeodesicKind.DIAMETER), complex)
    center, radius = column((g.center for g in arcs), complex), column((g.radius for g in arcs), float)
    w1, delta = column((w for w, _ in angles), float), column((d for _, d in angles), float)

    def points(taus):
        u = _PARAM_MARGIN + (1.0 - 2.0 * _PARAM_MARGIN) * taus
        z = np.empty(u.shape, dtype=complex)
        z[dia] = (-1.0 + 2.0 * u[dia]) * e_phi
        z[arc] = center + radius * np.exp(1j * (w1 + delta * u[arc]))
        return z

    return points


def _sq_abs(z):
    """|z|^2 of a complex array, as re^2 + im^2."""
    return z.real * z.real + z.imag * z.imag


def _distance_rows(gs1, gs2) -> np.ndarray:
    """geodesic_distance for each pair (gs1[j], gs2[j]), as one array search.

    The outer search runs over the pairs, the inner one over the pairs times
    the outer samples. Both minimise sinh^2(rho/2) = |z - w|^2 / ((1 -
    |z|^2)(1 - |w|^2)), which is monotone in rho; rho = 2 arsh(sqrt(.)) is
    taken once, of the minimum.
    """
    on_g1, on_g2 = _parametrization(gs1), _parametrization(gs2)

    def to_g2(t1):
        z = on_g1(t1).reshape(-1, 1)
        z_factor = 1.0 / (1.0 - _sq_abs(z))

        def sinh2_half_rho(t2):
            # the rows of a pair are consecutive: lay them out in one row each
            w = on_g2(t2.reshape(len(gs2), -1)).reshape(t2.shape)
            return _sq_abs(z - w) * z_factor / (1.0 - _sq_abs(w))

        return _bracket_min(sinh2_half_rho, len(z)).reshape(t1.shape)

    rho = 2.0 * np.arcsinh(np.sqrt(_bracket_min(to_g2, len(gs1))))
    ends1, ends2 = (np.array([[p.z for p in g.endpoints] for g in gs]) for gs in (gs1, gs2))
    shared = (abs(ends1[:, :, None] - ends2[:, None, :]) <= _SHARED_END_TOL).any(axis=(1, 2))
    return np.where((rho < _INTERSECT_TOL) | shared, 0.0, rho)


def geodesic_distance(g1, g2):
    """Infimum of rho over point pairs on two geodesics; on two equal-length
    sequences of geodesics, an ndarray with the distance of each pair.

    A nested bracket search over the parametrizations of geodesic_points:
    the outer one over the points of g1, the inner one, for each of those,
    over the points of g2. Both searches converge because hyperbolic
    distance is convex along geodesics (Bridson and Haefliger, Metric Spaces
    of Non-positive Curvature, 1999, II.2.2 and II.2.5), so the distance from
    a fixed point to the points of g2, and the distance from a point of g1 to
    g2, are unimodal in the parameter. Returns 0.0 for intersecting
    geodesics or geodesics that share an ideal endpoint. A pair's distance is
    the same, bit for bit, alone or in a sequence.
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


def _geodesic_ends(z1, z2):
    """The snapped circle endpoints of the geodesics through rows of distinct
    points, as geodesic_through finds them."""
    arc = ~_through_origin(z1, z2)
    e1, e2 = np.empty_like(z1), np.empty_like(z2)
    _, _, a1, a2 = _arc(z1[arc], z2[arc])
    e1[arc], e2[arc] = _snap(a1)[0], _snap(a2)[0]
    for i in np.flatnonzero(~arc):  # diameters: rare, so one scalar call each
        e1[i], e2[i] = (p.z for p in geodesic_through(z1[i], z2[i]).endpoints)
    return e1, e2


def rho_via_crossratio(x, y):
    """Distance as log of the absolute ratio with the geodesic endpoints. On
    ndarrays, row by row."""
    if _is_rows(x, y):
        z, w = _interior_rows("rho_via_crossratio", x, y)
        z, w = np.broadcast_arrays(z, w)
        if (z == w).any():
            raise DegenerateInputError("coincident points define no geodesic")
        e1, e2 = _geodesic_ends(z, w)
        # label so that e_x, x, y, e_y occur in order along the geodesic
        swap = ~(_abs(e1 - z) <= _abs(e1 - w))
        return np.log(absolute_ratio(np.where(swap, e2, e1), z, w, np.where(swap, e1, e2)))
    px, py = _interior_points("rho_via_crossratio", x, y)
    e1, e2 = geodesic_through(px, py).endpoints
    if not abs(e1.z - px.z) <= abs(e1.z - py.z):
        e1, e2 = e2, e1
    return math.log(absolute_ratio(e1, px, py, e2))


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MoebiusMap:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) <= 1e-14:
            raise DegenerateInputError("Moebius map has (near-)zero determinant")

    def __call__(self, z):
        """The image Point; on a complex ndarray, the snapped image of each
        row, and DomainError if a row maps to infinity."""
        if isinstance(z, _ndarray):
            z = _rows(z)[0]
            if (abs(self.c * z + self.d) < 1e-300).any():
                raise DomainError("a row maps to infinity, which has no finite coordinate")
            return _snap(_moebius(self.a, self.b, self.c, self.d, z))[0]
        p = Point.of(z)
        if p.is_infinity:
            if abs(self.c) == 0.0:
                return Point.infinity()
            return Point.of(self.a / self.c)
        if abs(self.c * p.z + self.d) < 1e-300:
            return Point.infinity()
        return Point.of(_moebius(self.a, self.b, self.c, self.d, p.z))

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1)

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
    if _is_rows(x, y):
        z, w = _interior_rows("hyperbolic midpoint", x, y)
        return _snap(_midpoint(z, w))[0]
    px, py = _interior_points("hyperbolic midpoint", x, y)
    return Point.of(_midpoint(px.z, py.z))
