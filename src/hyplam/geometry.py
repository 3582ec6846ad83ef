"""Hyperbolic geometry of the unit disk: metrics, geodesics, Moebius maps.

Points live in the closed unit disk (or the upper half plane after a Cayley
transform). Geodesics are diameters or arcs of circles orthogonal to the
unit circle. A numerical geodesic-to-geodesic distance oracle is provided;
it deliberately works by grid search plus golden-section refinement so it
stays independent of any closed-form distance it is used to check.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError
from .optimize import golden_min

#: 64 ulp: a wider window snaps interior points near the circle, and their rho to inf
_BOUNDARY_SNAP = 64 * 2.0**-52
_COLLINEAR_TOL = 1e-12
_PARAM_MARGIN = 1e-9


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
        z = complex(value)
        r = abs(z)
        if abs(r - 1.0) <= _BOUNDARY_SNAP:
            z /= r
            return Point(z.real, z.imag, PointKind.BOUNDARY)
        return Point(z.real, z.imag, PointKind.INTERIOR)

    @staticmethod
    def infinity() -> "Point":
        return Point(0.0, 0.0, PointKind.INFINITY)


# ---------------------------------------------------------------------------
# Metrics


def chordal_distance(x, y) -> float:
    """Metric of the Riemann sphere pulled back to the plane."""
    px, py = Point.of(x), Point.of(y)
    if px.is_infinity and py.is_infinity:
        return 0.0
    if px.is_infinity:
        return 1.0 / math.sqrt(1.0 + abs(py.z) ** 2)
    if py.is_infinity:
        return 1.0 / math.sqrt(1.0 + abs(px.z) ** 2)
    return abs(px.z - py.z) / (
        math.sqrt(1.0 + abs(px.z) ** 2) * math.sqrt(1.0 + abs(py.z) ** 2)
    )


def absolute_ratio(a, b, c, d) -> float:
    """Moebius-invariant cross ratio built from chordal distances.

    Always evaluated through the chordal metric so that points at infinity
    need no special casing.
    """
    pts = [Point.of(p) for p in (a, b, c, d)]
    dists = [chordal_distance(p, q) for p, q in itertools.combinations(pts, 2)]
    if 0.0 in dists:
        raise DegenerateInputError("absolute ratio needs four distinct points")
    ab, ac, _, _, bd, cd = dists
    return (ac * bd) / (ab * cd)


def rho_disk(x, y) -> float:
    """Hyperbolic distance in the unit disk; infinite if an endpoint is on the circle."""
    px, py = Point.of(x), Point.of(y)
    if px.is_infinity or py.is_infinity:
        raise DomainError("rho_disk is undefined at infinity")
    if px.kind is PointKind.BOUNDARY or py.kind is PointKind.BOUNDARY:
        if px == py:
            return 0.0
        return math.inf
    if abs(px.z) > 1.0 or abs(py.z) > 1.0:
        raise DomainError("rho_disk needs points in the closed unit disk")
    return float(_rho(px.z, py.z))


def _rho(z, w):
    """2 arsh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))) for interior points;
    complex scalars or numpy arrays."""
    az, aw = abs(z), abs(w)
    return 2.0 * np.arcsinh(abs(z - w) / np.sqrt((1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw)))


def rho_halfplane(x, y) -> float:
    """Hyperbolic distance in the upper half plane (cosh formula)."""
    px, py = Point.of(x), Point.of(y)
    if px.is_infinity or py.is_infinity or px.im <= 0.0 or py.im <= 0.0:
        raise DomainError("rho_halfplane needs points with positive imaginary part")
    arg = 1.0 + abs(px.z - py.z) ** 2 / (2.0 * px.im * py.im)
    return math.acosh(arg)


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
    cross = z1.real * z2.imag - z1.imag * z2.real
    if abs(cross) < _COLLINEAR_TOL:
        # through the origin: a Euclidean diameter
        ref = z1 if abs(z1) >= abs(z2) else z2
        direction = math.atan2(ref.imag, ref.real) % math.pi
        e = cmath.exp(1j * direction)
        return Geodesic(
            kind=GeodesicKind.DIAMETER,
            direction=direction,
            endpoints=(Point.of(e), Point.of(-e)),
        )
    # circle orthogonal to the unit circle through z1, z2
    center = 1j * (z2 * (1.0 + abs(z1) ** 2) - z1 * (1.0 + abs(z2) ** 2)) / (2.0 * (-cross))
    radius = (abs(z1 - z2) * abs(z1 * abs(z2) ** 2 - z2)) / (2.0 * abs(z2) * abs(cross))
    e1 = (1.0 + 1j * radius) / center.conjugate()
    e2 = (1.0 - 1j * radius) / center.conjugate()
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
    u = _PARAM_MARGIN + (1.0 - 2.0 * _PARAM_MARGIN) * np.asarray(taus, dtype=float)
    if g.kind is GeodesicKind.DIAMETER:
        s = -1.0 + 2.0 * u
        return s * cmath.exp(1j * g.direction)
    w1, delta = _arc_angles(g)
    return g.center + g.radius * np.exp(1j * (w1 + delta * u))


def geodesic_distance(g1: Geodesic, g2: Geodesic, tol: float = 1e-10) -> float:
    """Infimum of rho over point pairs on two geodesics.

    Coarse 256x256 grid over the arc parametrizations, then alternating
    one-dimensional golden-section refinement. Returns 0.0 for
    intersecting geodesics.
    """
    n = 256
    taus = np.linspace(0.0, 1.0, n)
    p1 = geodesic_points(g1, taus)
    p2 = geodesic_points(g2, taus)
    dm = _rho(p1[:, None], p2[None, :])
    i, j = np.unravel_index(np.argmin(dm), dm.shape)
    best = float(dm[i, j])
    if best < tol:
        return 0.0
    t1, t2 = float(taus[i]), float(taus[j])

    def d_of(a, b):
        return float(_rho(complex(geodesic_points(g1, a)), complex(geodesic_points(g2, b))))

    prev = (t1, t2)
    for _ in range(200):
        t1, _ = golden_min(lambda a: d_of(a, t2), 0.0, 1.0, tol=1e-13)
        t2, val = golden_min(lambda b: d_of(t1, b), 0.0, 1.0, tol=1e-13)
        # extrapolate along the last combined step; cures the slow zigzag
        # of coordinate descent when the valley runs diagonally
        dt1, dt2 = t1 - prev[0], t2 - prev[1]
        if abs(dt1) > 1e-15 or abs(dt2) > 1e-15:

            def along(s):
                a = min(max(t1 + s * dt1, 0.0), 1.0)
                b = min(max(t2 + s * dt2, 0.0), 1.0)
                return d_of(a, b)

            s_star, v_star = golden_min(along, 0.0, 64.0, tol=1e-12)
            if v_star < val:
                t1 = min(max(t1 + s_star * dt1, 0.0), 1.0)
                t2 = min(max(t2 + s_star * dt2, 0.0), 1.0)
                val = v_star
        prev = (t1, t2)
        if best - val < 0.1 * tol:
            best = min(best, val)
            break
        best = val
    else:
        raise ConvergenceError("geodesic distance refinement hit iteration cap")
    if best < tol:
        return 0.0
    return best


def rho_via_crossratio(x, y) -> float:
    """Distance as log of the absolute ratio with the geodesic endpoints."""
    px, py = Point.of(x), Point.of(y)
    if px.kind is not PointKind.INTERIOR or py.kind is not PointKind.INTERIOR:
        raise DomainError("rho_via_crossratio needs interior points")
    g = geodesic_through(px, py)
    e1, e2 = g.endpoints
    # label so that e_x, x, y, e_y occur in order along the geodesic
    if abs(e1.z - px.z) <= abs(e1.z - py.z):
        x_star, y_star = e1, e2
    else:
        x_star, y_star = e2, e1
    return math.log(absolute_ratio(x_star, px, py, y_star))


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

    def __call__(self, z) -> Point:
        return apply_moebius(self, z)

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


def apply_moebius(m: MoebiusMap, z) -> Point:
    p = Point.of(z)
    if p.is_infinity:
        if abs(m.c) == 0.0:
            return Point.infinity()
        return Point.of(m.a / m.c)
    denom = m.c * p.z + m.d
    if abs(denom) < 1e-300:
        return Point.infinity()
    return Point.of((m.a * p.z + m.b) / denom)


# ---------------------------------------------------------------------------
# Midpoints


def hyperbolic_midpoint(x, y) -> Point:
    """Point p on the segment from x to y with rho(x,p) = rho(p,y)."""
    px, py = Point.of(x), Point.of(y)
    if px.kind is not PointKind.INTERIOR or py.kind is not PointKind.INTERIOR:
        raise DomainError("hyperbolic midpoint needs interior points")
    if px.z == py.z:
        return px
    to_zero = MoebiusMap.disk_automorphism(px.z)
    w = to_zero(py.z).z
    # midpoint of [0, w]: halve the distance 2 arth|w|
    aw = abs(w)
    t = aw / (1.0 + math.sqrt(1.0 - aw * aw))
    mid0 = t * w / aw
    return to_zero.inverse()(mid0)
