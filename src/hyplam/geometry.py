"""Hyperbolic geometry of the unit disk: metrics, geodesics, Moebius maps.

Points live in the closed unit disk (or the upper half plane after a Cayley
transform). Geodesics are diameters or arcs of circles orthogonal to the
unit circle. A numerical geodesic-to-geodesic distance oracle is provided;
it deliberately works by a nested bracket search over sampled points so it
stays independent of any closed-form distance it is used to check.

Each function has one body over scalars and rows. An argument may be a
complex number, a `Point` or a complex ndarray of finite points: `_points`
turns each into its coordinate, snapped onto the circle within 64 ulp, and
whether it lies there, and builds no `Point` for a number. `_where` selects
row by row on a mask and by a conditional on a bool. So `rho_disk`,
`rho_halfplane`, `absolute_ratio`, `chordal_distance`, `rho_via_crossratio`,
`hyperbolic_midpoint` and `MoebiusMap.__call__` take complex ndarrays as
well as scalars and return ndarrays, each row under the scalar rules.
`Point`, `Geodesic` and `MoebiusMap` are the typed scalar API: a scalar
midpoint or Moebius image is a `Point`, and `geodesic_through` takes two
scalar points.
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
    complex abs rounds differently, and rho amplifies that near the circle."""
    return np.hypot(z.real, z.imag) if isinstance(z, _ndarray) else abs(z)


def _snap(z):
    """z with every point within 64 ulp of the unit circle moved onto it, and
    where that happened (a bool for a scalar, a mask for an array)."""
    r = _abs(z)
    on = abs(r - 1.0) <= _BOUNDARY_SNAP
    return _where(on, z / _where(on, r, 1.0), z), on


def _points(*values) -> list:
    """Each value as a pair (z, on): its coordinate, snapped as by _snap, and
    whether it lies on the circle. A complex and a bool for a number or a
    Point (already snapped), a complex ndarray and a mask for an ndarray,
    and (None, False) for the point at infinity."""
    out = []
    for v in values:
        if isinstance(v, Point):
            out.append((None, False) if v.is_infinity else (complex(v.re, v.im), v.kind is PointKind.BOUNDARY))
        elif isinstance(v, _ndarray):
            out.append(_snap(np.asarray(v, dtype=complex)))
        else:
            out.append(_snap(complex(v)))
    return out


def _interior(what: str, *values) -> list:
    """The values' snapped coordinates; DomainError unless each point, or
    every row, lies strictly inside the unit disk."""
    zs = []
    for z, on in _points(*values):
        if z is None or _any(on | (abs(z) > 1.0)):
            raise DomainError(f"{what} needs interior points")
        zs.append(z)
    return zs


def _snapped(z):
    """z snapped as by _snap: complex rows for an ndarray, a Point for a scalar."""
    return _snap(z)[0] if isinstance(z, _ndarray) else Point.of(z)


def _chordal_norm(z):
    """sqrt(1 + |z|^2): the chordal distance of z and w is |z - w| / (n(z) n(w)),
    and that of z and infinity 1 / n(z)."""
    return _sqrt(1.0 + _abs(z) ** 2)


def _chordal(z, w, nz, nw):
    """Chordal distance of two points given with their _chordal_norm; None
    stands for the point at infinity."""
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
    a1, a2 = _abs(z1), _abs(z2)
    return abs(cross) <= _COLLINEAR_TOL * _where(a1 >= a2, a1, a2) * _abs(z1 - z2)


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


def _ratio(a, b, c, d):
    """The absolute ratio of four snapped coordinates (None at infinity)."""
    zs = (a, b, c, d)
    norms = [None if z is None else _chordal_norm(z) for z in zs]
    dists = [_chordal(zs[i], zs[j], norms[i], norms[j]) for i, j in _PAIRS]
    if any(_any(q == 0.0) for q in dists):
        raise DegenerateInputError("absolute ratio needs four distinct points")
    ab, ac, _, _, bd, cd = dists
    return (ac * bd) / (ab * cd)


# ---------------------------------------------------------------------------
# Metrics


def chordal_distance(x, y):
    """Metric of the Riemann sphere pulled back to the plane. On ndarrays of
    finite points, row by row."""
    (z, _), (w, _) = _points(x, y)
    return _chordal(z, w, *(None if v is None else _chordal_norm(v) for v in (z, w)))


def absolute_ratio(a, b, c, d):
    """Moebius-invariant cross ratio built from chordal distances.

    Always evaluated through the chordal metric so that points at infinity
    need no special casing. On complex ndarrays of finite points, row by row.
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
    if _any((abs(z_in) > 1.0) | (abs(w_in) > 1.0)):
        raise DomainError("rho_disk needs points in the closed unit disk")
    return _where(on, _where(z_on & w_on & (z == w), 0.0, math.inf), _rho(z_in, w_in))


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


def geodesic_through(x, y) -> Geodesic:
    """The hyperbolic line through two distinct points of the closed disk."""
    (z1, on1), (z2, on2) = _points(x, y)
    # a snapped circle point may lie an ulp outside, as in rho_disk
    if z1 is None or z2 is None or (abs(z1) > 1.0 and not on1) or (abs(z2) > 1.0 and not on2):
        raise DomainError("geodesics live in the closed unit disk")
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
    """Angle of the in-disk arc's midpoint around its center, and its signed sweep."""
    w1 = cmath.phase(g.endpoints[0].z - g.center)
    w2 = cmath.phase(g.endpoints[1].z - g.center)
    delta = math.atan2(math.sin(w2 - w1), math.cos(w2 - w1))
    mid = g.center + g.radius * cmath.exp(1j * (w1 + 0.5 * delta))
    if abs(mid) > 1.0:
        delta -= math.copysign(2.0 * math.pi, delta)
    return w1 + 0.5 * delta, delta


#: samples per bracket: each round shrinks an interior bracket 8-fold
_BRACKET_SAMPLES = np.linspace(0.0, 1.0, 17)
#: a search stops once its bracket is at most this wide
_BRACKET_WIDTH = 1e-12
#: geodesics closer than this count as intersecting: their distance is 0.0
_INTERSECT_TOL = 1e-10
#: ends this close are one ideal point: _arc and the snap round an end by an ulp
#: or so (1.1e-16 seen); ends 2e-14 apart are distinct, at distance 2.0e-7
_SHARED_END_TOL = 4 * 2.0**-52


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
    """The open-arc parametrization of the geodesics gs by tau in [0, 1], on
    a (rows, k) array of parameters, row j on gs[j]. With u = tau clamped
    off the boundary and v = 2u - 1, diameters are e^{i phi} v and arcs
    c + r e^{i w_mid} (1 - s^2 + 2is)/(1 + s^2), s = tan(delta/4) v, where
    w_mid is the angle of the arc's midpoint around its center c and delta
    its signed sweep: the half-angle tangent form of c + r e^{i(w_mid +
    2 atan s)}, which needs no complex exponential. Its angle moves
    monotonically with tau, from w_mid - delta/2 to w_mid + delta/2, so a
    function unimodal along the arc stays unimodal in tau."""
    arc = np.array([g.kind is GeodesicKind.ARC for g in gs], dtype=bool)
    dia = ~arc
    arcs = [g for g in gs if g.kind is GeodesicKind.ARC]
    angles = [_arc_angles(g) for g in arcs]

    def column(values, dtype):
        return np.array(list(values), dtype=dtype).reshape(-1, 1)

    e_phi = column((cmath.exp(1j * g.direction) for g in gs if g.kind is GeodesicKind.DIAMETER), complex)
    center = column((g.center for g in arcs), complex)
    half = column((g.radius * cmath.exp(1j * w_mid) for g, (w_mid, _) in zip(arcs, angles)), complex)
    tan_q = column((math.tan(0.25 * d) for _, d in angles), float)

    def points(taus):
        v = -1.0 + 2.0 * (_PARAM_MARGIN + (1.0 - 2.0 * _PARAM_MARGIN) * taus)
        z = np.empty(v.shape, dtype=complex)
        z[dia] = v[dia] * e_phi
        s = tan_q * v[arc]
        s2 = s * s
        z[arc] = center + half * ((1.0 - s2) + 2j * s) / (1.0 + s2)
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

    A nested bracket search over the geodesics' parametrizations:
    the outer one over the points of g1, the inner one, for each of those,
    over the points of g2. Both searches converge because hyperbolic
    distance is convex along geodesics (Bridson and Haefliger, Metric Spaces
    of Non-positive Curvature, 1999, II.2.2 and II.2.5), so the distance from
    a fixed point to the points of g2, and the distance from a point of g1 to
    g2, are unimodal along each geodesic. An arc is parametrized by the
    tangent of its half angle (see _parametrization), which is monotone, and
    a monotone change of parameter keeps a function unimodal; each search
    needs no more than that. Returns 0.0 for intersecting
    geodesics and for geodesics that share an ideal endpoint, that is, whose
    ends lie within 4 ulp. A pair's distance is the same, bit for bit, alone
    or in a sequence.
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
    """The snapped circle endpoints of the geodesic through distinct z1 and
    z2, as geodesic_through finds them. On rows, the arcs take one call of
    _arc, which would divide by a diameter's zero cross, and each diameter,
    which is rare, a scalar call."""
    if not (isinstance(z1, _ndarray) or isinstance(z2, _ndarray)):
        return [p.z for p in geodesic_through(z1, z2).endpoints]
    z1, z2 = np.broadcast_arrays(z1, z2)
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
    z, w = _interior("rho_via_crossratio", x, y)
    if _any(z == w):
        raise DegenerateInputError("coincident points define no geodesic")
    e1, e2 = _geodesic_ends(z, w)
    # label so that e_x, x, y, e_y occur in order along the geodesic
    swap = _abs(e1 - z) > _abs(e1 - w)
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
        if abs(self.a * self.d - self.b * self.c) <= 1e-14:
            raise DegenerateInputError("Moebius map has (near-)zero determinant")

    def __call__(self, z):
        """The image Point; on a complex ndarray, the snapped image of each
        row, and DomainError if a row maps to infinity."""
        z, _ = _points(z)[0]
        if z is None:
            return Point.infinity() if abs(self.c) == 0.0 else Point.of(self.a / self.c)
        if _any(abs(self.c * z + self.d) < 1e-300):
            if isinstance(z, _ndarray):
                raise DomainError("a row maps to infinity, which has no finite coordinate")
            return Point.infinity()
        return _snapped(_moebius(self.a, self.b, self.c, self.d, z))

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
