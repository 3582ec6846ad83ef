import cmath
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplam import (
    DegenerateInputError,
    DomainError,
    Geodesic,
    GeodesicKind,
    MoebiusMap,
    Point,
    PointKind,
    absolute_ratio,
    chordal_distance,
    geodesic_distance,
    geodesic_points,
    geodesic_through,
    hyperbolic_midpoint,
    lambert_from,
    rho_disk,
    rho_halfplane,
    rho_via_crossratio,
)
from hyplam.verify import DEFAULT_SEED, _halton

EPS = 2.0**-52


def interior(re, im, scale=0.7):
    """Map two unit floats to a point well inside the disk."""
    z = complex(re, im) * scale
    if abs(z) >= 0.98:
        z *= 0.98 / abs(z)
    return z


class TestPoints:
    def test_boundary_snap(self):
        p = Point.of(cmath.exp(0.3j) * (1.0 + 16 * 2.0**-52))
        assert p.kind is PointKind.BOUNDARY
        assert abs(p.z) == pytest.approx(1.0, abs=1e-15)

    def test_interior(self):
        assert Point.of(0.5 + 0.1j).kind is PointKind.INTERIOR

    def test_infinity_has_no_coordinate(self):
        with pytest.raises(DomainError):
            Point.infinity().z


class TestChordal:
    def test_symmetric_at_infinity(self):
        # q(x, inf) = 1/sqrt(1+|x|^2)
        assert chordal_distance(Point.infinity(), 1.0) == pytest.approx(1.0 / math.sqrt(2.0))
        assert chordal_distance(0.0, Point.infinity()) == pytest.approx(1.0)

    def test_finite(self):
        assert chordal_distance(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_absolute_ratio_needs_distinct_points(self):
        with pytest.raises(DegenerateInputError):
            absolute_ratio(0.1, 0.1, 0.5, 0.7)

    def test_symmetric_quadruple_ratio_is_two(self):
        assert absolute_ratio(1, 1j, -1, -1j) == pytest.approx(2.0, abs=1e-14)


class TestRho:
    def test_from_origin(self):
        assert rho_disk(0.0, 0.5) == pytest.approx(2.0 * math.atanh(0.5), abs=1e-14)

    def test_boundary_is_infinite(self):
        assert rho_disk(0.0, 1.0) == math.inf

    def test_near_circle_is_finite(self):
        # 40.0393604893446 from mpmath at 50 digits; rho is conditioned like
        # 1/(1 - |z|), so one ulp of an endpoint moves it by ~1e-7
        r = 1.0 - 1e-9
        assert rho_disk(r, r * cmath.exp(0.5j)) == pytest.approx(40.0393604893446, abs=1e-6)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            rho_disk(0.0, 1.5)

    def test_lambert_vertices_keep_distances_near_circle(self):
        # L = 1, theta ~ 1.3e-8: v_b lies ~1.3e-8 inside the circle, and this
        # automorphism moves it closer still; no distance may turn infinite
        q = lambert_from(1.0, 1.3058635984144932e-08)
        m = MoebiusMap.disk_automorphism(-0.7916330222247036 + 0.38906380610350455j, 3.776023526804267)
        for p, w in itertools.combinations(q.vertices, 2):
            before, after = rho_disk(p, w), rho_disk(m(p), m(w))
            if math.isinf(before) or math.isinf(after):
                assert before == after
                continue
            # rho is conditioned like 1/(1 - |z|) at each endpoint
            zs = (p.z, w.z, m(p).z, m(w).z)
            assert abs(before - after) <= 64 * EPS * (1.0 + sum(1.0 / (1.0 - abs(z)) for z in zs))

    def test_halfplane_formula(self):
        # cosh rho = 1 + |x-y|^2 / (2 x2 y2)
        assert rho_halfplane(1j, 2j) == pytest.approx(math.acosh(1.25), abs=1e-14)

    def test_halfplane_needs_upper(self):
        with pytest.raises(DomainError):
            rho_halfplane(1j, -1j)

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_crossratio_route_agrees(self, a, b, c, d):
        x, y = interior(a, b), interior(c, d)
        if abs(x - y) < 1e-6:
            return
        assert rho_via_crossratio(x, y) == pytest.approx(rho_disk(x, y), abs=1e-9)


class TestGeodesics:
    def test_diameter_through_origin(self):
        g = geodesic_through(0.0, 0.3 + 0.3j)
        assert g.kind is GeodesicKind.DIAMETER
        assert g.direction == pytest.approx(math.pi / 4.0)

    def test_arc_orthogonality(self):
        g = geodesic_through(0.3 + 0.1j, -0.2 + 0.5j)
        assert g.kind is GeodesicKind.ARC
        assert abs(g.center) ** 2 - g.radius**2 == pytest.approx(1.0, abs=1e-12)
        for e in g.endpoints:
            assert abs(e.z) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_contains_inputs(self):
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
        g = geodesic_through(z1, z2)
        assert g.carrier_contains(z1) and g.carrier_contains(z2)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            geodesic_through(0.2, 0.2)

    def test_points_stay_in_disk(self):
        g = geodesic_through(0.3 + 0.1j, -0.2 + 0.5j)
        pts = geodesic_points(g, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert all(abs(p) < 1.0 for p in pts)

    def test_distance_zero_for_crossing(self):
        g1 = geodesic_through(-0.5, 0.5)
        g2 = geodesic_through(-0.5j, 0.5j)
        assert geodesic_distance(g1, g2) == 0.0

    def test_distance_symmetric_ideal_pair(self):
        # the ten pairs of the symmetric-geodesic-distance sweep
        for alpha in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12):
            e = cmath.exp(1j * alpha)
            g1 = geodesic_through(e, e.conjugate())
            g2 = geodesic_through(-e.conjugate(), -e)
            assert geodesic_distance(g1, g2) == pytest.approx(2.0 * math.atanh(math.cos(alpha)), abs=1e-12)
            g1 = geodesic_through(e, -e.conjugate())
            g2 = geodesic_through(-e, e.conjugate())
            t = g1.center.imag - math.sqrt(g1.center.imag**2 - 1.0)
            assert geodesic_distance(g1, g2) == pytest.approx(2.0 * math.log((1.0 + t) / (1.0 - t)), abs=1e-12)

    def test_distance_matches_lambert_sides(self):
        # the 60 configurations of the thorough lambert-oracle-agreement sweep
        for ua, ub in _halton(60, 2, DEFAULT_SEED + 12):
            q = lambert_from(0.2 + 0.79 * ua, 0.15 + (math.pi / 2.0 - 0.3) * ub)
            g_ad = geodesic_through(q.vertices[3].z, -q.vertices[3].z)
            g_bc = geodesic_through(q.vertices[1].z, q.vertices[2].z)
            assert geodesic_distance(g_ad, g_bc) == pytest.approx(q.d1, abs=1e-12)


class TestMoebius:
    def test_determinant_guard(self):
        with pytest.raises(DegenerateInputError):
            MoebiusMap(1, 2, 2, 4)

    def test_compose_with_inverse_is_identity(self):
        m = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
        mi = m.compose(m.inverse())
        z = 0.1 + 0.4j
        assert mi(z).z == pytest.approx(z, abs=1e-14)

    def test_cayley_sends_disk_to_halfplane(self):
        cay = MoebiusMap.cayley()
        assert cay(0.0).z == pytest.approx(1j)
        for z in (0.5, -0.3 + 0.4j, 0.1j):
            assert cay(z).z.imag > 0.0

    def test_pole_goes_to_infinity(self):
        m = MoebiusMap(1, 0, 1, -0.5)
        assert m(0.5).is_infinity

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_automorphisms_are_isometries(self, a, b, c, d, phase):
        x, y = interior(a, b), interior(c, d)
        m = MoebiusMap.disk_automorphism(interior(c, a, scale=0.5), phase)
        assert rho_disk(m(x).z, m(y).z) == pytest.approx(rho_disk(x, y), abs=1e-10)

    def test_cayley_is_isometry(self):
        cay = MoebiusMap.cayley()
        x, y = 0.2 + 0.1j, -0.4 + 0.3j
        assert rho_halfplane(cay(x), cay(y)) == pytest.approx(rho_disk(x, y), abs=1e-12)

    def test_crossratio_invariance(self):
        quad = (0.2, 1j, -0.7, 2.0 - 1j)
        m = MoebiusMap(2, 1j, 0.3, 1)
        before = absolute_ratio(*quad)
        after = absolute_ratio(*(m(z) for z in quad))
        assert after == pytest.approx(before, rel=1e-11)


class TestMidpoint:
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_halves_distance(self, a, b, c, d):
        x, y = interior(a, b), interior(c, d)
        if abs(x - y) < 1e-9:
            return
        p = hyperbolic_midpoint(x, y)
        half = 0.5 * rho_disk(x, y)
        assert rho_disk(x, p) == pytest.approx(half, abs=1e-11)
        assert rho_disk(p, y) == pytest.approx(half, abs=1e-11)

    def test_on_a_radius(self):
        # rho(0, t) = 2 arth t, so the midpoint of [0, t] is th(arth(t)/2)
        t = 0.8
        p = hyperbolic_midpoint(0.0, t)
        assert p.z == pytest.approx(math.tanh(math.atanh(t) / 2.0), abs=1e-14)

    def test_chord_cut_is_midpoint(self):
        # the geodesic between e^{+-i alpha} meets [0, b] at the hyperbolic
        # midpoint of [0, b], for any b on the Euclidean chord
        alpha = 1.1
        for s in (-0.8, 0.0, 0.4, 0.9):
            b = complex(math.cos(alpha), s * math.sin(alpha))
            w = 1.0 / math.cos(alpha)
            beta = cmath.phase(b)
            u = w * math.cos(beta) - math.sqrt(w * w * math.cos(beta) ** 2 - 1.0)
            a = u * cmath.exp(1j * beta)
            assert rho_disk(0.0, b) == pytest.approx(2.0 * rho_disk(0.0, a), abs=1e-12)
            assert hyperbolic_midpoint(0.0, b).z == pytest.approx(a, abs=1e-12)
