import ast
import cmath
import copy
import itertools
import math
import pickle
import warnings
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from hyplam import (
    DegenerateInputError,
    DomainError,
    Geodesic,
    HyplamError,
    MoebiusMap,
    Point,
    absolute_ratio,
    geodesic_distance,
    geodesic_through,
    hyperbolic_midpoint,
    lambert_from,
    rho_disk,
    rho_halfplane,
    rho_via_crossratio,
)
from hyplam import _rows, geometry, optimize
from hyplam.optimize import _distance_rows
from hyplam.verify import DEFAULT_SEED, _halton

EPS = 2.0**-52
#: a point 16 ulp outside the circle, which snaps onto it
NEAR_CIRCLE = cmath.exp(0.3j) * (1.0 + 16 * EPS)


def interior(re, im, scale=0.7):
    """Map two unit floats to a point well inside the disk."""
    z = complex(re, im) * scale
    if abs(z) >= 0.98:
        z *= 0.98 / abs(z)
    return z


ALPHAS = (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12)


def ends(g):
    """A geodesic's two ends."""
    return g.endpoints


def snapped(z):
    """The Point of z, snapped as every entry reads it."""
    return Point(geometry._snap(complex(z))[0])


def on_circle(p) -> bool:
    """Whether a point lies on the unit circle, as every entry reads it."""
    return geometry._snap(complex(p))[1]


def at_infinity(p) -> bool:
    """Whether a returned point is the point at infinity."""
    return type(p) is Point and cmath.isinf(p)


def is_diameter(g):
    """Whether g is a diameter: its ends are negatives of each other, to the
    ulp by which an input on the circle, which is an end at its own
    coordinate, may differ from the computed end."""
    e1, e2 = ends(g)
    return abs(e1 + e2) <= 4 * EPS


def carrier(g):
    """Center and radius of the circle through an arc's ends orthogonal to
    the unit circle: (e1 + e2)/(1 + Re(e1 conj e2)) and sqrt(|c|^2 - 1)."""
    e1, e2 = ends(g)
    center = (e1 + e2) / (1.0 + (e1 * e2.conjugate()).real)
    return center, math.sqrt(abs(center) ** 2 - 1.0)


def symmetric_pairs():
    """The ten pairs of the symmetric-geodesic-distance sweep: for each
    alpha, the pair symmetric about the real axis, then the pair symmetric
    about the imaginary axis."""
    pairs = []
    for alpha in ALPHAS:
        e = cmath.exp(1j * alpha)
        pairs.append((geodesic_through(e, e.conjugate()), geodesic_through(-e.conjugate(), -e)))
        pairs.append((geodesic_through(e, -e.conjugate()), geodesic_through(-e, e.conjugate())))
    return pairs


def thorough_quads():
    """The 60 Lambert quadrilaterals of the thorough lambert-oracle-agreement sweep."""
    u = _halton(60, 2, DEFAULT_SEED + 12)
    return [lambert_from(0.2 + 0.79 * ua, 0.15 + (math.pi / 2.0 - 0.3) * ub) for ua, ub in u]


def lambert_d1_pair(q):
    """The two geodesics of a Lambert quadrilateral at distance d1: the
    imaginary axis and the line through v_b and v_c."""
    return geodesic_through(q.vertices[3], -q.vertices[3]), geodesic_through(q.vertices[1], q.vertices[2])


def oracle_table(mp):
    """Pairs of geodesics with their distance to 40 digits: for 1 - L from
    0.8 down to 1e-6 and 25 theta in [0.01, pi/2 - 0.01], the Lambert pairs
    at d1 = arth(L cos theta) and d2 = arth(L sin theta); then the pairs
    symmetric about the real axis at 60 alpha in the same range, at
    2 arth(cos alpha). 460 pairs."""
    pairs, ref = [], []
    with mp.workdps(40):
        for one_minus_l in (0.8, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            L = 1.0 - one_minus_l
            for theta in np.linspace(0.01, math.pi / 2.0 - 0.01, 25).tolist():
                q = lambert_from(L, theta)
                pairs.append(lambert_d1_pair(q))
                ref.append(float(mp.atanh(mp.mpf(L) * mp.cos(theta))))
                _, b, c, d = q.vertices
                pairs.append((geodesic_through(b, -b), geodesic_through(d, c)))
                ref.append(float(mp.atanh(mp.mpf(L) * mp.sin(theta))))
        for alpha in np.linspace(0.01, math.pi / 2.0 - 0.01, 60).tolist():
            e = cmath.exp(1j * alpha)
            pairs.append((geodesic_through(e, e.conjugate()), geodesic_through(-e.conjugate(), -e)))
            ref.append(float(2 * mp.atanh(mp.cos(alpha))))
    return pairs, np.array(ref)


class TestPoints:
    def test_boundary_snap(self):
        z = cmath.exp(0.3j) * (1.0 + 16 * 2.0**-52)
        p, on = geometry._snap(z)
        assert on and rho_disk(z, 0.5) == math.inf
        assert abs(p) == pytest.approx(1.0, abs=1e-15)

    def test_interior(self):
        assert geometry._snap(0.5 + 0.1j) == (0.5 + 0.1j, False)
        assert rho_disk(0.5 + 0.1j, 0.5) < math.inf

    def test_a_point_is_immutable_and_hashable(self):
        p = Point(0.3 + 0.1j)
        for name in ("real", "imag", "z", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0.5)
        assert isinstance(p, complex) and p == 0.3 + 0.1j
        assert type(p.z) is complex and p.z == 0.3 + 0.1j
        assert hash(p) == hash(0.3 + 0.1j)
        assert {p: "p"}[Point(0.3 + 0.1j)] == "p"
        assert len({Point(math.inf), Point(math.inf), p}) == 2
        assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p
        assert type(pickle.loads(pickle.dumps(p))) is Point

    def test_repr(self):
        assert repr(Point(0.5)) == "(0.5+0j)"
        assert repr(Point(math.inf)) == "(inf+0j)"

    def test_a_stored_coordinate_is_never_snapped_again(self):
        # a Point within 64 ulp of the circle comes back from _snap with its
        # bits, so every call reads the point it was given: at rho 0 from
        # itself, an end of its own geodesic, and mapped as its coordinate is
        rng = np.random.default_rng(DEFAULT_SEED)
        angles = rng.uniform(0.2, 2.0 * math.pi - 0.2, 4000)
        radii = 1.0 + rng.integers(-63, 64, angles.size) * EPS
        cayley = MoebiusMap.cayley()

        def image(z):  # (i z + i) / (-z + 1), as the map's coefficients (i, i, -1, 1) take it
            return (1j * z + 1j) / (-1.0 * z + 1.0)

        moved = 0
        for r, t in zip(radii.tolist(), angles.tolist()):
            z = complex(r * math.cos(t), r * math.sin(t))
            p = snapped(z)
            moved += p != z
            again, on = geometry._snap(complex(p))
            assert on and again.real.hex() == p.real.hex() and again.imag.hex() == p.imag.hex()
            assert rho_disk(p, p) == 0.0 and rho_disk(z, p) == 0.0
            assert cayley(p) == snapped(image(complex(p)))
        assert moved > 0.9 * angles.size


class TestNonFinite:
    """A NaN coordinate is refused, on a scalar and on a row, and so is a
    row that is not finite; a scalar with an infinite part and no NaN is
    the point at infinity, which the functions of the disk and the half
    plane refuse."""

    BAD = [
        math.nan,
        math.inf,
        complex(math.inf, 0.0),
        complex(0.0, -math.inf),
        complex(math.nan, 0.5),
        complex(math.inf, math.nan),
    ]

    @staticmethod
    def _finite_calls(bad):
        """The calls that need finite points: the first takes scalars only."""
        return [
            lambda: geodesic_through(bad, 0.5),
            lambda: rho_disk(bad, 0.5),
            lambda: rho_disk(0.5, bad),
            lambda: rho_halfplane(bad, 1j),
            lambda: hyperbolic_midpoint(bad, 0.5),
            lambda: rho_via_crossratio(0.5, bad),
        ]

    @staticmethod
    def _sphere_calls(bad):
        """The calls that take the point at infinity."""
        return [
            lambda: absolute_ratio(bad, 1, 2, 3),
            lambda: absolute_ratio(1, 2, 3, bad),
            lambda: MoebiusMap.cayley()(bad),
            lambda: MoebiusMap.disk_automorphism(0.3, 0.7)(bad),
        ]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_scalars_are_refused(self, bad):
        calls = self._finite_calls(bad)
        if cmath.isnan(complex(bad)):
            calls += self._sphere_calls(bad)
        for call in calls:
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_rows_are_refused(self, bad):
        rows = np.array([0.1 + 0.2j, bad, -0.3j])
        for call in self._finite_calls(rows)[1:] + self._sphere_calls(rows):
            with pytest.raises(DomainError):
                call()

    def test_an_infinite_scalar_is_the_point_at_infinity(self):
        for bad in (math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, -math.inf), complex(-math.inf, 3.0)):
            for call, at_inf in zip(self._sphere_calls(bad), self._sphere_calls(Point(math.inf))):
                assert _outcome(call, []) == _outcome(at_inf, [])

    def test_infinity_is_the_point_at_infinity(self):
        # the image of infinity under z -> i(1 + z)/(1 - z) is a/c = -i
        assert MoebiusMap.cayley()(Point(math.inf)) == -1j
        # real coefficients give a real a/c
        assert MoebiusMap(2, 0, 1, 1)(Point(math.inf)) == 2.0
        assert at_infinity(MoebiusMap(1, 0, 0, 1)(Point(math.inf)))



class TestModulusBeyondTheDoubles:
    """Finite coordinates whose modulus passes the doubles, where Python's
    abs raises OverflowError: _snap reads them as off the circle."""

    Z = 1.5e308 + 1.5e308j

    def test_snap_reads_it_off_the_circle(self):
        with pytest.raises(OverflowError):
            abs(self.Z)
        assert geometry._snap(self.Z) == (self.Z, False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, on = geometry._snap(np.array([self.Z]))
        assert rows.tolist() == [self.Z] and on.tolist() == [False]

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "row"])
    def test_the_disk_refuses_it(self, rows):
        z = np.array([self.Z]) if rows else self.Z
        for call in (
            lambda: rho_disk(z, 0.5),
            lambda: rho_disk(0.5, z),
            lambda: geodesic_through(z, 0.5),
            lambda: geodesic_through(0.5, z),
            lambda: hyperbolic_midpoint(z, 0.5),
            lambda: rho_via_crossratio(0.5, z),
        ):
            with pytest.raises(DomainError):
                call()

    def test_an_image_that_overflows_is_infinity_and_a_row_refuses_it(self):
        double = MoebiusMap(2, 0, 0, 1)
        assert at_infinity(double(self.Z))
        with pytest.raises(DomainError, match="a row maps to infinity"):
            double(np.array([self.Z]))

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "row"])
    def test_a_finite_image_is_taken_in_the_chart_at_infinity(self, rows):
        # e^{0.7i} z and -0.3 z + 1 overflow, or their quotient does, where the
        # image is about -e^{0.7i} / 0.3; z / (z + 1) is not the NaN of inf /
        # inf, and 1 / (z + 1) not the 0 of Smith's division by an overflowing
        # divisor. Each image is correctly rounded (mpmath at 700 digits: 50
        # cancel the imaginary part of z / (z + 1) to 0), and z -> z keeps z,
        # which the subnormal u = 1/z alone would not
        z = np.array([self.Z]) if rows else self.Z
        t = 3.33333333333333e-309
        expected = (
            (MoebiusMap.disk_automorphism(0.3, 0.7), -2.549473957614962 - 2.1473922907923035j),
            (MoebiusMap(1, 0, 1, 1), 1.0 + 1j * t),
            (MoebiusMap(0, 1, 1, 1), t - 1j * t),
            (MoebiusMap(1, 0, 0, 1), self.Z),
        )
        for m, value in expected:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                image = m(z)
            assert complex(image[0] if rows else image) == value, m
            assert type(image) is (np.ndarray if rows else Point)

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "row"])
    def test_the_sphere_and_the_half_plane_beyond_the_doubles(self, rows):
        # |z - w| passes the doubles; at scale 1/4 it does not
        expected = (
            (absolute_ratio, (self.Z, 0.5, 0.1j, -0.3), 2.5298221281347035),
            (rho_halfplane, (self.Z, 1j), 710.2948209308341),
        )
        for f, args, value in expected:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = f(*(np.array([a]) for a in args)).tolist() if rows else [f(*args)]
            assert got == [value], f.__name__

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "row"])
    @pytest.mark.parametrize(
        "x, y, rho",
        [
            (1e300 + 1j, 5e-324j, 2125.9911277178085),
            (1.5e308 + 1e-300j, -1.5e308 + 1e-300j, 2802.1406976580956),
            (1.5e308 + 5e-324j, 5e-324j, 2908.083491343311),
            (1.5e308 + 5e-324j, 1.5e308 + 5e-324j, 0.0),
        ],
    )
    def test_a_half_plane_distance_whose_sinh_passes_the_doubles(self, rows, x, y, rho):
        # sinh(rho/2) = |x - y| / (2 sqrt(Im x Im y)) passes the doubles and
        # rho does not: 2125.99112771780867..., 2802.14069765809577... and
        # 2908.08349134331099... at 50 digits (mpmath), each within 1 ulp. In
        # the last two the divisor, at scale 1/4, underflows to 0, and equal
        # points are still 0 apart. The row beside each, of equal points,
        # takes no logarithm of its zero chord
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = rho_halfplane(np.array([x, 1j]), np.array([y, 1j])).tolist() if rows else [rho_halfplane(x, y), 0.0]
        assert got == [rho, 0.0]

    def test_the_sphere_and_the_half_plane_at_the_largest_moduli(self):
        # |z| = 1.4e308 is a double: an absolute ratio and a half-plane
        # distance are finite, and a one-row call gives the same
        z = 1e308 + 1e308j
        for f, args in ((absolute_ratio, (z, 0.5, 0.1j, -0.3)), (rho_halfplane, (z, 1j))):
            scalar = f(*args)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                row = f(*(np.array([a]) for a in args))
            assert math.isfinite(scalar) and row.tolist() == [scalar], f.__name__


def _outcome(f, args) -> str:
    """repr of f(*args), or of the error it raises: a float's repr round-trips,
    so equal outcomes are equal bit for bit."""
    try:
        return repr(f(*args))
    except HyplamError as exc:
        return repr(exc)


@pytest.mark.parametrize(
    "f, arity",
    [
        (absolute_ratio, 4),
        (rho_disk, 2),
        (rho_halfplane, 2),
        (geodesic_through, 2),
        (rho_via_crossratio, 2),
        (hyperbolic_midpoint, 2),
        (MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7), 1),
    ],
    ids=lambda f: getattr(f, "__name__", "moebius_call") if callable(f) else str(f),
)
def test_a_point_and_its_value_agree_bit_for_bit(f, arity):
    # every argument as a Point, snapped or not, only the first, or none
    values = (0.3 + 0.1j, -0.2 + 0.5j, NEAR_CIRCLE, 0.6j)
    for args in itertools.permutations(values, arity):
        raw = _outcome(f, args)
        assert _outcome(f, [snapped(a) for a in args]) == raw
        assert _outcome(f, [Point(a) for a in args]) == raw
        assert _outcome(f, [snapped(args[0]), *args[1:]]) == raw


class TestAbsoluteRatio:
    def test_absolute_ratio_needs_distinct_points(self):
        with pytest.raises(DegenerateInputError):
            absolute_ratio(0.1, 0.1, 0.5, 0.7)

    def test_symmetric_quadruple_ratio_is_two(self):
        assert absolute_ratio(1, 1j, -1, -1j) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_absolute_ratio_at_extreme_magnitudes(self, scale):
        # (|a - c| / |a - b|) (|b - d| / |c - d|) = 2 * 1.5: neither a product
        # of two distances under- or overflows
        quad = [k * scale for k in (1, 2, 3, 5)]
        assert absolute_ratio(*quad) == pytest.approx(3.0, rel=4 * EPS)
        rows = absolute_ratio(*(np.array([q, 1j * q, -q]) for q in quad))
        assert np.all(abs(rows - 3.0) <= 4 * EPS * 3.0)
        # points that span the doubles: (|a - c| / |a - b|) underflows and
        # (|b - d| / |c - d|) overflows, so the exponents are taken apart; a
        # ratio past the doubles (2e300 / 5e-324) is inf, quietly
        t = 5e-324
        cases = [
            ((1e-300, 1e300, 2e-300, 3e-300), 1.0),
            ((4 * t, 2.0**1020, 8 * t, 13 * t), 0.8),
            ((0.0, t, 1e300, 2e300), math.inf),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for quad, want in cases:
                assert absolute_ratio(*quad) == pytest.approx(want, rel=4 * EPS)
                assert absolute_ratio(*(np.array([q, 1j * q, -q]) for q in quad)) == pytest.approx(want, rel=4 * EPS)

    def test_absolute_ratio_at_infinity_and_1e200(self):
        assert absolute_ratio(Point(math.inf), 1e200, 0, 1) == pytest.approx(1e200, rel=4 * EPS)


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
            zs = (p, w, m(p), m(w))
            assert abs(before - after) <= 64 * EPS * (1.0 + sum(1.0 / (1.0 - abs(z)) for z in zs))

    def test_halfplane_formula(self):
        # cosh rho = 1 + |x-y|^2 / (2 x2 y2)
        assert rho_halfplane(1j, 2j) == pytest.approx(math.acosh(1.25), abs=1e-14)

    def test_halfplane_near_points_and_tiny_heights(self):
        # 1e-10 apart at height 1, rho is 1e-10 to first order; the cosh
        # form rounded 1 + 5e-21 to 1 and returned 0. At height 1e-200 the
        # cosh form divided by an underflowed 2e-400: rho(1e-200 i, 2e-200 i)
        # is log 2 at every height.
        assert rho_halfplane(1j, 1e-10 + 1j) == pytest.approx(1e-10, rel=1e-12)
        assert rho_halfplane(1e-200j, 2e-200j) == pytest.approx(math.log(2.0), rel=4 * EPS)

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
        e1, e2 = ends(geodesic_through(0.0, 0.3 + 0.3j))
        assert e2 == -e1
        assert cmath.phase(e1) == pytest.approx(math.pi / 4.0)

    def test_arc_orthogonality(self):
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
        g = geodesic_through(z1, z2)
        assert not is_diameter(g)
        # the circle through z1 and the ends, of center z1 + w, meets the
        # unit circle at right angles
        b, c = (e - z1 for e in ends(g))
        w = (abs(b) ** 2 * c - abs(c) ** 2 * b) / (b.conjugate() * c - b * c.conjugate())
        assert abs(z1 + w) ** 2 - abs(w) ** 2 == pytest.approx(1.0, abs=1e-12)
        for e in g.endpoints:
            assert abs(e) == pytest.approx(1.0, abs=1e-12)

    def test_carrier_contains_inputs(self):
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
        center, radius = carrier(geodesic_through(z1, z2))
        for z in (z1, z2):
            assert abs(abs(z - center) - radius) <= 1e-10

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            geodesic_through(0.2, 0.2)

    @pytest.mark.parametrize("z, w", [(2.0, 3j), (0.5, 2.0)])
    def test_points_outside_the_disk_rejected(self, z, w):
        # an arc and the real diameter came back; rho_disk raises for both pairs
        for x, y in ((z, w), (w, z)):
            with pytest.raises(DomainError):
                geodesic_through(x, y)

    def test_snapped_circle_points_pass(self):
        # snapped onto the circle, this point lies an ulp outside it
        z = -0.8038681028334619 + 0.594807593467773j
        assert abs(snapped(z)) > 1.0
        for x in (z, snapped(z), NEAR_CIRCLE):
            end = snapped(x)
            # the point is an end of its geodesic
            assert min(abs(e - end) for e in geodesic_through(x, 0.3).endpoints) <= 4 * EPS

    @pytest.mark.parametrize("radius", [1e-3, 1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("angle", [math.pi / 2.0, 1.0, 1e-3])
    def test_small_points_off_a_diameter(self, radius, angle):
        # the diameter test is relative to |z1||z2|: points near 0 that are
        # not collinear with it take their arc. The cross ratio is 1 + O(rho),
        # so its log carries a few ulp of absolute error, EPS/rho relative
        z, w = radius, radius * cmath.exp(1j * angle)
        assert not is_diameter(geodesic_through(z, w))
        ref = rho_disk(z, w)
        allowance = 16.0 * EPS / ref
        assert abs(rho_via_crossratio(z, w) / ref - 1.0) <= allowance
        rows = rho_via_crossratio(np.array([z]), np.array([w]))
        assert abs(rows[0] / ref - 1.0) <= allowance

    def test_close_pairs_within_16_ulp_over_rho(self):
        # pairs 1e-13 to 1e-3 apart, and near-radial pairs 1e-13 to 1e-11
        # apart at |z| 0.9 to 0.95, where the cross product and the center's
        # numerators cancel unless _arc forms them from the chord z2 - z1
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(DEFAULT_SEED + 2)
        z = 0.95 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
        w = z + 10.0 ** rng.uniform(-13.0, -3.0, 600) * np.exp(2j * np.pi * rng.random(600))
        radial = rng.uniform(0.9, 0.95, 200) * np.exp(2j * np.pi * rng.random(200))
        gaps = 10.0 ** rng.uniform(-13.0, -11.0, 200) * np.exp(1j * rng.uniform(-0.3, 0.3, 200))
        z, w = np.concatenate([z, radial]), np.concatenate([w, radial * (1.0 + gaps)])
        z, w = z[abs(w) <= 0.95], w[abs(w) <= 0.95]
        rows = rho_via_crossratio(z, w)
        with mp.workdps(50):
            for a, b, row in zip(z.tolist(), w.tolist(), rows.tolist()):
                x, y = mp.mpc(a), mp.mpc(b)
                ref = 2 * mp.asinh(abs(x - y) / mp.sqrt((1 - abs(x) ** 2) * (1 - abs(y) ** 2)))
                # relative error within 16 EPS/rho
                for value in (rho_via_crossratio(a, b), row):
                    assert float(abs(value - ref)) <= 16.0 * EPS, (a, b)

    def test_close_points_across_a_radius_take_their_arc(self):
        # their angle at 0 is 3e-13, but the line through them misses 0 by 0.3
        z, w = 0.3, 0.3 + 1e-13j
        assert not is_diameter(geodesic_through(z, w))
        ref = rho_disk(z, w)
        assert abs(rho_via_crossratio(z, w) / ref - 1.0) <= 16.0 * EPS / ref

    @pytest.mark.parametrize(
        "z, w",
        [
            (0.3, -0.5),
            (0.2 + 0.2j, 0.5 + 0.5j),
            (1e-8j, -3e-8j),
            (0.0, 0.4 + 0.1j),
            (1e-9, 2e-9 + 1e-24j),
            (0.7j, 7.8e-309),
        ],
    )
    def test_collinear_with_origin_is_a_diameter(self, z, w):
        e1, e2 = ends(geodesic_through(z, w))
        assert e2 == -e1
        rows = rho_via_crossratio(np.array([z]), np.array([w]))
        assert rows[0] == pytest.approx(rho_via_crossratio(z, w), rel=4 * EPS)

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_short_arcs_end_on_the_circle(self, gap):
        # the ends of _arc inherit its center's cancellation: at gap 1e-4 they
        # lay 2.0e-13 inside the circle, off it, at rho 29.88 from 0.5. An
        # input on the circle is an end itself
        z1, z2 = cmath.exp(1j), cmath.exp(1j * (1.0 + gap))
        g = geodesic_through(z1, z2)
        assert set(g.endpoints) == {snapped(z1), snapped(z2)}
        assert snapped(z1) in geodesic_through(z1, 0.999 * z2).endpoints
        for x, y in ((z1, z2), (z1, 0.999 * z2), (0.999 * z1, 0.999 * z2)):
            for e in geodesic_through(x, y).endpoints:
                assert on_circle(e) and rho_disk(e, 0.5) == math.inf

    def test_a_circle_input_is_an_end_bit_for_bit(self):
        # snapped points within 60 ulp of the circle: each is an end of its
        # geodesic at its own bits, which a second snap leaves, at rho 0 from
        # itself. Before _snap left a point within 2 ulp where it was, 127 of
        # these 3 000 moved by an ulp when snapped a second time, to rho inf
        rng = np.random.default_rng(5)
        radius = 1.0 + rng.integers(-60, 61, 3000) * EPS
        angle = rng.uniform(0.0, 2.0 * math.pi, 3000)
        for r, a in zip(radius.tolist(), angle.tolist()):
            p = snapped(complex(r * math.cos(a), r * math.sin(a)))
            assert on_circle(p)
            g = geodesic_through(p, 0.3 + 0.1j)
            assert p in g.endpoints
            assert rho_disk(p, g.endpoints[g.endpoints.index(p)]) == 0.0

    def test_ends_of_rows_are_scalar_calls_bit_for_bit(self):
        # diameters (through 0, or collinear with it to rounding) and arcs,
        # mixed row by row in one call: the kernel takes no complex product or
        # quotient, which numpy rounds otherwise than Python
        rng = np.random.default_rng(DEFAULT_SEED)
        z1 = 0.95 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
        z2 = 0.95 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
        z2[::3] = z1[::3] * rng.uniform(-1.0, 1.0, 200)
        z1[1::6] = 0.0
        e1, e2 = geometry._geodesic_ends(z1, z2, _rows.rows())
        scalar = np.array([geometry._geodesic_ends(a, b) for a, b in zip(z1.tolist(), z2.tolist())])
        assert np.array_equal(np.column_stack([e1, e2]).view(np.uint64), scalar.view(np.uint64))
        diameters = e2 == -e1
        assert diameters[::3].mean() > 0.9 and diameters[1::6].all() and not diameters[2::3].any()

    def test_ends_within_a_few_ulp_of_the_orthogonal_circle(self):
        # against the ends, at 50 digits, of the circle through the two float
        # points orthogonal to the unit circle, or of the diameter through
        # them: arcs whose center does not cancel, |Im(conj(z1) z2)| >= 0.2,
        # and diameters through 0 or through z and -z/2
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(DEFAULT_SEED + 1)
        z1 = 0.95 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
        z2 = 0.95 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
        arcs = [(a, b) for a, b in zip(z1.tolist(), z2.tolist()) if abs((a.conjugate() * b).imag) >= 0.2]
        diameters = [(0.0, b) for b in z2[:50].tolist()] + [(a, -0.5 * a) for a in z1[:50].tolist()]
        assert len(arcs) > 100
        with mp.workdps(50):
            for a, b in arcs + diameters:
                x, y = mp.mpc(a), mp.mpc(b)
                cross = mp.im(mp.conj(x) * y)
                if cross == 0:
                    far = x if abs(x) >= abs(y) else y
                    ref = (far / abs(far), -far / abs(far))
                else:
                    center = 1j * (y * (1 + abs(x) ** 2) - x * (1 + abs(y) ** 2)) / (-2 * cross)
                    radius = mp.sqrt(abs(center) ** 2 - 1)
                    ref = ((1 + 1j * radius) / mp.conj(center), (1 - 1j * radius) / mp.conj(center))
                e1, e2 = ends(geodesic_through(a, b))
                err = min(max(abs(e1 - ref[0]), abs(e2 - ref[1])), max(abs(e1 - ref[1]), abs(e2 - ref[0])))
                assert err <= 4 * EPS, (a, b)

    def test_points_stay_in_disk(self):
        g = geodesic_through(0.3 + 0.1j, -0.2 + 0.5j)
        re, im, one_minus_sq = optimize._on_geodesics(optimize._ends_form([g]), np.array([[0.0], [0.25], [0.5], [0.75], [1.0]]))
        assert np.all(re * re + im * im < 1.0) and np.all(one_minus_sq > 0.0)

    def test_sample_points_on_the_carrier(self):
        # tau = 0, 1/2 and 1 on arcs from near diameters (radius 1e4) to near
        # the circle (ends 1e-4 apart), and on diameters: inside the disk, and
        # within 4 ulp of the carrier through the geodesic's ends, divided by
        # their modulus, at 50 digits: the circle of center (e1 + e2)/(1 +
        # Re(e1 conj e2)) and radius tan(delta/2), or the line through
        # antipodal ends
        mp = pytest.importorskip("mpmath")
        ends = [(0.0, math.pi - 2e-4), (0.3, 2.0), (1.0, 1.0 + 1e-4), (-2.5, 2.0), (0.2, 0.2 + math.pi), (1.0, 4.0)]
        gs = [geodesic_through(cmath.exp(1j * a), cmath.exp(1j * b)) for a, b in ends]
        gs.append(geodesic_through(-0.3 - 0.4j, 0.6 + 0.8j))
        assert {is_diameter(g) for g in gs} == {False, True}
        re, im, one_minus_sq = optimize._on_geodesics(optimize._ends_form(gs), np.tile([[0.0], [0.5], [1.0]], (1, len(gs))))
        assert np.all(one_minus_sq > 0.0)
        with mp.workdps(50):
            for g, re_row, im_row in zip(gs, re.T.tolist(), im.T.tolist()):
                e1, e2 = (mp.mpc(complex(p)) / abs(mp.mpc(complex(p))) for p in g.endpoints)
                for z in map(mp.mpc, re_row, im_row):
                    if e1 + e2 == 0:
                        off = abs(mp.im(z * mp.conj(e1)))
                    else:
                        center = (e1 + e2) / (1 + mp.re(e1 * mp.conj(e2)))
                        off = abs(abs(z - center) - mp.sqrt(abs(center) ** 2 - 1))
                    assert off <= 4 * EPS

    def test_distance_accuracy_table(self):
        # the search oracle against arth(L cos theta), arth(L sin theta) and
        # 2 arth(cos alpha). The bound is its worst error on the table; the
        # center and radius form it replaced was off by 2.13e-13 on pair 2 (L
        # = 0.2, theta = 0.01, d2 = 2e-3, an arc of radius 500 near 0), which
        # it now finds within a few ulp relative
        pairs, ref = oracle_table(pytest.importorskip("mpmath"))
        dist = _distance_rows(*zip(*pairs))
        err = abs(dist - ref)
        assert err.max() <= 5.329070518200751e-15
        assert np.median(err) <= 1.2e-16
        assert abs(dist[1] / ref[1] - 1.0) <= 4 * EPS

    def test_ends_1e_12_apart_raise_no_warning(self):
        # the search oracle: x0 -> 1 and c = 1 - x0^2 -> 1e-12 there (the
        # center and radius form took the square root of a negative number).
        # Each distance agrees with the cross ratio of the ends, tanh^2(d/2) =
        # |(c - a)(d - b)/((c - b)(d - a))|: to 1e-9 from a far geodesic, and to
        # 1e-3 between two within 4e-12 of each other, where the 1e-16
        # rounding of a sample point is 1e-4 of the scale
        mp = pytest.importorskip("mpmath")
        close = [geodesic_through(cmath.exp(1j * a), cmath.exp(1j * (a + 1e-12))) for a in (1.0, 1.0 + 2e-12, -2.0)]
        others = [geodesic_through(-0.5, 0.5), close[0], geodesic_through(0.3 + 0.1j, -0.2 + 0.5j)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _distance_rows(close, others)
        with mp.workdps(50):
            for d, g1, g2, rel in zip(batch.tolist(), close, others, (1e-9, 1e-3, 1e-9)):
                (a, b), (c, e) = ([mp.mpc(complex(p)) / abs(mp.mpc(complex(p))) for p in g.endpoints] for g in (g1, g2))
                x = abs((c - a) * (e - b) / ((c - b) * (e - a)))
                assert d == pytest.approx(float(2 * mp.atanh(mp.sqrt(min(x, 1 / x)))), rel=rel)

    def test_interleaved_kinds_equal_scalar_calls_bit_for_bit(self):
        # the search oracle: diameters and arcs alternate row by row on both
        # sides, so every parametrization call mixes both kinds; a pair's
        # distance is the same alone as in the batch
        diameters = [geodesic_through(0.0, cmath.exp(1j * a)) for a in (0.1, 1.3, 2.2)]
        arcs = [geodesic_through(cmath.exp(1j * a), cmath.exp(1j * b)) for a, b in ((0.5, 1.5), (2.0, 4.0), (4.5, 4.5 + 1e-3))]
        pairs = [pair for d, a in zip(diameters, arcs) for pair in ((d, a), (a, d))]
        pairs += [(a, b) for a, b in zip(arcs, arcs[1:])] + [(diameters[0], diameters[1])]
        assert [is_diameter(g) for g, _ in pairs[:6]] == [True, False] * 3
        batch = _distance_rows(*zip(*pairs))
        assert batch.tolist() == [_distance_rows([g1], [g2])[0] for g1, g2 in pairs]
        assert batch[::-1].tolist() == _distance_rows(*zip(*pairs[::-1])).tolist()
        assert batch[-1] == 0.0 and np.all(batch[:-1] > 0.0)

    def test_distance_zero_for_crossing(self):
        g1 = geodesic_through(-0.5, 0.5)
        g2 = geodesic_through(-0.5j, 0.5j)
        assert geodesic_distance(g1, g2) == 0.0

    def test_distance_zero_for_a_shared_ideal_endpoint(self):
        # the search alone returned 1.39e-8 and 3.79e-8 here, and its ends
        # within 4 ulp still count as shared; the closed form is 0.0 for a
        # shared end, and the oracle too
        pairs = [
            (geodesic_through(1, -1), geodesic_through(1, 1j)),
            (geodesic_through(cmath.exp(0.3j), cmath.exp(2j)), geodesic_through(cmath.exp(0.3j), cmath.exp(-2j))),
        ]
        assert [geodesic_distance(g1, g2) for g1, g2 in pairs] == [0.0, 0.0]
        assert geodesic_distance(*zip(*pairs)).tolist() == [0.0, 0.0]
        assert _distance_rows(*zip(*pairs)).tolist() == [0.0, 0.0]

    def test_distance_of_ends_2e_14_apart(self):
        # z -> (z - 1)/(z + 1) sends the first geodesic to the negative real
        # axis, and the ends e^{i theta} of the second to i tan(theta/2).
        # Between the axis and a geodesic with ends i y1 and i y2 the distance
        # is arcosh((y2 + y1)/(y2 - y1)), here with y2 = 1: 2 arth sqrt(y1).
        # Ends within 2.8e-14 once counted as one ideal point, giving 0.0. The
        # search oracle finds it within 2%, the closed form within 1e-14
        g1, g2 = geodesic_through(1, -1), geodesic_through(cmath.exp(2e-14j), 1j)
        ref = 2.0 * math.atanh(math.sqrt(math.tan(1e-14)))
        assert _distance_rows([g1, g1], [g2, g2]) == pytest.approx([ref, ref], rel=0.02)
        assert geodesic_distance(g1, g2) == pytest.approx(ref, rel=1e-14)

    def test_distance_symmetric_ideal_pair(self):
        # the ten pairs of the symmetric-geodesic-distance sweep
        pairs = symmetric_pairs()
        for alpha, (g1, g2), (g3, g4) in zip(ALPHAS, pairs[0::2], pairs[1::2]):
            assert geodesic_distance(g1, g2) == pytest.approx(2.0 * math.atanh(math.cos(alpha)), abs=1e-12)
            center, radius = carrier(g3)
            t = center.imag - radius
            assert geodesic_distance(g3, g4) == pytest.approx(2.0 * math.log((1.0 + t) / (1.0 - t)), abs=1e-12)

    def test_distance_matches_lambert_sides(self):
        # the 60 configurations of the thorough lambert-oracle-agreement
        # sweep, in one call
        quads = thorough_quads()
        g_ad, g_bc = zip(*map(lambert_d1_pair, quads))
        assert geodesic_distance(g_ad, g_bc) == pytest.approx([q.d1 for q in quads], abs=1e-12)

    def test_sequences_equal_scalar_calls_bit_for_bit(self):
        quads = thorough_quads()
        diameter, arc = geodesic_through(-0.3 - 0.4j, 0.6 + 0.8j), geodesic_through(0.2 + 0.5j, 0.6 + 0.1j)
        crossing = (geodesic_through(-0.5, 0.5), geodesic_through(-0.5j, 0.5j))
        # first geodesics diameters (the Lambert pairs) and arcs (the symmetric
        # pairs), then every mix of kinds
        pairs = [*map(lambert_d1_pair, quads), *symmetric_pairs(), crossing]
        pairs += [(diameter, arc), (arc, diameter), (arc, geodesic_through(-0.2 - 0.5j, -0.6 - 0.1j))]
        batch = geodesic_distance(*zip(*pairs))
        assert isinstance(batch, np.ndarray) and batch.shape == (len(pairs),)
        assert batch.tolist() == [geodesic_distance(g1, g2) for g1, g2 in pairs]
        assert batch[pairs.index(crossing)] == 0.0

    def test_empty_sequences(self):
        dist = geodesic_distance([], ())
        assert isinstance(dist, np.ndarray) and dist.shape == (0,)

    def test_sequences_of_unequal_length(self):
        g = geodesic_through(-0.5, 0.5)
        with pytest.raises(DomainError):
            geodesic_distance([g, g], [g])
        with pytest.raises(DomainError):
            geodesic_distance(g, [g])

    def test_closed_form_within_4_ulp_of_mpmath(self):
        # seeded disjoint pairs: ends anywhere; four ends clustered, spaced
        # 1e-12 to 1; geodesics that nearly coincide, their ends 1e-12 to 0.1
        # apart; narrow geodesics at antipodes, 1e-12 to 0.1 wide (delta up
        # to 57); and the pair 1e-12 apart near e^i that the search got wrong
        # by 1.3e-4. The ends are floats within an ulp of the circle, so the
        # reference is the closed form at 50 digits on those floats: moving
        # ends 1e-12 apart onto the circle changes their chord by up to
        # (1e-16/1e-12)^2 relative, a change of the input. A sequence gives
        # each pair's scalar result bit for bit
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(DEFAULT_SEED + 31)
        angles = [(1.0 + 2e-12, 1.0 + 3e-12, 1.0, 1.0 + 1e-12)]
        for kind in range(400):
            t0, gap = rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(-12.0, 0.0, 3)
            if kind % 4 == 0:
                angles.append(tuple(np.sort(rng.uniform(-math.pi, math.pi, 4))))
            elif kind % 4 == 1:
                angles.append(tuple(t0 + np.cumsum([0.0, *gap])))
            elif kind % 4 == 2:
                s = rng.uniform(0.1, 3.0)
                angles.append((t0, t0 + s, t0 + s + 0.1 * gap[0], t0 + 2.0 * math.pi - 0.1 * gap[1]))
            else:
                angles.append((t0, t0 + 0.1 * gap[0], t0 + math.pi, t0 + math.pi + 0.1 * gap[0]))
        pairs = []
        for i, t in enumerate(angles):
            e = [cmath.exp(1j * x) for x in t]
            # each geodesic's ends in either order
            pairs.append((geodesic_through(*e[:2][:: 1 - 2 * (i % 2)]), geodesic_through(*e[2:][:: 1 - 2 * (i // 2 % 2)])))
        dist = [geodesic_distance(g1, g2) for g1, g2 in pairs]
        assert geodesic_distance(*zip(*pairs)).tolist() == dist
        with mp.workdps(50):
            for d, (g1, g2) in zip(dist, pairs):
                a, b, c, e = map(mp.mpc, map(complex, ends(g1) + ends(g2)))
                p, q, r = abs(a - c) * abs(b - e), abs(a - e) * abs(b - c), abs(a - b) * abs(c - e)
                assert r < max(p, q)
                ref = 2 * mp.asinh(mp.sqrt(min(p, q) / r))
                assert abs(d - ref) <= 4 * EPS * ref, (g1, g2)
        assert max(dist) > 50.0 and min(dist) < 1e-10

    def test_closed_form_agrees_with_the_oracle(self):
        # 64 seeded disjoint pairs whose ends are at least 1e-3 apart
        rng = np.random.default_rng(DEFAULT_SEED + 32)
        pairs = []
        while len(pairs) < 64:
            t = np.sort(rng.uniform(-math.pi, math.pi, 4))
            if np.diff(np.append(t, t[0] + 2.0 * math.pi)).min() >= 1e-3:
                e = cmath.exp(1j * t[0]), cmath.exp(1j * t[1]), cmath.exp(1j * t[2]), cmath.exp(1j * t[3])
                pairs.append((geodesic_through(e[0], e[1]), geodesic_through(e[3], e[2])))
        closed = geodesic_distance(*zip(*pairs))
        assert closed == pytest.approx(_distance_rows(*zip(*pairs)), rel=1e-12)

    def test_crossing_pairs_are_exactly_zero(self):
        # seeded interleaved ends, anywhere or clustered (spaced 1e-12 to 1),
        # in either order on the first geodesic
        rng = np.random.default_rng(DEFAULT_SEED + 33)
        pairs = []
        for i in range(200):
            t = np.sort(rng.uniform(-math.pi, math.pi, 4)) if i % 2 else rng.uniform(-3.0, 3.0) + np.cumsum(
                10.0 ** rng.uniform(-12.0, 0.0, 4))
            e = [cmath.exp(1j * x) for x in t]
            pairs.append((geodesic_through(*[e[0], e[2]][:: 1 - 2 * (i // 2 % 2)]), geodesic_through(e[1], e[3])))
        assert [geodesic_distance(g1, g2) for g1, g2 in pairs] == [0.0] * len(pairs)
        assert geodesic_distance(*zip(*pairs)).tolist() == [0.0] * len(pairs)

    @pytest.mark.parametrize("endpoints", [
        (Point(1.0), Point(1.0)),
        (Point(1.0), Point(0.5j)),
        (Point(0.5), Point(1j)),
    ], ids=["equal-ends", "interior-end", "interior-start"])
    def test_ends_not_two_points_of_the_circle_are_refused(self, endpoints):
        bad, good = Geodesic(endpoints), geodesic_through(-1, 1j)
        for call in (lambda: geodesic_distance(bad, good), lambda: geodesic_distance([good, good], [good, bad])):
            with pytest.raises(DomainError, match="two distinct ends on the unit circle"):
                call()

    def test_oracle_shares_no_code_with_the_closed_forms(self):
        # the registry checks lambert's, specfun's and qcbounds' closed forms
        # against geometry, so geometry imports nothing from the package but
        # its errors and _rows, which holds the function tables and no formula
        tree = ast.parse(Path(geometry.__file__).read_text())
        relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        imported = {n.module or a.name for n in relative for a in n.names}
        assert imported == {"errors", "_rows"}
        absolute = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        absolute |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level}
        assert not any(m.startswith("hyplam") for m in absolute)


class TestMoebius:
    def test_determinant_guard(self):
        with pytest.raises(DegenerateInputError):
            MoebiusMap(1, 2, 2, 4)

    @pytest.mark.parametrize("coeffs", [(math.nan, 0, 0, 1), (1, 0, 0, math.inf), (1, 1j, math.nan, 1)])
    def test_non_finite_coefficients_are_refused(self, coeffs):
        with pytest.raises(DegenerateInputError):
            MoebiusMap(*coeffs)

    @pytest.mark.parametrize(
        "coeffs,degenerate",
        [
            ((1, 0, 0, 1), False),
            ((2, 1j, 0.3, 1), False),
            ((1j, 1j, -1, 1), False),
            ((0.5, -0.3 + 0.1j, 0.2j, 1), False),
            ((1, 2, 2, 4), True),
            ((1, 1, 1, 1 + EPS), True),
        ],
        ids=["identity", "general", "cayley", "automorphism-like", "rank-one", "det-one-ulp"],
    )
    def test_determinant_guard_is_scale_free(self, coeffs, degenerate):
        def refused(scale):
            try:
                MoebiusMap(*(scale * c for c in coeffs))
            except DegenerateInputError:
                return True
            return False

        assert all(refused(10.0**k) == degenerate for k in range(-100, 101))
        # factors whose products of coefficients over- or underflow
        assert all(refused(scale) == degenerate for scale in (2.0**600, 2.0**-600, 1e200, 1e-200))

    def test_the_determinant_is_tested_at_the_scale_the_map_computes_with(self):
        inverse, identity = MoebiusMap(0, 2.0**600, 2.0**600, 0), MoebiusMap(1e-200, 0, 0, 1e-200)
        for z in (0.5, 0.3 - 0.2j, -0.7j, 1e-300, 1e300):
            assert inverse(z) == MoebiusMap(0, 1, 1, 0)(z)
            assert inverse(z) == pytest.approx(1.0 / z, rel=4 * EPS, abs=0.0)
            assert identity(z) == pytest.approx(z, rel=4 * EPS, abs=0.0)
        assert at_infinity(inverse(0.0)) and at_infinity(identity(Point(math.inf)))
        with pytest.raises(DegenerateInputError):
            MoebiusMap(2.0**600, 2.0**601, 2.0**601, 2.0**602)

    def test_disk_automorphism_near_the_circle_is_refused_as_before(self):
        # before the guard was relative, it refused |ad - bc| <= 1e-14; here
        # |ad| = 1, and |a| = 1 - k ulp/2 crosses that threshold near k = 45
        outcomes = set()
        for angle, phase in itertools.product(np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False), (0.0, 0.3)):
            for k in range(121):
                a = (1.0 - k * EPS / 2.0) * cmath.exp(1j * angle)
                if abs(a) >= 1.0:
                    with pytest.raises(DomainError):
                        MoebiusMap.disk_automorphism(a, phase)
                    continue
                e = cmath.exp(1j * phase)
                before = abs(e * 1.0 - (-e * a) * (-a.conjugate())) <= 1e-14
                try:
                    MoebiusMap.disk_automorphism(a, phase)
                    now = False
                except DegenerateInputError:
                    now = True
                assert now == before, (angle, phase, k)
                outcomes.add(now)
        assert outcomes == {True, False}

    def test_cayley_sends_disk_to_halfplane(self):
        cay = MoebiusMap.cayley()
        assert cay(0.0) == pytest.approx(1j)
        for z in (0.5, -0.3 + 0.4j, 0.1j):
            assert cay(z).imag > 0.0

    def test_pole_goes_to_infinity(self):
        m = MoebiusMap(1, 0, 1, -0.5)
        assert at_infinity(m(0.5))

    def test_pole_is_decided_at_every_scale(self):
        # z -> 1/z: 0 is the pole, 1e-301 and 1e-299 have finite images and
        # 1e-320 overflows, whatever the factor the map is written with
        for k in range(-100, 101):
            m = MoebiusMap(0, 10.0**k, 10.0**k, 0)
            assert at_infinity(m(0.0)) and at_infinity(m(1e-320))
            for z in (1e-301, 1e-299):
                assert not on_circle(m(z)) and not at_infinity(m(z))
                assert m(z).real == pytest.approx(1.0 / z, rel=4 * EPS, abs=0.0), (k, z)
            assert m(np.array([0.5, 1e-301]))[1].real == pytest.approx(1e301, rel=4 * EPS, abs=0.0)
            for pole in (0.0, 1e-320):
                with pytest.raises(DomainError):
                    m(np.array([0.5, pole]))

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_automorphisms_are_isometries(self, a, b, c, d, phase):
        x, y = interior(a, b), interior(c, d)
        m = MoebiusMap.disk_automorphism(interior(c, a, scale=0.5), phase)
        assert rho_disk(m(x), m(y)) == pytest.approx(rho_disk(x, y), abs=1e-10)

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
        assert p == pytest.approx(math.tanh(math.atanh(t) / 2.0), abs=1e-14)

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
            assert hyperbolic_midpoint(0.0, b) == pytest.approx(a, abs=1e-12)


class TestSquaredModulus:
    """Moduli only squared or compared with 1 are taken as x*x + y*y, not by hypot."""

    @staticmethod
    def _hypot_window(z):
        """Where the 64-ulp window on r = hypot(x, y) alone snaps."""
        return abs(np.hypot(z.real, z.imag) - 1.0) <= 64 * EPS

    def test_snap_is_the_hypot_window_bit_for_bit(self):
        # radii 1 +- k 2^-52, k = 0..160: across the window at k = 64, and
        # across the wider window on x*x + y*y, past which hypot is not taken
        k = np.arange(161)
        radii = np.concatenate([1.0 - k * EPS, 1.0 + k * EPS])
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        z = radii[:, None] * np.cos(angles) + 1j * (radii[:, None] * np.sin(angles))
        # a scalar divides as CPython does, each part by r, where r lies more
        # than 2 ulp from 1, and stays where it is within 2 ulp
        scalar = [geometry._snap(v) for v in z.ravel().tolist()]
        for v, (w, on) in zip(z.ravel().tolist(), scalar):
            assert on == (abs(abs(v) - 1.0) <= 64 * EPS)
            assert w == (v / abs(v) if 2 * EPS < abs(abs(v) - 1.0) <= 64 * EPS else v)
        scalar_bits = np.array([w for w, _ in scalar]).view(np.uint64).reshape(z.shape + (2,))
        # a row snaps to its scalar call's bits, all rows at once or one radius per call
        for rows, bits in ((z.ravel(), scalar_bits.reshape(-1, 2)), *zip(z, scalar_bits)):
            snapped, on = geometry._snap(rows)
            assert snapped.view(np.uint64).reshape(-1, 2).tolist() == bits.tolist()
            assert on.tolist() == self._hypot_window(rows).tolist()
        # each side of the circle: on within 63 ulp, off from 66 ulp out
        for side in self._hypot_window(z).reshape(2, 161, 64):
            assert side[:64].all() and not side[66:].any()

    def test_rows_near_the_circle_snap_to_their_scalar_bits(self):
        # random points within ~100 ulp of the circle, where numpy's complex
        # quotient (a multiply by 1/r) rounded a quarter of them otherwise
        rng = np.random.default_rng(3)
        n = 20_000
        radii = 1.0 + rng.integers(-100, 101, n) * EPS
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        z = radii * np.cos(angles) + 1j * (radii * np.sin(angles))
        rows, on = geometry._snap(z)
        scalar = [geometry._snap(v) for v in z.tolist()]
        assert on.tolist() == [o for _, o in scalar]
        assert rows.view(np.uint64).tolist() == np.array([w for w, _ in scalar]).view(np.uint64).tolist()

    def test_snap_is_idempotent_bit_for_bit(self):
        # every double radius from 70 ulp inside the circle to 70 ulp outside,
        # across the window, at 128 angles: a second snap gives each point
        # its bits and its flag back, on a scalar and on rows
        k = np.arange(141)
        radii = np.concatenate([1.0 - k * (EPS / 2.0), 1.0 + k[1:71] * EPS])
        angles = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        z = (radii[:, None] * np.cos(angles) + 1j * (radii[:, None] * np.sin(angles))).ravel()
        once, on = geometry._snap(z)
        twice, on_again = geometry._snap(once)
        assert twice.view(np.uint64).tolist() == once.view(np.uint64).tolist()
        assert on_again.tolist() == on.tolist()
        assert 0.5 < on.mean() < 1.0 and (once != z).mean() > 0.5
        for v in z.tolist():
            w, flag = geometry._snap(v)
            again, flag_again = geometry._snap(w)
            assert (again.real.hex(), again.imag.hex(), flag_again) == (w.real.hex(), w.imag.hex(), flag)

    def test_one_minus_squared_modulus_near_the_circle(self):
        # _disk_factor(|z|^2, |z|^2) = 1 - |z|^2 within eps / (1 - |z|), against
        # 300-bit mpmath on the float coordinates (0.31 seen; by hypot 0.28)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(DEFAULT_SEED)
        worst = []
        with mp.workprec(300):
            for k in range(1, 15):
                r = 1.0 - 10.0**-k
                angles = rng.uniform(0.0, 2.0 * math.pi, 500)
                z = r * np.cos(angles) + 1j * (r * np.sin(angles))
                rows_ns, scalar_ns = _rows.rows(), _rows.SCALAR
                sq = rows_ns.sq_abs(z)
                rows = geometry._disk_factor(sq, sq, rows_ns)
                scalars = [geometry._disk_factor(*[scalar_ns.sq_abs(complex(v))] * 2, scalar_ns) for v in z]
                assert rows.tolist() == scalars
                for v, f in zip(z.tolist(), rows.tolist()):
                    sq = mp.mpf(v.real) ** 2 + mp.mpf(v.imag) ** 2
                    worst.append(float(abs(f - (1 - sq)) / (1 - sq) * (1 - mp.sqrt(sq)) / EPS))
        assert max(worst) <= 1.0


def _disk_rows(n: int, seed: int):
    """Two rows of n Halton points in the disk of radius 0.98, and the
    condition number 1/(1 - max|z|) of rho at each pair."""
    u = _halton(n, 4, seed)
    z = 0.98 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    w = 0.98 * np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
    return z, w, 1.0 / (1.0 - np.maximum(abs(z), abs(w)))


class TestArrays:
    """The array path of each function against its scalar calls, row by row.

    rho_disk, rho_halfplane and absolute_ratio do the same float operations
    on both paths, so they agree to 4 ulp. Paths through a complex product
    or quotient do not: numpy rounds those differently from CPython, by an
    ulp of the operands. So Moebius images agree to 4 ulp of max(1, |image|),
    and rho_via_crossratio and hyperbolic_midpoint, whose results amplify
    such an ulp by up to the condition number 1/(1 - |z|) near the circle,
    to 4 ulp times that number.
    """

    def test_rho_disk(self):
        z, w, _ = _disk_rows(2000, DEFAULT_SEED)
        scalar = np.array([rho_disk(a, b) for a, b in zip(z, w)])
        assert np.all(abs(rho_disk(z, w) - scalar) <= 4 * EPS * scalar)
        # a scalar argument broadcasts over the rows
        scalar = np.array([rho_disk(0.0, b) for b in w])
        assert np.all(abs(rho_disk(0.0, w) - scalar) <= 4 * EPS * scalar)

    def test_rho_disk_scalar_against_mpmath(self):
        # the scalar path takes libm's asinh: within 2 ulp times the condition
        # number 1/(1 - max|z|) of rho, against 50 digits (1.0 seen)
        mp = pytest.importorskip("mpmath")
        z, w, kappa = _disk_rows(300, DEFAULT_SEED + 4)
        with mp.workdps(50):
            for a, b, k in zip(z.tolist(), w.tolist(), kappa.tolist()):
                za, zb = mp.mpc(a), mp.mpc(b)
                ref = 2 * mp.asinh(abs(za - zb) / mp.sqrt((1 - abs(za) ** 2) * (1 - abs(zb) ** 2)))
                assert abs(rho_disk(a, b) - ref) <= 2 * EPS * k * ref

    def test_rho_halfplane(self):
        cay = MoebiusMap.cayley()
        z, w, _ = _disk_rows(2000, DEFAULT_SEED + 1)
        hz, hw = cay(z), cay(w)
        scalar = np.array([rho_halfplane(a, b) for a, b in zip(hz, hw)])
        assert np.all(abs(rho_halfplane(hz, hw) - scalar) <= 4 * EPS * scalar)

    def test_absolute_ratio(self):
        u = 4.0 * _halton(2000, 8, DEFAULT_SEED + 2) - 2.0
        quad = [u[:, 2 * i] + 1j * u[:, 2 * i + 1] for i in range(4)]
        scalar = np.array([absolute_ratio(*row) for row in zip(*quad)])
        assert np.all(abs(absolute_ratio(*quad) - scalar) <= 4 * EPS * scalar)

    def test_rho_via_crossratio(self):
        z, w, kappa = _disk_rows(2000, DEFAULT_SEED + 3)
        scalar = np.array([rho_via_crossratio(a, b) for a, b in zip(z, w)])
        # d rho = d ratio / ratio: 4 ulp of the ratio e^rho, as a distance
        assert np.all(abs(rho_via_crossratio(z, w) - scalar) <= 4 * EPS * kappa * (1.0 + scalar))

    def test_rho_via_crossratio_through_the_origin(self):
        # rows collinear with 0 take the diameter, as geodesic_through does
        z = np.array([0.3 + 0.3j, -0.5, 0.2 - 0.1j])
        w = np.array([-0.2 - 0.2j, 0.25, 0.4 + 0.3j])
        scalar = [rho_via_crossratio(a, b) for a, b in zip(z, w)]
        assert rho_via_crossratio(z, w) == pytest.approx(scalar, rel=4 * EPS)

    def test_hyperbolic_midpoint(self):
        z, w, kappa = _disk_rows(2000, DEFAULT_SEED + 4)
        scalar = np.array([hyperbolic_midpoint(a, b) for a, b in zip(z, w)])
        assert np.all(abs(hyperbolic_midpoint(z, w) - scalar) <= 4 * EPS * kappa)
        # equal points are their own midpoint
        assert np.array_equal(hyperbolic_midpoint(z, z), z)

    @pytest.mark.parametrize(
        "m",
        [MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7), MoebiusMap.cayley(), MoebiusMap(2, 1j, 0.3, 1)],
        ids=["automorphism", "cayley", "general"],
    )
    def test_moebius_call(self, m):
        z, _, _ = _disk_rows(2000, DEFAULT_SEED + 5)
        scalar = np.array([m(a) for a in z])
        assert np.all(abs(m(z) - scalar) <= 4 * EPS * np.maximum(1.0, abs(scalar)))

    def test_near_circle_rows_snap_as_scalars_do(self):
        # without a RuntimeWarning, which tier-1 turns into an error: the
        # circle rows must not reach _rho's division
        x = np.array([NEAR_CIRCLE, NEAR_CIRCLE, 0.5, NEAR_CIRCLE, 0.1j])
        y = np.array([NEAR_CIRCLE, 0.2, NEAR_CIRCLE, -NEAR_CIRCLE, 0.3])
        rows = rho_disk(x, y)
        assert rows[:4].tolist() == [0.0, math.inf, math.inf, math.inf]
        assert rows.tolist() == [rho_disk(a, b) for a, b in zip(x, y)]
        m = MoebiusMap.disk_automorphism(0.3 - 0.2j, 0.7)
        image = m(np.array([NEAR_CIRCLE]))
        assert abs(image[0]) == pytest.approx(1.0, abs=EPS) and rho_disk(m(NEAR_CIRCLE), 0.5) == math.inf

    @pytest.mark.parametrize(
        "f", [rho_disk, rho_via_crossratio, hyperbolic_midpoint], ids=lambda f: f.__name__
    )
    def test_a_row_outside_the_disk_raises(self, f):
        x = np.array([0.1, 0.2j, 1.5])
        y = np.array([0.3, -0.4, 0.5j])
        with pytest.raises(DomainError):
            f(x, y)
        with pytest.raises(DomainError):
            f(1.5, 0.5j)

    @pytest.mark.parametrize("f", [rho_via_crossratio, hyperbolic_midpoint], ids=lambda f: f.__name__)
    def test_a_row_on_the_circle_raises(self, f):
        with pytest.raises(DomainError):
            f(np.array([0.1, NEAR_CIRCLE]), np.array([0.3, 0.5j]))

    def test_halfplane_row_below_raises(self):
        with pytest.raises(DomainError):
            rho_halfplane(np.array([1j, 2j]), np.array([1j, -1j]))

    def test_coincident_rows_raise(self):
        with pytest.raises(DegenerateInputError):
            absolute_ratio(np.array([0.1, 0.2]), np.array([0.5, 0.2]), 0.7j, -0.3)
        with pytest.raises(DegenerateInputError):
            rho_via_crossratio(np.array([0.1, 0.2]), np.array([0.5, 0.2]))

    def test_a_row_at_the_pole_raises(self):
        # a scalar call gives Point(math.inf) there, which a row of finite points cannot hold
        m = MoebiusMap(1, 0, 1, -0.5)
        with pytest.raises(DomainError):
            m(np.array([0.1, 0.5]))
