"""The registry's oracles: golden-section search; geodesic_distance's,
_distance_rows; mu's, the AGM (_agm_mu), and mu^{-1}'s, a bisection on it;
and the Lambert side distances, _sides.

They are plain implementations that share no code with the closed forms they
check. One import rule keeps it so (tests/test_layering.py): this module
imports no package module but _rows, and no closed-form module imports it. A
closed form that an oracle needs comes in as an argument, as golden_min's f.
"""

import math

from . import _rows

np = _rows.numpy()

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_min(f, a, b, tol=1e-12):
    """Minimize a unimodal f on [a, b] to b - a <= tol (or a few doubles); returns (x, f(x))."""
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while abs(b - a) > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_max(f, a, b, tol=1e-12):
    x, fx = golden_min(lambda t: -f(t), a, b, tol=tol)
    return x, -fx


_PARAM_MARGIN = 1e-9
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
    samples = np.linspace(0.0, 1.0, 17)  # each round shrinks an interior bracket 8-fold
    # the samples next to each sample, or the end sample itself, bound the next bracket
    below, above = np.append(samples[:1], samples[:-1]), np.append(samples[1:], samples[-1:])
    lo, hi = np.zeros(rows), np.ones(rows)
    while True:
        width = hi - lo
        vals = f(lo + width * samples[:, None])
        open_ = width > _BRACKET_WIDTH
        if not open_.any():
            return vals.min(axis=0)
        i = np.argmin(vals, axis=0)
        lo, hi = (
            np.where(open_, lo + width * below[i], lo),
            np.where(open_, lo + width * above[i], hi),
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
        e1, e2 = (p / abs(p) for p in g.endpoints)
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


def _least_over_g2(ar, ai, br, bi):
    """Per row, the least h(u) = |A u + B|^2 / (u (1 - u)) over the u that
    _clamped reaches, for A = ar + i ai and B = br + i bi, in real arithmetic.

    With C = A + B, h = |C|^2 s + |B|^2 / s + 2 Re(C conj B) in s = u/(1 - u),
    least at s = |B|/|C|: u* = |B|/(|B| + |C|), clamped to _clamped's ends.
    A = B = 0, where h is 0 everywhere, takes u* = 0 rather than 0/0."""
    nb, nc = np.hypot(br, bi), np.hypot(ar + br, ai + bi)
    den = nb + nc
    u = np.clip(nb / np.where(den > 0.0, den, 1.0), _clamped(0.0), _clamped(1.0))
    re, im = ar * u + br, ai * u + bi
    return (re * re + im * im) / ((1.0 - u) * u)


def _distance_rows(gs1, gs2):
    """geodesic_distance's oracle: each pair's distance as the least, over z
    on the first geodesic, of the distance from z to the second, each with
    one minimum as rho is convex along geodesics (Bridson and Haefliger,
    Metric Spaces of Non-positive Curvature, 1999, II.2.2, II.2.5).

    The outer minimum is searched (_bracket_min over the pairs), the inner
    one exact at each outer sample. Both minimise sinh^2(rho/2) = |z - w|^2
    / ((1 - |z|^2)(1 - |w|^2)), which is monotone in rho; rho = 2 arsh(sqrt(.))
    is taken once, of the minimum. With w(v) on the second geodesic as in
    _ends_form and z fixed, z - w = -(P v + Q)/(1 + i sigma x0 v) for
    P = i sigma (m - x0 z) and Q = m x0 - z, so

        sinh^2(rho/2) = |P v + Q|^2 / ((1 - |z|^2) c (1 - v^2))
                      = |A u + B|^2 / (4 (1 - |z|^2) c u (1 - u)),

    with v = 2u - 1, A = 2P and B = Q - P. A and B are taken once per outer
    sample, _least_over_g2 gives the least |A u + B|^2 / (u (1 - u)) in real
    arithmetic, with no complex division, and the factor 1/(4 (1 - |z|^2)
    c) is applied to it.
    """
    if not gs1:
        return np.zeros(0)
    form1 = _ends_form(gs1)
    m, x0, sigma, c = _ends_form(gs2)
    mr, mi = m.real, m.imag

    def to_g2(t1):
        zr, zi, z_factor = _on_geodesics(form1, t1)
        # A and B of each outer sample, in real and imaginary parts
        pr, pi = sigma * (x0 * zi - mi), sigma * (mr - x0 * zr)
        br, bi = mr * x0 - zr - pr, mi * x0 - zi - pi
        return _least_over_g2(2.0 * pr, 2.0 * pi, br, bi) / (4.0 * z_factor * c)

    rho = 2.0 * np.arcsinh(np.sqrt(_bracket_min(to_g2, len(gs1))))
    ends1, ends2 = (np.array([g.endpoints for g in gs], dtype=complex) for gs in (gs1, gs2))
    shared = (abs(ends1[:, :, None] - ends2[:, None, :]) <= _SHARED_END_TOL).any(axis=(1, 2))
    return np.where((rho < _INTERSECT_TOL) | shared, 0.0, rho)


def _agm(a, b):
    """The arithmetic-geometric mean of rows a, b in (0, 1], by the plain loop
    that stops once |a - b| <= 2^-52 a, with a 64-step cap; a row that has
    settled keeps its a and b while the others step on."""
    for _ in range(64):
        moving = np.abs(a - b) > 2.0**-52 * a
        if not moving.any():
            break
        a, b = np.where(moving, 0.5 * (a + b), a), np.where(moving, np.sqrt(a * b), b)
    return 0.5 * (a + b)


def _agm_mu(rs: np.ndarray) -> np.ndarray:
    """Oracle for mu: pi/2 agm(1, r')/agm(1, r) on rows r in (0, 1), with
    r' = sqrt((1 - r)(1 + r)) (Anderson, Vamanamurthy and Vuorinen, 1997)."""
    return math.pi / 2.0 * _agm(1.0, np.sqrt((1.0 - rs) * (1.0 + rs))) / _agm(1.0, rs)


def _mu_inverse_bisect(ys: np.ndarray) -> np.ndarray:
    """Oracle for mu^{-1}: bisection on the strictly decreasing AGM mu, row by
    row, until each midpoint is an end (adjacent doubles, or 0 and the smallest
    one). A settled midpoint (maybe 1) stays whatever mu says, so mu is taken at 0.5."""
    lo, hi = np.zeros_like(ys), np.ones_like(ys)
    while True:
        mid = 0.5 * (lo + hi)
        settled = (mid == lo) | (mid == hi)
        if settled.all():
            return mid
        above = _agm_mu(np.where(settled, 0.5, mid)) > ys
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)


def _sides(L, theta):
    """The oracle of a Lambert quadrilateral's side distances, (arth(L cos
    theta), arth(L sin theta)), on floats or arrays; plain numpy, so that it
    shares no code with lambert.side_distances."""
    return _sides_cs(L, np.cos(theta), np.sin(theta))


def _sides_cs(L, cos, sin):
    """_sides from cos theta and sin theta, for a grid of theta swept at many L."""
    return np.arctanh(L * cos), np.arctanh(L * sin)
