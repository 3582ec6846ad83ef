"""Scalar golden-section extremum search, and its refinement of a grid.

These are deliberately plain implementations: they are used as independent
numerical oracles against closed-form answers, so they must not share code
with the formulas they are checking.
"""

import math

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


def _neighbours(xs, i):
    return xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]


def refine_grid_min(f, xs, fs, tol=1e-12):
    """Golden refinement of f between the neighbours of the first smallest
    entry of the ndarray fs, the samples of f on the grid xs; returns (x, f(x))."""
    return golden_min(f, *_neighbours(xs, int(fs.argmin())), tol=tol)


def refine_grid_max(f, xs, fs, tol=1e-12):
    """As refine_grid_min, around the first largest entry of fs."""
    return golden_max(f, *_neighbours(xs, int(fs.argmax())), tol=tol)
