"""Whether a call holds rows, an ndarray (0-d included), and the two tables of
functions, by numpy's names, that the kernels of specfun, geometry, lambert
and qcbounds compute with: `SCALAR` on Python numbers and `rows()` on
ndarrays, each row under the scalar rules. Only a loaded numpy can have made
an ndarray, so `is_rows` reads numpy from sys.modules; `numpy()` alone imports
it. A table is a module, whose reads cost what math's do."""

import functools
import math
import sys
from operator import truediv
from types import ModuleType

from .errors import ConfigurationError, DomainError


def _table(name: str, functions: dict) -> ModuleType:
    (table := ModuleType(name)).__dict__.update(functions)
    return table


def _power(x, y):
    """x ** y for x > 0, inf where that overflows, as numpy's power gives it."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _ldexp(x, i):
    """x * 2**i for x > 0, inf where that overflows, as numpy's ldexp gives it."""
    try:
        return math.ldexp(x, i)
    except OverflowError:
        return math.inf


def _sq_abs(z):
    """|z|^2 as x*x + y*y: within 1.5 ulp of |z|^2, and inf past |z| ~ 1e154."""
    return z.real * z.real + z.imag * z.imag


#: math's functions and builtins under numpy's names: abs is |z| by hypot;
#: divide is x / y and ldexp x 2**i, inf where that overflows, as numpy's gives it;
#: where picks from branches its caller has computed, so each must be safe on
#: every input; fmax is max(0.0, x), 0.0 for a NaN x; math_asinh, math.asinh itself,
#: which the rows table applies row by row, as numpy's arcsinh rounds otherwise
SCALAR = _table("hyplam._rows.SCALAR", dict(
    sqrt=math.sqrt, exp=math.exp, expm1=math.expm1, log=math.log, log1p=math.log1p, cos=math.cos, sin=math.sin,
    arccos=math.acos, arctanh=math.atanh, arcsinh=math.asinh, math_asinh=math.asinh,
    divide=truediv, isfinite=math.isfinite, abs=abs, any=bool, minimum=min,
    fmax=max, where=lambda cond, a, b: a if cond else b, power=_power, sq_abs=_sq_abs,
    frexp=math.frexp, ldexp=_ldexp,
))


def numpy() -> ModuleType:
    """numpy, which only calls that hold rows need; ConfigurationError naming it where it cannot be imported."""
    try:
        import numpy as np
    except ImportError as exc:
        raise ConfigurationError(f"this call needs numpy, which could not be imported ({exc}): pip install numpy") from exc
    return np


@functools.cache
def rows() -> ModuleType:
    """numpy's functions under SCALAR's names, and the errstate, asarray,
    broadcast_arrays and empty that only rows call. abs is |z| by hypot, as on
    a scalar (numpy's complex abs rounds otherwise, which rho amplifies near
    the circle); sq_abs, power, divide and ldexp overflow to inf quietly, as a scalar does."""
    np = numpy()
    return _table("hyplam._rows.ROWS", {n: getattr(np, n, None) for n in vars(SCALAR) if n[0] != "_"} | dict(
        abs=lambda z: np.hypot(z.real, z.imag), sq_abs=np.errstate(over="ignore")(_sq_abs),
        power=np.errstate(over="ignore")(np.power), divide=np.errstate(over="ignore")(np.divide),
        ldexp=np.errstate(over="ignore")(np.ldexp),
        math_asinh=np.vectorize(math.asinh, otypes=[float]), errstate=np.errstate, asarray=np.asarray,
        broadcast_arrays=np.broadcast_arrays, empty=np.empty,
    ))


def is_rows(x) -> bool:
    """Whether x is an ndarray; a Python float is told by its type alone."""
    if type(x) is float:
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def ns(x, y=None) -> ModuleType:
    """The table the kernels take their functions from: rows() if x or y holds
    rows, else SCALAR. Private kernels take it as an argument, SCALAR by default."""
    return rows() if is_rows(x) or (y is not None and is_rows(y)) else SCALAR


def first_bad(ok, value):
    """None where the domain test ok holds: a bool for a scalar, or a mask for
    rows. Else value, or for rows the value of the first bad row."""
    if ok is True or not is_rows(ok):
        return None if ok else value
    return None if ok.all() else sys.modules["numpy"].broadcast_to(value, ok.shape)[~ok][0]


def require(ok, value, what: str, needs: str):
    """DomainError "<what> needs <needs>, got <value>" unless ok holds (see first_bad)."""
    if (bad := first_bad(ok, value)) is not None:
        raise DomainError(f"{what} needs {needs}, got {bad}")


def split_at(x, split, far, near, *args):
    """far(x, *args) where x >= split and near(x, *args) below: on rows x, each side
    in one call, with its rows of any ndarray arg of x's shape. A result may be a pair
    of rows. A row overflows to inf as quietly as a Python float's arithmetic does."""
    if not is_rows(x):
        return far(x, *args) if x >= split else near(x, *args)
    np = sys.modules["numpy"]
    is_far = x >= split
    side = lambda f, rows: f(x[rows], *(a[rows] if is_rows(a) else a for a in args))
    with np.errstate(over="ignore"):
        hi, lo = side(far, is_far), side(near, ~is_far)
    out = np.empty(np.shape(hi)[:-1] + x.shape)
    out[..., is_far], out[..., ~is_far] = hi, lo
    return out
