"""Whether a call holds rows, an ndarray (0-d included), for specfun, lambert,
qcbounds and the CLI. Only a loaded numpy can have made one, so numpy is read
from sys.modules, never imported; a row branch reaches it through `ns`."""

import math
import sys

from .errors import DomainError


def is_rows(x) -> bool:
    """Whether x is an ndarray; a Python float is told by its type alone."""
    if type(x) is float:
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def ns(x, y=None):
    """The namespace the kernels take their functions from: numpy if x or y holds
    rows, else math. Private kernels take it as an argument, math by default."""
    return sys.modules["numpy"] if is_rows(x) or (y is not None and is_rows(y)) else math


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
    in one call, with its rows of any ndarray arg of x's shape. A result may be a pair of rows."""
    if not is_rows(x):
        return far(x, *args) if x >= split else near(x, *args)
    np = sys.modules["numpy"]
    is_far = x >= split
    side = lambda f, rows: f(x[rows], *(a[rows] if is_rows(a) else a for a in args))
    hi, lo = side(far, is_far), side(near, ~is_far)
    out = np.empty(np.shape(hi)[:-1] + x.shape)
    out[..., is_far], out[..., ~is_far] = hi, lo
    return out
