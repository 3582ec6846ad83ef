"""Exception types shared across the package, and `_Record`, the base of
its immutable records. This module is the bottom of the import graph, so
every layer, geometry included, may import it.
"""

from operator import itemgetter

#: a record in one step, _new_tuple(cls, values), with no check
_new_tuple = tuple.__new__


class HyplamError(Exception):
    pass


class DomainError(HyplamError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateInputError(HyplamError, ValueError):
    """Coincident or otherwise degenerate geometric input."""


class InconsistentQuadrilateralError(HyplamError, ValueError):
    """Side lengths incompatible with a Lambert quadrilateral."""


class NoRootError(HyplamError, ValueError):
    """The defining equation has no root in the admissible bracket."""


class ConfigurationError(HyplamError, ValueError):
    """Unknown sweep target or malformed sweep specification, or a call that
    needs numpy, which is no dependency of the package, where it is missing."""


class _Record(tuple):
    """An immutable record (`MoebiusMap`, `Geodesic`, `LambertQuad`,
    `BoundReport`, `GRange`, `QcBoundInput`, `QcBoundResult`): a tuple whose
    first items are its fields, the parameters of its class's `__new__`, the
    public constructor, which runs the record's checks. A builder holding
    checked values makes one in one step, `_new_tuple(cls, values)`. A record
    equals only a record of its own class, never a bare tuple, and hashes as
    its items; repr, copy, pickle and `_replace` read the fields alone, so items
    derived from them may follow. Each subclass declares `__slots__ = ()`."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return self[: len(self._fields)]

    def _replace(self, **changes):
        """The record with the named fields changed, by its checking constructor."""
        return type(self)(**dict(zip(self._fields, self), **changes))
