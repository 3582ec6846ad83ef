"""Exception types shared across the package."""


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
    """Unknown sweep target or malformed sweep specification."""
