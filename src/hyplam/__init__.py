"""Sharp bounds for products and sums of opposite-side distances in Lambert
and ideal hyperbolic quadrilaterals, with quasiconformal-image bounds and a
brute-force verification registry."""

from . import _rows
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    HyplamError,
    InconsistentQuadrilateralError,
    NoRootError,
)
from .geometry import (
    Geodesic,
    MoebiusMap,
    Point,
    absolute_ratio,
    geodesic_distance,
    geodesic_through,
    hyperbolic_midpoint,
    rho_disk,
    rho_halfplane,
    rho_via_crossratio,
)
from .lambert import (
    BoundReport,
    IDEAL_PRODUCT_BOUND,
    IDEAL_SUM_BOUND,
    LambertQuad,
    SUM_CASE1_MAX,
    SUM_CASE3_MIN,
    alpha_from_quadruple,
    beardon_phi,
    ideal_quad,
    lambert_from,
    product_bound,
    product_report,
    sum_bounds,
)
from .qcbounds import (
    QcBoundInput,
    QcBoundResult,
    QcRegime,
    R1,
    R1_PRIME,
    TH1,
    qc_ideal_bound,
    qc_product_bound,
    solve_r_LK,
)
from .specfun import (
    ConvexityClass,
    GRange,
    arth,
    big_C_of_p,
    classify_convexity,
    distortion_A,
    distortion_bracket,
    g_range,
    grotzsch_mu,
    holder_mean,
    lemma_F_c,
    lemma_G_c,
    lemma_f_c,
    mu_inverse,
    phi_K,
    rprime,
    threshold_C,
)

__version__ = "0.1.0"

#: names from the registry, which is loaded on first use (PEP 562): importing
#: it costs 17-29 ms that the bound reports and the CLI's other subcommands
#: do not need
_VERIFY_NAMES = ("Certificate", "REGISTRY", "SweepSpec", "run_all", "run_sweep")
#: the names of the reports, the geometry and the special functions, which need no numpy
_REPORT_NAMES = [name for name in dir() if not name.startswith("_")]


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    if name == "__all__":
        # the registry needs numpy: a star import binds its names only where
        # numpy can be imported, and the report's names everywhere
        try:
            _rows.numpy()
        except ConfigurationError:
            return list(_REPORT_NAMES)
        return _REPORT_NAMES + list(_VERIFY_NAMES)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
