"""Surface area, volume, and isoperimetric ratio of n-dimensional
axis-aligned ellipsoids, computed by five mutually checking methods:

* ``mc``         Monte Carlo mean over the unit sphere
* ``gauss``      Monte Carlo through the Gaussian moment transform
* ``laplace``    deterministic 1-D quadrature (the accuracy reference)
* ``lauricella`` Lauricella F_D series / Euler integral
* ``asymptotic`` closed-form large-n estimate

plus rigorous two-sided L2 bounds.  See the ``ellipsurf`` CLI for the
scripted interface.
"""

from .bounds import (
    BoundsReport,
    ConcentrationDiagnostic,
    bounds_l2,
    concentration_diagnostic,
    gamma_ratio_asymptotic_check,
    iso_ratio_asymptotic,
    lp_norm,
)
from .geometry import (
    Ellipsoid,
    Estimate,
    VolumeOverflowError,
    ellipsoid_volume,
    gamma_half_ratio,
    log_ellipsoid_volume,
    log_unit_ball_volume,
    log_unit_sphere_area,
    surface_area,
    unit_ball_volume,
    unit_sphere_area,
)
from .lauricella import FdParams, fd_integral, fd_series, iso_ratio_lauricella
from .mc import (
    HomogeneousFn,
    McConfig,
    RngStream,
    gaussian_mean_mc,
    iso_ratio_mc,
    lp_norm_fn,
    sphere_mean_mc,
    sphere_mean_via_gaussian,
    sqrt_qform_fn,
)
from .quadrature import (
    QuadResult,
    alpha_integral_corrected,
    default_alpha,
    iso_ratio_quad,
    sqrt_qform_moment,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ConcentrationDiagnostic",
    "Ellipsoid",
    "Estimate",
    "FdParams",
    "HomogeneousFn",
    "McConfig",
    "QuadResult",
    "RngStream",
    "VolumeOverflowError",
    "alpha_integral_corrected",
    "bounds_l2",
    "concentration_diagnostic",
    "default_alpha",
    "ellipsoid_volume",
    "fd_integral",
    "fd_series",
    "gamma_half_ratio",
    "gamma_ratio_asymptotic_check",
    "gaussian_mean_mc",
    "iso_ratio_asymptotic",
    "iso_ratio_lauricella",
    "iso_ratio_mc",
    "iso_ratio_quad",
    "log_ellipsoid_volume",
    "log_unit_ball_volume",
    "log_unit_sphere_area",
    "lp_norm",
    "lp_norm_fn",
    "sphere_mean_mc",
    "sphere_mean_via_gaussian",
    "sqrt_qform_fn",
    "sqrt_qform_moment",
    "surface_area",
    "unit_ball_volume",
    "unit_sphere_area",
]
