"""Fractional perimeters and seminorms on the unit sphere.

Numerical companions to the spherical fractional isoperimetric inequality:
Monte Carlo and quadrature estimators for the s-perimeter, the exact circle
formula, great-circle integral geometry (two-point plane identity, Crofton
crossings), and the extrapolated limits s -> 1, s -> -infinity and s -> 0^-.
"""

from .estimation import (
    Estimate,
    NonFiniteSampleError,
    RandomStream,
    as_stream,
    mc_estimate,
)
from .geometry import (
    cap_area,
    geodesic_distance,
    sample_uniform,
    sphere_surface,
    unit_vector,
    volume_radius,
)
from .integral_geometry import (
    BPReport,
    CroftonReport,
    bp_check,
    bp_constant,
    crofton_estimate,
    symmetric_overlap_measure,
)
from .limits import (
    ComparisonReport,
    LimitReport,
    ProfileReport,
    SweepRow,
    VanishingReport,
    beta_asymptotic_check,
    concentration_constant,
    extrapolate,
    isoperimetric_comparison,
    isoperimetric_profile,
    random_disjoint_cap_pair,
    s_to_zero_vanishing_check,
    sweep_s_to_1,
    sweep_s_to_minus_inf,
    sweep_seminorm_to_minus_inf,
)
from .perimeter import (
    Constant,
    Coordinate,
    perimeter_by_method,
    perimeter_cap,
    perimeter_circle_exact,
    perimeter_mc,
    perimeter_minus_n,
    validate_s,
)
from .sets import (
    ArcUnion,
    Cap,
    Complement,
    DegenerateCircleError,
    PolyconvexUnion,
    Polytope,
    Reflection,
    trace,
)

__version__ = "0.1.0"

__all__ = [
    "ArcUnion",
    "BPReport",
    "Cap",
    "ComparisonReport",
    "Complement",
    "Constant",
    "Coordinate",
    "CroftonReport",
    "DegenerateCircleError",
    "Estimate",
    "LimitReport",
    "NonFiniteSampleError",
    "PolyconvexUnion",
    "Polytope",
    "ProfileReport",
    "RandomStream",
    "Reflection",
    "SweepRow",
    "VanishingReport",
    "as_stream",
    "beta_asymptotic_check",
    "bp_check",
    "bp_constant",
    "cap_area",
    "concentration_constant",
    "crofton_estimate",
    "extrapolate",
    "geodesic_distance",
    "isoperimetric_comparison",
    "isoperimetric_profile",
    "mc_estimate",
    "perimeter_by_method",
    "perimeter_cap",
    "perimeter_circle_exact",
    "perimeter_mc",
    "perimeter_minus_n",
    "random_disjoint_cap_pair",
    "s_to_zero_vanishing_check",
    "sample_uniform",
    "sphere_surface",
    "sweep_s_to_1",
    "sweep_s_to_minus_inf",
    "sweep_seminorm_to_minus_inf",
    "symmetric_overlap_measure",
    "trace",
    "unit_vector",
    "validate_s",
    "volume_radius",
]
