"""Numerical workbench for polyhedral chains with group coefficients.

Chains, excess functionals, the epiperimetric comparison-surface
pipeline, moment computations, monotonicity verifiers, and a multiscale
flatness scanner, with exact low-degree integration throughout.
"""

__version__ = "0.1.0"

from .chains import (
    HalfSpaceRegion,
    PolyChain,
    Simplex,
    ball_mass,
    boundary,
    cone,
    cone_mass_formula,
    homogeneous_extend,
    is_cone,
    mass,
    pushforward_linear,
    restrict,
    size,
    slice_mass_profile,
)
from .epi import (
    EpiConfig,
    StageError,
    annulus_interpolate,
    averaged_graph,
    build_comparison,
    mollified_graph,
    trace_and_split,
)
from .generators import generate
from .groups import GroupSpec, NormedCoefficient, cantor, group_gap, integers, unit_discrete
from .layers import cylindrical_excess, decompose_layers, height_sup, multiplicity_stats
from .mono import (
    DensityProfile,
    Gauge,
    almost_minimal_probe,
    almost_monotone_check,
    alpha_m,
    decay_bound,
    gauge_integral,
    lambda_epi,
    spherical_excess,
)
from .moments import beta_numbers, moments_all, quad_form, select_plane
from .planes import OrientedPlane, plane_distance
from .scan import extract_graph, find_frame, multiscale_scan, theoretical_exponent

__all__ = [
    "__version__",
    "HalfSpaceRegion",
    "PolyChain",
    "Simplex",
    "ball_mass",
    "boundary",
    "cone",
    "cone_mass_formula",
    "homogeneous_extend",
    "is_cone",
    "mass",
    "pushforward_linear",
    "restrict",
    "size",
    "slice_mass_profile",
    "EpiConfig",
    "StageError",
    "annulus_interpolate",
    "averaged_graph",
    "build_comparison",
    "mollified_graph",
    "trace_and_split",
    "generate",
    "GroupSpec",
    "NormedCoefficient",
    "cantor",
    "group_gap",
    "integers",
    "unit_discrete",
    "cylindrical_excess",
    "decompose_layers",
    "height_sup",
    "multiplicity_stats",
    "DensityProfile",
    "Gauge",
    "almost_minimal_probe",
    "almost_monotone_check",
    "alpha_m",
    "decay_bound",
    "gauge_integral",
    "lambda_epi",
    "spherical_excess",
    "beta_numbers",
    "moments_all",
    "quad_form",
    "select_plane",
    "OrientedPlane",
    "plane_distance",
    "extract_graph",
    "find_frame",
    "multiscale_scan",
    "theoretical_exponent",
]
