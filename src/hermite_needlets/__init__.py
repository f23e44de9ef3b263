"""Hermite needlet frames on R^d (d = 1, 2).

Builds tight and dual needlet frames from smoothed Hermite projector
kernels, verifies their localization and reconstruction identities, and
computes the associated smoothness-scale norms from needlet coefficients.
"""

from .cutoffs import (
    CutoffPair,
    SmoothCutoff,
    make_pair,
    make_quadratic_cutoff,
    make_type_a,
    make_type_b,
    partition_residual,
)
from .errors import (
    DimensionMismatchError,
    FrameDepthError,
    FrameMismatchError,
    IngestionAccuracyError,
    InsufficientQuadratureError,
    InvalidDegreeError,
    NeedletError,
    NumericFailureError,
    ParameterError,
    ResolutionError,
    ResourceError,
)
from .function_spaces import (
    GridSpec,
    SpaceParams,
    approximation_norm,
    b_continuous_norm,
    b_sequence_norm,
    best_approx_error,
    default_grid,
    f_continuous_norm,
    f_sequence_norm,
    nikolskii_ratio,
    shift_study,
    smooth_bump,
)
from .hermite_core import (
    HermiteExpansion,
    hermite_function,
    project_function,
)
from .needlet_frame import (
    FrameLevel,
    NeedletCoefficients,
    NeedletFrame,
    analyze,
    build_frame,
    build_level,
    half_node_count,
    level_kernel,
    localization_profile,
    synthesize,
)
from .quadrature import (
    CubatureRule,
    QuadratureRule1D,
    gauss_hermite_rule,
    hermite_zeros,
    product_cubature,
)

__version__ = "0.1.0"
