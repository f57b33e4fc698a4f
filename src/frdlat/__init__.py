"""Finite range decomposition of lattice Green functions.

Splits the Green function of a periodic discrete elliptic operator into
positive semidefinite scale kernels with strict spatial ranges, verifies
the construction against dense oracles and envelope bounds, samples the
corresponding Gaussian scale fields, and evaluates coefficient
derivatives by contour quadrature.
"""

from .analyticity import (
    BoundReport,
    DerivativeResult,
    contour_derivatives,
    derivative_bound_check,
    derivative_sum_residual,
    fd_agreement,
    fd_derivative,
    radius_agreement,
)
from .config import RunConfig, parse_config
from .decomposition import (
    ComplexDecompositionResult,
    CubeSchedule,
    DecompositionResult,
    build_schedule,
    complex_decompose,
    decompose,
    far_field_constant,
    kernel_sup_norm,
)
from .elliptic import (
    ComplexEllipticPath,
    EllipticMap,
    green_symbol,
    identity_map,
    validate_map,
)
from .errors import (
    CubeTooLarge,
    EmptyFarRegion,
    FactorizationFailure,
    FrdError,
    ImaginaryResidue,
    InsufficientScales,
    InvalidSchedule,
    NotConverged,
    NotPSD,
    NotPositiveDefinite,
    NotSymmetric,
    OrderTooHigh,
    OutsideDisc,
    ParseError,
    ShapeMismatch,
    SingularSymbol,
    TooLargeForOracle,
    ValidationError,
    ZeroFrequency,
)
from .fields import (
    Field,
    GradientField,
    apply_elliptic,
    backward_divergence,
    dirichlet_form,
    forward_gradient,
)
from .lattice import Cube, TorusGeometry, cube, rho_inf
from .projector import assemble_stiffness, oracle_projection, projector_symbol
from .sampling import (
    CovarianceEstimate,
    SamplerState,
    build_sampler,
    covariance_deviation,
    dense_reference_samples,
    run_sampling_suite,
    sample_component,
    sample_total,
)
from .spectral import Kernel, MultiplierTable, kernel_derivative, multiplier_to_kernel
from .verification import (
    DecayReport,
    EnvelopeReport,
    brute_force_green,
    check_finite_range,
    check_psd,
    check_sum,
    check_symmetry,
    decay_table,
    diagnostics,
    envelope_report,
    eta,
    green_equation_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
