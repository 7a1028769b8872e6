"""Quasi-periodic CMV matrices with skew-shift Verblunsky coefficients.

Numerical realizations of the operator family, its transfer-matrix cocycle,
Lyapunov-exponent estimators, finite-volume Green's functions, and the
eigenvector-decay localization diagnostic, plus a batch experiment runner
(``skewcmv`` on the command line, :mod:`skewcmv.cli` in process).
"""

from .model import (
    DiophantineCertificate,
    Frequency,
    Phase,
    SchemeError,
    TrigPolynomial,
    VerblunskyScheme,
    diophantine_margin,
    scheme_from_json,
    scheme_hash,
    scheme_to_json,
    skew_shift_orbit,
    skew_shift_step,
    verblunsky_at,
    verblunsky_range,
)
from .cmv import (
    BoundaryPair,
    CharPoly,
    CMVWindow,
    CoefficientError,
    assemble_window,
    char_poly,
    theta_block,
)
from .cocycle import (
    FactoredProduct,
    ScalingFactor,
    scaling_factor,
    sl2r_conjugate,
    szego_matrix,
    transfer_product,
    transfer_via_determinants,
)
from .lyapunov import (
    AvalancheReport,
    DeviationProfile,
    LyapunovEstimate,
    SamplingConfig,
    avalanche_residual,
    deviation_profile,
    estimate_Ln,
    estimate_Ln_many,
    extrapolate_limit,
    multiscale_residual,
    positivity_margin,
    uniform_bound_check,
)
from .green import (
    DavisSimonGap,
    GreenMatrix,
    SpectrumError,
    davis_simon_gap,
    green_decay_fit,
    green_entry_via_polys,
    green_matrix,
    restriction_residual,
    tilde_boundary_values,
)
from .localization import (
    EigenPair,
    LocalizationReport,
    decay_fit,
    finite_size_drift,
    inverse_participation_ratio,
    localization_scan,
    window_spectrum,
)

__version__ = "0.1.0"
