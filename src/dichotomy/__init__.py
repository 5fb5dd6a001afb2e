"""Dichotomy analysis for non-autonomous linear discrete-time systems.

The package verifies, estimates and falsifies four flavors of exponential
dichotomy (uniform, nonuniform, exponential, strong) for systems
x_{n+1} = A(n) x_n split by a compatible projection family, and evaluates
the corresponding weighted-summation criteria. All magnitudes travel in
sign/log-magnitude form so the extreme built-in examples stay exact.
"""

from .certificates import (
    ConstantProfile,
    DichotomyCertificate,
    Kind,
    Profile,
    ScaledProfile,
    ShiftedPowerProfile,
    TabulatedProfile,
    TowerExponentProfile,
    VerificationOutcome,
    WindowSpec,
    Witness,
    WitnessReport,
)
from .checkers import (
    ExponentialEstimate,
    UniformEstimate,
    WitnessSchedule,
    default_alpha_grid,
    default_beta_grid,
    estimate_ed,
    estimate_ued,
    falsify,
    minimal_ned_profile,
    optimal_N_for_alpha,
    verify_certificate,
    verify_triplet_form,
)
from .datko import (
    DatkoReport,
    SummationConstants,
    certificate_to_datko,
    overall_verdict,
    verify_datko_ed,
    verify_datko_ned,
    verify_datko_ued,
)
from .errors import (
    ConfigError,
    DecayGapError,
    DegenerateRangeError,
    DenseOverflowError,
    DichotomyError,
    EmptyFeasibleSetError,
    IncompatibleProjectionError,
    IndexOrderError,
    InvalidCertificateError,
    InvalidConstantsError,
    InvalidProjectionError,
    LogOverflowError,
    NoDecayCertificateError,
    OutOfRangeError,
    ParamOutOfRangeError,
    ScheduleOutOfRangeError,
    UnknownExampleError,
)
from .gallery import (
    CertificateClaim,
    FalsificationClaim,
    GalleryEntry,
    StrongInstabilityClaim,
    closed_form_amn,
    gallery_names,
    make_example,
    raw_factor_log,
)
from .logscalar import LogScalar
from .system import (
    DiagonalClosedForm,
    ExplicitSequence,
    ProjectionFamily,
    RestrictedExtremes,
    SystemDescription,
    compatibility_defect,
    restricted_extremes,
    restricted_ratio_extremes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
