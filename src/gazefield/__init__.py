"""Scanpath simulation driven by attention potential fields.

The pipeline turns a brightness video into a gaze trajectory: per-pixel
salient mass is built from spatial detail and motion, the mass sources a
potential field (relaxed directly or evolved in time), and the focus of
attention moves as a damped particle in that field.  Inhibition of return
suppresses mass where the gaze has already been so the scanpath keeps
exploring.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionError,
    DomainError,
    GazefieldError,
    GridSizeError,
    NumericalError,
    ParameterError,
    PgmParseError,
    SingularityError,
)
from .retina import (
    BlurSchedule,
    Field2D,
    FlowField,
    FrameSequence,
    VectorField2D,
    gaussian_blur,
    gradient,
    laplacian,
    load_pgm,
    magnitude,
    save_pgm,
    schedule_sigma,
    temporal_derivative,
)
from .optical_flow import (
    FeatureChannel,
    FeatureStack,
    HsParams,
    conjugation_residual,
    feature_group_flow,
    horn_schunck,
    hs_objective,
)
from .mass import (
    IorField,
    IorParams,
    MassParams,
    MotionSource,
    ior_step,
    mass_density,
)
from .potential import (
    Mode,
    PotentialState,
    TelegraphParams,
    convergence_in_c,
    direct_potential,
    evolve_potential,
    poisson_solve,
    stable_dt,
)
from .foa import (
    AttractionSign,
    BoundaryPolicy,
    FoaParams,
    FoaSample,
    FoaState,
    Scanpath,
    detect_saccades,
    energy,
    foa_step,
    sample_gradient,
)

__version__ = "0.1.0"
