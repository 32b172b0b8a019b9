"""Entropy tracking and entropy-maximizing data selection for
self-consuming generative training loops, at desk scale."""

from .errors import (
    CollapseLabError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    EmptyDatasetError,
    FormatError,
    InsufficientPointsError,
    NumericalError,
)
from .generators import FitDiagnostics, FittedGenerator, GeneratorSpec, fit, sample
from .looper import (
    ComparisonSummary,
    CorrelationReport,
    IterationRecord,
    LoopConfig,
    LoopTrace,
    compare_traces,
    correlate_trace,
    derive_seed,
    run_loop,
    splitmix64,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from .metrics import (
    EPS_FLOOR,
    EntropyReport,
    MomentSummary,
    frechet_gaussian_distance,
    generalization_score,
    kl_entropy,
    mnnd,
    moment_summary,
    pearson,
)
from .neighbors import kth_nn_within, nn_cross
from .selection import SelectionPolicy, SelectionResult, run_policy
from .specfun import digamma, log_gamma, log_unit_ball_volume
from .tensorset import (
    EUCLIDEAN,
    DistanceMetric,
    FeatureMap,
    PointSet,
    apply_feature_map,
    load_pointset,
    save_pointset,
    source_proportions,
)

__version__ = "0.1.0"
