"""Composable sketches for concave sublinear frequency statistics.

Estimates any statistic of the form sum over keys of f(key weight), for
concave f with sublinear growth, by mapping stream elements to output
elements whose (max-)distinct statistics are sketched with mergeable
bottom-k summaries.
"""

from .core import (
    Element,
    ElementValidationError,
    FrequencyDistribution,
    IllPosedTransformError,
    IncompatibleSketchError,
    ParseError,
    RandomnessSource,
    UnsupportedStatisticError,
    aggregate,
    hash_key,
    hash_keys,
)
from .estimators import (
    CombinationPipeline,
    FullRangePipeline,
    PointPipeline,
    SignedCombinationPipeline,
    SignedEstimate,
    signed_estimate,
)
from .mappers import MapperConfig, choose_replication
from .oracle import exact_measurement, exact_statistic, zipf_ranks
from .sketches import AllThresholdSketch, DistinctCounter, MaxDistinctSketch, SumCounter
from .transforms import (
    CappingTransform,
    CoefficientFunction,
    SignedCoefficientFunction,
    StatisticSpec,
    THREE_POINT_STABLE,
    THREE_POINT_TIGHT,
    cap1_approximation,
    capping_transform,
    inverse_transform,
    laplace_c,
    lift_cap1_to_f,
    measured_function,
    parse_statistic,
    rho_estimate,
)

__version__ = "0.1.0"
