"""Tail-dependence classification for bivariate heavy-tailed data.

Given nonnegative pairs (X, Y) with a heavy-tailed radius R = X + Y,
this package estimates the angular support of the limit measure and
runs bootstrap hypothesis tests to decide whether the asymptotic
dependence is full (one ray), strong (a proper angular interval) or
weak (the whole quadrant).
"""

from taildep.tail_core import (
    AngularCone,
    BivariateSample,
    RadialOrder,
    acf,
    cone_distance,
    cone_distances,
    log_returns,
    radial_order,
)
from taildep.estimators import (
    StatisticValue,
    angle_weighted_hill,
    cone_adjusted_hill,
    hill,
    masked_angle_weighted_hill,
)
from taildep.support_fit import (
    SupportEstimate,
    SupportFitOptions,
    estimate_support,
    support_objective,
)
from taildep.statdist import chisq_quantile, f_quantile, normal_quantile
from taildep.boot_tests import (
    TestConfig,
    TestReport,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import (
    MixtureSpec,
    example1,
    example2,
    generate,
    pareto,
    sample_beta,
    uniform_off_cone,
)

__version__ = "0.1.0"

__all__ = [
    "AngularCone",
    "BivariateSample",
    "RadialOrder",
    "MixtureSpec",
    "StatisticValue",
    "SupportEstimate",
    "SupportFitOptions",
    "TestConfig",
    "TestReport",
    "acf",
    "angle_weighted_hill",
    "chisq_quantile",
    "cone_adjusted_hill",
    "cone_distance",
    "cone_distances",
    "estimate_support",
    "example1",
    "example2",
    "f_quantile",
    "full_dependence_test",
    "generate",
    "hill",
    "log_returns",
    "masked_angle_weighted_hill",
    "normal_quantile",
    "pareto",
    "radial_order",
    "sample_beta",
    "strong_dependence_test",
    "support_objective",
    "uniform_off_cone",
    "weak_dependence_test",
]
