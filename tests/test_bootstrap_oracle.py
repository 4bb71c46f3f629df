"""An exact oracle for the m-out-of-n bootstrap, independent of the streams.

At n <= 7 and m <= 4 the law of one resample can be enumerated: each of
the n^m ordered draws has probability n^-m, and its value is the public
estimator on the draw sorted by a stable argsort of its radii, which is
the bootstrap's rank * m + position order. The per_resample values of the
three tests at B = 40000 are compared with that law for each statistic:

* the largest gap between the empirical and the exact CDF is below
  1.95 / sqrt(B), about the 0.1 % Kolmogorov-Smirnov level, which a
  discrete law only makes more conservative;
* the sample mean and variance lie within four standard errors of the
  exact ones.

A draw on which a public estimator is undefined is scored as the
bootstrap scores it, by the convention of taildep.estimators: the
angle-weighted statistic by the masked one at the cone [0, 1], and the
cone-adjusted statistic as 0 where R_(k) = 0.

The samples, cones and seeds were fixed before the first run.
"""

import collections
import itertools
import math

import numpy as np
import pytest

from taildep.boot_tests import (
    TestConfig as Config,
    full_dependence_test,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.estimators import angle_weighted_hill, cone_adjusted_hill, masked_angle_weighted_hill
from taildep.tail_core import AngularCone, BivariateSample, RadialOrder

B = 40000
SE_BOUND = 4.0

# (x, y, cone, cfg): tied radii, points with x = 0 and one origin point each
SAMPLES = {
    # radii 3, 3, 2, 2, 2, 0; angles 0, 2/3, 0, 1/2, 1/4 and the origin's 0
    "six_points": ([0.0, 2.0, 0.0, 1.0, 0.5, 0.0], [3.0, 1.0, 2.0, 1.0, 1.5, 0.0],
                   AngularCone(0.25, 0.75), Config(k_n=3, seed=2016, m_n=4, k_mn=2, B=B)),
    # radii 2, 2, 4, 4, 4, 2, 0; a cone from the theta = 0 ray holds the x = 0 points
    "seven_points": ([1.0, 0.0, 3.0, 0.0, 1.0, 2.0, 0.0], [1.0, 2.0, 1.0, 4.0, 3.0, 0.0, 0.0],
                     AngularCone(0.0, 0.5), Config(k_n=4, seed=7, m_n=3, k_mn=2, B=B)),
}


def _exact_laws(s, m, statistics):
    """{name: (values, probabilities)} of each statistic, a function of a
    RadialOrder, over the n^m ordered draws of m points from s. A draw is
    ordered by a stable argsort of its radii, which also orders a draw of
    origin points only, which radial_order refuses; draws that order to the
    same points are scored once."""
    r = s.radii
    orders = collections.Counter(
        tuple(np.array(idx)[np.argsort(-r[list(idx)], kind="stable")].tolist())
        for idx in itertools.product(range(s.n), repeat=m)
    )
    weights = np.array(list(orders.values()), dtype=float) / s.n**m
    laws = {}
    for name, statistic in statistics.items():
        values = np.array([statistic(RadialOrder(s.x[i], s.y[i]))
                           for i in map(list, orders)])
        support, where = np.unique(values, return_inverse=True)
        laws[name] = support, np.bincount(where, weights)
    return laws


def _assert_follows(draws, support, p, what):
    draws = np.asarray(draws)
    grid = np.union1d(support, draws)
    exact_cdf = np.cumsum(p)[np.searchsorted(support, grid, side="right") - 1]
    exact_cdf[grid < support[0]] = 0.0
    empirical_cdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    gap = float(np.max(np.abs(empirical_cdf - exact_cdf)))
    assert gap < 1.95 / math.sqrt(draws.size), (what, gap)

    mean = float(np.dot(p, support))
    var = float(np.dot(p, (support - mean) ** 2))
    mu4 = float(np.dot(p, (support - mean) ** 4))
    assert abs(draws.mean() - mean) <= SE_BOUND * math.sqrt(var / draws.size), (what, "mean")
    assert abs(draws.var(ddof=1) - var) <= SE_BOUND * math.sqrt((mu4 - var**2) / draws.size), (
        what, "variance")


@pytest.mark.parametrize("name", list(SAMPLES))
def test_resamples_follow_the_exact_law(name):
    x, y, cone, cfg = SAMPLES[name]
    s = BivariateSample(x, y)
    m, k = cfg.resolve(s.n)
    assert s.n <= 7 and m <= 4

    def adjusted(o):
        return 0.0 if o.head(k).sorted_r[k - 1] == 0.0 else cone_adjusted_hill(o, k, cone).value

    def plain(o):
        try:
            return angle_weighted_hill(o, k).value
        except ValueError:
            return masked_angle_weighted_hill(o, k, AngularCone(0.0, 1.0)).value

    laws = _exact_laws(s, m, {
        "adjusted": adjusted,
        "plain": plain,
        "masked": lambda o: masked_angle_weighted_hill(o, k, cone).value,
    })
    h3 = weak_dependence_test(s, cone, cfg)
    cases = [
        ("H1", strong_dependence_test(s, cone, cfg).per_resample, laws["adjusted"]),
        ("H2", full_dependence_test(s, cfg).per_resample, laws["plain"]),
        ("H3 plain", h3.per_resample, laws["plain"]),
        ("H3 masked", h3.auxiliary["per_resample_masked"], laws["masked"]),
    ]
    for what, draws, (support, p) in cases:
        assert len(draws) == B
        _assert_follows(draws, support, p, what)
