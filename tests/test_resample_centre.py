"""The m-out-of-n bootstrap's centre at paper scale, independent of the streams.

A resample draws m of the n sample points with replacement and keeps its k
largest radii. Let J_i be the sample position, in decreasing radius order,
of the resample's i-th largest radius. J_i <= j when at least i draws land
in the top j positions, so

    P(J_i = j) = P(Bin(m, (j-1)/n) <= i-1) - P(Bin(m, j/n) <= i-1),

and the resample Hill value H* = (1/k) sum_{i<=k} log R_(J_i) - log R_(J_k)
has the exact mean

    E*[H*] = sum_j w_j log R_(j),  w_j = (1/k) sum_{i<=k} P(J_i = j) - P(J_k = j).

Tied radii have equal logs, so how a resample breaks ties does not matter.
The sum stops at the least depth J where P(Bin(m, J/n) <= k-1) < 1e-16:
J_k, and so every J_i, exceeds J with less probability than that, and the
order is read to J, not to n.

The reference is checked against every resample of samples of at most 7
points, then H1's per_resample at the full cone, where the cone-adjusted
value is the Hill value bit for bit, must lie within |z| < 4 of it on each
of seeds 0-4, z from the normal approximation to a mean of B iid
resamples. The seeds and the bound were fixed before the first run.
"""

import itertools
import math

import numpy as np
import pytest

from taildep.boot_tests import TestConfig as Config, strong_dependence_test
from taildep.datagen import example1
from taildep.tail_core import AngularCone, BivariateSample, radial_order

TAIL_MASS = 1e-16
Z_BOUND = 4.0


def _binomial_cdfs(n, m, k):
    """F[j, i] = P(Bin(m, j/n) <= i), j = 0..n, i = 0..k-1, from the
    binomial log-pmfs at t = 0..k-1 (k < m), summed cumulatively in t."""
    t = np.arange(k)
    log_choose = np.array([math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
                           for i in t])
    p = np.arange(1, n + 1)[:, None] / n
    with np.errstate(divide="ignore"):  # log(1 - p) = -inf at p = 1, where the pmf is 0
        log_pmf = log_choose + t * np.log(p) + (m - t) * np.log1p(-p)
    return np.vstack((np.ones(k), np.cumsum(np.exp(log_pmf), axis=1)))


def exact_mean(s, m, k):
    """E*[H*] of the resample Hill value at k over m-out-of-n resamples of s."""
    F = _binomial_cdfs(s.n, m, k)
    depth = int(np.argmax(F[:, k - 1] < TAIL_MASS))  # F[n, k - 1] = 0, so one exists
    p = F[:depth] - F[1 : depth + 1]  # p[j - 1, i - 1] = P(J_i = j), j = 1..depth
    w = p.mean(axis=1) - p[:, k - 1]
    return float(np.dot(w, np.log(radial_order(s).head(depth).sorted_r)))


def enumerated_mean(s, m, k):
    """The mean of H* over all n^m ordered draws, each of probability n^-m."""
    r = s.radii
    total = 0.0
    for idx in itertools.product(range(s.n), repeat=m):
        top = np.sort(r[list(idx)])[::-1][:k]
        total += float(np.mean(np.log(top / top[-1])))
    return total / s.n**m


@pytest.mark.parametrize("x, y, m, k", [
    ([0.0, 2.0, 0.5, 1.0, 0.5], [3.0, 1.0, 1.5, 3.0, 0.5], 4, 3),  # radii 3, 3, 2, 4, 1
    ([1.0, 0.0, 3.0, 0.0, 1.0, 2.0, 0.5], [1.0, 2.0, 1.0, 4.0, 3.0, 0.0, 0.25], 4, 2),
    ([1.0, 0.0, 3.0, 0.0, 1.0, 2.0, 0.5], [1.0, 2.0, 1.0, 4.0, 3.0, 0.0, 0.25], 3, 2),
    ([0.9, 4.0, 2.5, 0.1, 7.0, 1.0], [0.2, 1.0, 0.5, 0.3, 1.0, 2.0], 4, 3),
], ids=["five_tied", "seven_tied_m4", "seven_tied_m3", "six_distinct"])
def test_exact_mean_matches_enumeration(x, y, m, k):
    s = BivariateSample(x, y)
    assert exact_mean(s, m, k) == pytest.approx(enumerated_mean(s, m, k), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_resampler_centres_on_the_exact_mean(seed):
    cfg = Config(k_n=100, seed=seed, m_n=500, k_mn=25, B=20000)
    s = example1(30000, seed)
    draws = strong_dependence_test(s, AngularCone(0.0, 1.0), cfg).per_resample
    assert len(draws) == cfg.B
    draws = np.asarray(draws)
    z = (draws.mean() - exact_mean(s, 500, 25)) / (draws.std(ddof=1) / math.sqrt(cfg.B))
    assert abs(z) < Z_BOUND, z
