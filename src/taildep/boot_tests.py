"""Bootstrap hypothesis tests for the three dependence regimes.

Three procedures, all resampling m points with replacement B times:

* strong_dependence_test -- is the angular support contained in [a, b]?
  Flags resamples whose cone-adjusted Hill statistic strays from the
  full-sample Hill estimate by more than a normal band; rejects when
  the flagged fraction exceeds the significance level.
* full_dependence_test -- one ray vs an interval. Compares the
  bootstrap variance of the angle-weighted Hill statistic against a
  chi-square band; also reports the proportion-rule flag rate, which
  catches the chi-square rule's known false acceptances.
* weak_dependence_test -- interval vs whole quadrant. F-ratio of the
  bootstrap variances of the plain and cone-masked angle-weighted
  statistics over two independent resample batches.

Every resample draws from its own Philox substream keyed by
(seed, test code, batch, slot, attempt), so serial and parallel runs
agree bit-for-bit at any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taildep.datagen import stream
from taildep.statdist import chisq_quantile, f_quantile, normal_quantile
from taildep.tail_core import AngularCone, BivariateSample, cone_distances

_TEST_CODES = {"H1": 1, "H2": 2, "H3": 3}
_MAX_ATTEMPTS = 10  # redraw budget per resample slot

REJECT = "reject"
FAIL_TO_REJECT = "fail_to_reject"


class DegenerateResample(Exception):
    """A resample on which the requested statistic is undefined."""


@dataclass(frozen=True)
class TestConfig:
    """Tuning knobs shared by the three bootstrap tests.

    m_n defaults to round(n / k_n) and k_mn to max(5, round(0.05 * m_n))
    when left unset.
    """

    k_n: int
    seed: int = 0
    m_n: int | None = None
    k_mn: int | None = None
    B: int = 2000
    lam: float = 1.0
    alpha_sig: float = 0.05
    threads: int = 1

    def __post_init__(self) -> None:
        if self.k_n < 1:
            raise ValueError("k_n must be positive")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if not (0.0 < self.alpha_sig < 1.0):
            raise ValueError("alpha_sig must lie in (0, 1)")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def resolve(self, n: int) -> tuple[int, int]:
        """Return (m_n, k_mn) with defaults filled in; validates against n."""
        if self.k_n >= n:
            raise ValueError(f"k_n = {self.k_n} must be below the sample size {n}")
        m = self.m_n if self.m_n is not None else max(2, round(n / self.k_n))
        k = self.k_mn if self.k_mn is not None else max(5, round(0.05 * m))
        if not (1 <= k < m):
            raise ValueError(f"need 1 <= k_mn < m_n, got k_mn={k}, m_n={m}")
        return int(m), int(k)


@dataclass
class TestReport:
    """Verdict plus every intermediate quantity, for auditability."""

    test_id: str
    verdict: str
    statistic: float
    threshold: float | tuple[float, float]
    per_resample: list[float]
    auxiliary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        thr = self.threshold
        return {
            "test_id": self.test_id,
            "verdict": self.verdict,
            "statistic": self.statistic,
            "threshold": list(thr) if isinstance(thr, tuple) else thr,
            "per_resample": list(self.per_resample),
            "auxiliary": dict(self.auxiliary),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TestReport":
        thr = d["threshold"]
        return cls(
            test_id=d["test_id"],
            verdict=d["verdict"],
            statistic=d["statistic"],
            threshold=tuple(thr) if isinstance(thr, list) else thr,
            per_resample=list(d["per_resample"]),
            auxiliary=dict(d["auxiliary"]),
        )


def resample(s: BivariateSample, m: int, gen: np.random.Generator) -> BivariateSample:
    """m points drawn with replacement, uniform over the sample."""
    if m < 1:
        raise ValueError("resample size must be positive")
    idx = gen.integers(0, s.n, m)
    return BivariateSample(s.x[idx], s.y[idx])


# ---------------------------------------------------------------------------
# internal machinery

def _full_sample_hill(r: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    order = np.argsort(-r, kind="stable")
    rk = r[order[k - 1]]
    if rk <= 0:
        raise ValueError(f"R_({k}) must be positive")
    hill = float(np.mean(np.log(r[order[:k]] / rk)))
    if hill == 0.0:
        raise ValueError(
            f"the {k} largest radii are all tied, so the Hill estimate is 0 "
            "and the tests are undefined"
        )
    return hill, order


def _resample_stats(
    s: BivariateSample,
    cfg: TestConfig,
    test_code: int,
    batch: int,
    stat_fn: Callable[[np.ndarray, np.random.Generator], float],
    m: int,
) -> np.ndarray:
    """Per-resample statistics for slots 0..B-1.

    Each slot has its own redraw chain: a degenerate resample moves to
    the next attempt substream, keeping determinism under any thread
    count. The reduction order is fixed by the output array.
    """
    n = s.n
    out = np.empty(cfg.B)

    def run(t: int) -> None:
        for attempt in range(_MAX_ATTEMPTS):
            gen = stream(cfg.seed, test_code, batch, t, attempt)
            idx = gen.integers(0, n, m)
            try:
                out[t] = stat_fn(idx, gen)
                return
            except DegenerateResample:
                continue
        raise RuntimeError(
            f"resample slot {t} stayed degenerate after {_MAX_ATTEMPTS} redraws"
        )

    if cfg.threads == 1:
        for t in range(cfg.B):
            run(t)
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(run, range(cfg.B)))
    return out


def _top_k(r: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Indices of the k largest entries (stable descending) and the k-th value."""
    order = np.argsort(-r, kind="stable")[:k]
    return order, float(r[order[-1]])


def _cone_adjusted_hill_on(idx, x, y, r, k, cone) -> float:
    rs = r[idx]
    top, rk = _top_k(rs, k)
    if rk <= 0:
        raise DegenerateResample
    logr = np.log(rs[top] / rk)
    d = cone_distances(x[idx][top], y[idx][top], cone)
    return float(np.mean((1.0 + d / rk) * logr))


def _angle_weighted_hill_on(idx, r, theta, k) -> float:
    rs = r[idx]
    top, rk = _top_k(rs, k)
    if rk <= 0:
        raise DegenerateResample
    th = theta[idx][top]
    denom = float(th.sum())
    if denom <= 0:
        raise DegenerateResample
    return float(np.dot(th, np.log(rs[top] / rk))) / denom


def _masked_angle_weighted_hill_on(idx, r, theta, k, cone) -> float:
    th = theta[idx]
    mask = cone.contains_angle(th)
    rs = r[idx] * mask
    top, rk = _top_k(rs, k)
    th_top = (th * mask)[top]
    denom = float(th_top.sum())
    if denom <= 0:
        return 1.0
    if rk > 0:
        terms = np.log(np.maximum(rs[top] / rk, 1.0))
    else:
        terms = np.zeros(k)
    return float(np.dot(th_top, terms)) / denom


# ---------------------------------------------------------------------------
# the three tests

def strong_dependence_test(
    s: BivariateSample, cone: AngularCone, cfg: TestConfig
) -> TestReport:
    """Bootstrap test of whether the angular support lies inside the cone.

    Rejects when the fraction of resamples whose cone-adjusted Hill
    statistic leaves the normal band around the full-sample Hill
    estimate exceeds the significance level.
    """
    m, k_m = cfg.resolve(s.n)
    r = s.radii
    hill_full, _ = _full_sample_hill(r, cfg.k_n)
    z = normal_quantile(1.0 - cfg.alpha_sig / 2.0)
    band = z * hill_full / math.sqrt(k_m)

    x, y = s.x, s.y
    stats = _resample_stats(
        s, cfg, _TEST_CODES["H1"], 0,
        lambda idx, gen: _cone_adjusted_hill_on(idx, x, y, r, k_m, cone), m,
    )
    flagged = np.abs(stats - hill_full) > band
    rate = float(np.mean(flagged))
    verdict = REJECT if rate > cfg.alpha_sig else FAIL_TO_REJECT
    return TestReport(
        test_id="H1",
        verdict=verdict,
        statistic=rate,
        threshold=cfg.alpha_sig,
        per_resample=stats.tolist(),
        auxiliary={
            "name": "strong_dependence",
            "hill": hill_full,
            "band_halfwidth": band,
            "rejection_rate": rate,
            "cone": [cone.a, cone.b],
            "m_n": m,
            "k_mn": k_m,
        },
    )


def full_dependence_test(s: BivariateSample, cfg: TestConfig) -> TestReport:
    """Bootstrap variance test of full (single-ray) dependence.

    The statistic k_mn * SE_boot^2 / H^2 is compared against the upper
    chi-square band; under a one-point angular measure it concentrates
    near 1. The auxiliary proportion rule flags resamples whose
    angle-weighted statistic leaves the normal band, a secondary check
    that catches false acceptances when the angular spread is small.
    """
    m, k_m = cfg.resolve(s.n)
    r = s.radii
    theta = s.angles
    hill_full, order = _full_sample_hill(r, cfg.k_n)
    theta0_hat = float(np.mean(theta[order[: cfg.k_n]]))
    z = normal_quantile(1.0 - cfg.alpha_sig / 2.0)
    band = z * hill_full / math.sqrt(k_m)

    stats = _resample_stats(
        s, cfg, _TEST_CODES["H2"], 0,
        lambda idx, gen: _angle_weighted_hill_on(idx, r, theta, k_m), m,
    )
    se_boot = float(np.std(stats, ddof=1))
    statistic = k_m * se_boot**2 / hill_full**2
    threshold = chisq_quantile(1.0 - cfg.alpha_sig, cfg.B - 1) / (cfg.B - 1)
    proportion = float(np.mean(np.abs(stats - hill_full) > band))
    verdict = REJECT if statistic > threshold else FAIL_TO_REJECT
    return TestReport(
        test_id="H2",
        verdict=verdict,
        statistic=statistic,
        threshold=threshold,
        per_resample=stats.tolist(),
        auxiliary={
            "name": "full_dependence",
            "hill": hill_full,
            "se_boot": se_boot,
            "proportion_rule_rate": proportion,
            "proportion_rule_reject": proportion > cfg.alpha_sig,
            "theta0_hat": theta0_hat,
            "m_n": m,
            "k_mn": k_m,
        },
    )


def weak_dependence_test(
    s: BivariateSample, cone: AngularCone, cfg: TestConfig
) -> TestReport:
    """Bootstrap F-ratio test of strong vs weak dependence.

    Two independent resample batches yield the plain and cone-masked
    angle-weighted statistics; equal variances (ratio inside the F
    band) support the angular support being [a, b].
    """
    if cone.is_full:
        raise ValueError("weak-dependence test needs a proper cone [a, b] != [0, 1]")
    m, k_m = cfg.resolve(s.n)
    r = s.radii
    theta = s.angles
    hill_full, _ = _full_sample_hill(r, cfg.k_n)

    stats_plain = _resample_stats(
        s, cfg, _TEST_CODES["H3"], 1,
        lambda idx, gen: _angle_weighted_hill_on(idx, r, theta, k_m), m,
    )
    stats_masked = _resample_stats(
        s, cfg, _TEST_CODES["H3"], 2,
        lambda idx, gen: _masked_angle_weighted_hill_on(idx, r, theta, k_m, cone), m,
    )
    var_plain = float(np.var(stats_plain, ddof=1))
    var_masked = float(np.var(stats_masked, ddof=1))
    if var_masked == 0.0:
        raise ValueError(
            f"the cone [{cone.a}, {cone.b}] holds no top-{k_m} mass in any resample, "
            "so the masked statistic has zero variance and the F ratio is undefined"
        )
    statistic = var_plain / var_masked
    lo = f_quantile(cfg.alpha_sig / 2.0, cfg.B - 1, cfg.B - 1)
    hi = f_quantile(1.0 - cfg.alpha_sig / 2.0, cfg.B - 1, cfg.B - 1)
    verdict = REJECT if (statistic < lo or statistic > hi) else FAIL_TO_REJECT
    return TestReport(
        test_id="H3",
        verdict=verdict,
        statistic=statistic,
        threshold=(lo, hi),
        per_resample=stats_plain.tolist(),
        auxiliary={
            "name": "weak_dependence",
            "hill": hill_full,
            "var_plain": var_plain,
            "var_masked": var_masked,
            "per_resample_masked": stats_masked.tolist(),
            "cone": [cone.a, cone.b],
            "m_n": m,
            "k_mn": k_m,
        },
    )
