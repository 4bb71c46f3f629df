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

Every resample draws integers(0, n, m) from its own Philox substream,
stream(seed, test code, batch, slot, attempt), and is scored by its
statistic's row kernel in taildep.estimators on its k_mn largest radii.
The substreams and the indices are the ones stream() and integers give;
only the way there is cheaper. datagen.stream_keys derives the Philox
keys of a whole block of slots in one numpy pass of SeedSequence's hash.
One Philox is reset to each key in turn and returns raw 64-bit words,
and one numpy pass per chunk of slots maps them to indices by the rule
numpy's integers uses below 2**32: Lemire's multiply-shift with
rejection on the 32-bit halves of each word, low half first
(_SlotDraws). Each drawn point's key (dense radius rank in the full
sample) * m + draw position orders a resample exactly as a stable sort
by decreasing radius does, so a partition picks the k_mn largest
without sorting the row. All of it runs on one thread.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# stream is the per-slot contract; perfbench/tracer.py rebinds boot_tests.stream
from taildep.datagen import stream, stream_keys  # noqa: F401
from taildep.estimators import (
    RowValues,
    _angle_weighted_hill_rows,
    _cone_adjusted_hill_rows,
    _masked_angle_weighted_hill_rows,
    cone_adjusted_hill,
    hill,
)
from taildep.statdist import chisq_quantile, f_quantile, normal_quantile
from taildep.tail_core import AngularCone, BivariateSample, RadialOrder, radial_order

_TEST_CODES = {"H1": 1, "H2": 2, "H3": 3}
_MAX_ATTEMPTS = 10  # redraw budget per resample slot
_CHUNK_ROWS = 64  # resample slots evaluated together; bounds the working set

REJECT = "reject"
FAIL_TO_REJECT = "fail_to_reject"


@dataclass(frozen=True)
class TestConfig:
    """Tuning knobs shared by the three bootstrap tests.

    m_n defaults to round(n / k_n) and k_mn to max(5, round(0.05 * m_n))
    when left unset. k_n, seed, m_n, k_mn and B must be integers.
    """

    k_n: int
    seed: int = 0
    m_n: int | None = None
    k_mn: int | None = None
    B: int = 2000
    alpha_sig: float = 0.05

    def __post_init__(self) -> None:
        for name in ("k_n", "seed", "m_n", "k_mn", "B"):
            value = getattr(self, name)
            if value is None and name in ("m_n", "k_mn"):
                continue
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.k_n < 1:
            raise ValueError("k_n must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if not (0.0 < self.alpha_sig < 1.0):
            raise ValueError("alpha_sig must lie in (0, 1)")

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


def resample(s: BivariateSample, m: int, gen: np.random.Generator) -> BivariateSample:
    """m points drawn with replacement, uniform over the sample."""
    if m < 1:
        raise ValueError("resample size must be positive")
    idx = gen.integers(0, s.n, m)
    return BivariateSample(s.x[idx], s.y[idx])


# ---------------------------------------------------------------------------
# internal machinery

def _full_sample_hill(s: BivariateSample, k: int) -> tuple[float, RadialOrder]:
    ordered = radial_order(s)
    value = hill(ordered, k).value
    if value == 0.0:
        raise ValueError(
            f"the {k} largest radii are all tied, so the Hill estimate is 0 "
            "and the tests are undefined"
        )
    return value, ordered


def _require_positive_angle(s: BivariateSample) -> None:
    if not np.any(s.angles > 0.0):
        raise ValueError(
            "no point has a positive angle (every x is 0), so the angle-weighted "
            "statistic is undefined on theta == 0 data"
        )


def _draw_ranks(s: BivariateSample, cone: AngularCone | None = None) -> np.ndarray:
    """Dense rank of each sample point's radius, 0 for the largest; tied
    radii share a rank. With a cone, every point outside it ranks after
    every point inside."""
    rank = np.unique(-s.radii, return_inverse=True)[1]
    if cone is not None:
        rank = rank + np.where(cone.contains_angle(s.angles), 0, rank.max() + 1)
    return rank


class _SlotDraws:
    """Draws of Generator.integers(0, n, m) from per-slot Philox keys.

    One Philox is reset to each key (counter 0, empty buffers) through its
    state setter, so it starts where a fresh stream(...) with that key
    starts, and returns raw 64-bit words. For n - 1 < 2**32 - 1 numpy's
    bounded draw reads those words as 32-bit halves, low half first, and
    applies Lemire's multiply-shift to each: the index is (u * n) >> 32,
    and a half is rejected when (u * n) mod 2**32 < (2**32 - n) mod n.
    The same rule, applied here to a whole block of rows at once, draws
    the same indices.
    """

    def __init__(self, n: int, m: int) -> None:
        if n >= 2**32:
            raise ValueError(f"sample size {n} is too large: resample indices are drawn below 2**32")
        self.n, self.m = n, m
        # m + 1 or m + 2 halves: the spare ones absorb most rejections
        self.words = m // 2 + 1
        # the low 32 bits of u * n fall below this for a rejected half
        self._threshold = np.uint32((2**32 - n) % n)
        self._bits = np.random.Philox(key=np.zeros(2, np.uint64))
        self._fresh = self._bits.state

    def _raw(self, key: np.ndarray, words: int) -> np.ndarray:
        self._fresh["state"]["key"] = key
        self._bits.state = self._fresh
        return self._bits.random_raw(words)

    def _map(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices from rows of raw words: each row's first m accepted
        halves, and the mask of rows that hold m accepted halves."""
        m = self.m
        # a word's low half is drawn first; "<u4" reads it so on any host
        halves = raw.astype("<u8", copy=False).view("<u4")
        # u * n needs 64 bits; dtype= stops numpy 1.x from keeping it uint32
        scaled = np.multiply(halves, np.uint64(self.n), dtype=np.uint64)
        accepted = scaled.astype(np.uint32) >= self._threshold
        # below 2**32, so the int64 view is the value
        idx = (scaled[:, :m] >> np.uint64(32)).view(np.int64)
        full = np.ones(len(raw), dtype=bool)
        hit = np.flatnonzero(~accepted[:, :m].all(axis=1))
        if hit.size:
            # a stable sort on the rejection flag moves a row's accepted halves first
            first = np.argsort(~accepted[hit], axis=1, kind="stable")[:, :m]
            idx[hit] = np.take_along_axis(scaled[hit] >> np.uint64(32), first, axis=1).view(np.int64)
            full[hit] = accepted[hit].sum(axis=1) >= m
        return idx, full

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """(rows, m) indices; row j is what integers(0, n, m) draws from a
        Philox keyed by keys[j]."""
        raw = np.empty((len(keys), self.words), np.uint64)
        for row, key in zip(raw, keys):
            row[:] = self._raw(key, self.words)
        idx, full = self._map(raw)
        for j in np.flatnonzero(~full):
            # too many rejections: draw the row again with more words
            words = self.words
            while not full[j]:
                words *= 2
                row, row_full = self._map(self._raw(keys[j], words)[None])
                idx[j], full[j] = row[0], row_full[0]
        return idx


def _resample_stats(
    s: BivariateSample, cfg: TestConfig, test_code: int, batch: int, m: int, k: int,
    rank: np.ndarray, kernel: Callable[..., RowValues], *args,
) -> np.ndarray:
    """kernel(rows, k, *args) on resample slots 0..B-1, in chunks of rows.

    Slot t draws m indices from stream(seed, test_code, batch, t, attempt)
    and keeps the k first of a stable sort by rank (by decreasing radius,
    as radial_order sorts); a slot whose value is undefined draws again at
    the next attempt.
    """
    r, theta = s.radii, s.angles
    draw = _SlotDraws(s.n, m)
    # rank * m + draw position is unique in a row and orders it as the
    # stable sort does, so a partition finds the k first exactly; int32
    # where it fits halves the gather and partition traffic
    dtype = np.int32 if (int(rank.max()) + 1) * m <= 2**31 else np.int64
    rank_m = rank.astype(dtype) * dtype(m)
    position = np.arange(m, dtype=dtype)
    out = np.empty(cfg.B)
    pending = np.arange(cfg.B)
    for attempt in range(_MAX_ATTEMPTS):
        keys = stream_keys(cfg.seed, test_code, batch, pending, attempt)
        undefined = []
        for start in range(0, pending.size, _CHUNK_ROWS):
            slots = pending[start : start + _CHUNK_ROWS]
            idx = draw(keys[start : start + _CHUNK_ROWS])
            order_key = rank_m[idx] + position
            top = np.sort(np.partition(order_key, k - 1, axis=1)[:, :k], axis=1) % m
            idx = np.take_along_axis(idx, top, axis=1)
            values, defined = kernel(
                RadialOrder(r[idx], theta[idx], s.x[idx], s.y[idx]), k, *args
            )
            out[slots[defined]] = values[defined]
            undefined.append(slots[~defined])
        pending = np.concatenate(undefined)
        if pending.size == 0:
            return out
    raise RuntimeError(
        f"resample slot {pending[0]} stayed degenerate after {_MAX_ATTEMPTS} redraws"
    )


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
    hill_full, ordered = _full_sample_hill(s, cfg.k_n)
    adjusted = cone_adjusted_hill(ordered, cfg.k_n, cone).value
    if not math.isfinite(adjusted):
        raise ValueError(
            f"the cone [{cone.a}, {cone.b}] makes the full-sample cone-adjusted Hill "
            f"value {adjusted} at k_n = {cfg.k_n} (the theta = 0 ray puts every point "
            "with x > 0 at infinite distance), so the strong-dependence test is undefined"
        )
    z = normal_quantile(1.0 - cfg.alpha_sig / 2.0)
    band = z * hill_full / math.sqrt(k_m)

    stats = _resample_stats(
        s, cfg, _TEST_CODES["H1"], 0, m, k_m, _draw_ranks(s), _cone_adjusted_hill_rows, cone
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
    hill_full, ordered = _full_sample_hill(s, cfg.k_n)
    _require_positive_angle(s)
    theta0_hat = float(np.mean(ordered.theta[: cfg.k_n]))
    z = normal_quantile(1.0 - cfg.alpha_sig / 2.0)
    band = z * hill_full / math.sqrt(k_m)

    stats = _resample_stats(
        s, cfg, _TEST_CODES["H2"], 0, m, k_m, _draw_ranks(s), _angle_weighted_hill_rows
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
    hill_full, _ = _full_sample_hill(s, cfg.k_n)
    _require_positive_angle(s)

    stats_plain = _resample_stats(
        s, cfg, _TEST_CODES["H3"], 1, m, k_m, _draw_ranks(s), _angle_weighted_hill_rows
    )
    # out-of-cone points rank last, so the k first are the masked kernel's
    # own top k: in-cone points by radius, then the zeroed ones
    stats_masked = _resample_stats(
        s, cfg, _TEST_CODES["H3"], 2, m, k_m, _draw_ranks(s, cone),
        _masked_angle_weighted_hill_rows, cone,
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
