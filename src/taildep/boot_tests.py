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
  bootstrap variances of the plain angle-weighted statistic and the
  masked one (that of the in-cone points, zeros after) over two
  independent resample batches.

Every resample draws integers(0, n, m) from its own Philox substream,
stream(seed, test code, batch, slot, 0), and is scored once by its
statistic's row kernel in taildep.estimators on a RadialOrder of the
(x, y) pairs of its k_mn largest radii, which gives a degenerate resample
the kernels' convention. A test whose statistic is undefined on the
sample is refused with a ValueError: by _refuse before any resampling
where a rule needs none, and by _resample_stats, naming the test, where
a batch of resamples holds a non-finite statistic.
The substreams and the indices are the ones stream() and integers give;
only the way there is cheaper: datagen.stream_keys derives the Philox
keys of a block of slots in one numpy pass, and _SlotDraws maps raw
Philox words to indices by numpy's own rule. Each drawn point's key
(dense radius rank in the full sample) * m + draw position orders a
resample exactly as a stable sort by decreasing radius does, so a
partition picks the k_mn largest without sorting the row. The ranks,
the radial order and the Hill estimate come from one uint64 key sort
(_prepare); `taildep test` prepares the sample once and passes it to
each test, so a run sorts once. All of it runs on one thread.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# stream is the per-slot contract; perfbench/tracer.py rebinds boot_tests.stream
from taildep.datagen import stream, stream_keys  # noqa: F401
from taildep.estimators import (
    _angle_weighted_hill_rows,
    _cone_adjusted_hill_rows,
    _log_ratio_rows,
    hill,
)
from taildep.statdist import chisq_quantile, f_quantile, normal_quantile
from taildep.tail_core import AngularCone, BivariateSample, RadialOrder, _radial_order, cone_distances

_TEST_CODES = {"H1": 1, "H2": 2, "H3": 3}
_CHUNK_ROWS = 64  # resample slots evaluated together; bounds the working set

REJECT = "reject"
FAIL_TO_REJECT = "fail_to_reject"


@dataclass(frozen=True)
class TestConfig:
    """Tuning knobs shared by the three bootstrap tests.

    m_n defaults to round(n / k_n) and k_mn to max(5, round(0.05 * m_n))
    when left unset. k_n, seed, m_n, k_mn and B must be integers, k_n and
    k_mn at least 2 (the default k_mn always is).
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
            if name in ("k_n", "k_mn") and value < 2:
                raise ValueError(f"{name} must be at least 2, got {value}: on one radius every "
                                 "Hill-type statistic is log(R_(1)/R_(1)) = 0")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if not (0.0 < self.alpha_sig < 1.0):
            raise ValueError("alpha_sig must lie in (0, 1)")
        if 1.0 - self.alpha_sig / 2.0 == 1.0:
            raise ValueError(f"alpha_sig = {self.alpha_sig} is too small: 1 - alpha_sig/2 "
                             "rounds to 1, where the tests' upper quantiles are infinite")

    def resolve(self, n: int) -> tuple[int, int]:
        """Return (m_n, k_mn) with defaults filled in; validates against n."""
        if self.k_n >= n:
            raise ValueError(f"k_n = {self.k_n} must be below the sample size {n}")
        m = self.m_n if self.m_n is not None else max(2, round(n / self.k_n))
        if m > n:
            raise ValueError(f"m_n = {m} must not exceed the sample size {n}: the "
                             "m-out-of-n bootstrap resamples m_n <= n points")
        k = self.k_mn if self.k_mn is not None else max(5, round(0.05 * m))
        if k >= m:
            defaults = []
            if self.m_n is None:
                defaults.append("m_n = max(2, round(n / k_n))")
            if self.k_mn is None:
                defaults.append("k_mn = max(5, round(0.05 * m_n))")
            note = f" from the default {' and '.join(defaults)} with n = {n}" if defaults else ""
            raise ValueError(f"need k_mn < m_n, got k_mn={k}, m_n={m}{note}")
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


# ---------------------------------------------------------------------------
# internal machinery

@dataclass(frozen=True)
class _Prepared:
    """A sample prepared for the tests under cfg, from one sort: the
    resolved (m_n, k_mn), the radial order, the dense rank of each sample
    point's radius (0 for the largest; tied radii share a rank), the Hill
    estimate at k_n and the half-width of the normal band around it by
    which H1 and H2 flag resamples."""

    sample: BivariateSample
    cfg: TestConfig
    m_n: int
    k_mn: int
    ordered: RadialOrder
    rank: np.ndarray
    hill: float
    band: float


def _prepare(s: BivariateSample | _Prepared, cfg: TestConfig) -> _Prepared:
    """s prepared for the tests under cfg. A value that _prepare returned
    under cfg is returned unchanged, so a run that runs several tests can
    prepare the sample once and pass the result to each test in its place."""
    if isinstance(s, _Prepared):
        if s.cfg != cfg:
            raise ValueError(f"the sample was prepared under {s.cfg}, not under {cfg}: "
                             "its resamples and band would not follow cfg")
        return s
    m, k_m = cfg.resolve(s.n)
    ordered, order, dense = _radial_order(s)
    value = hill(ordered, cfg.k_n).value
    if value == 0.0:
        raise ValueError(
            f"the {cfg.k_n} largest radii are all tied, so the Hill estimate is 0 "
            "and the tests are undefined"
        )
    rank = np.empty_like(dense)
    rank[order] = dense
    band = normal_quantile(1.0 - cfg.alpha_sig / 2.0) * value / math.sqrt(k_m)
    return _Prepared(s, cfg, m, k_m, ordered, rank, value, band)


def _refuse(p: _Prepared, cone: AngularCone | None, tests) -> None:
    """Raise the ValueError of any test in tests ("H1", "H2", "H3") that is
    undefined on p and cone by a rule that needs no resampling, so a run
    that checks all its tests first refuses before any of them resamples.
    H1 is refused where cone_distances puts a point at infinite distance,
    as (1/b - 1) x overflows: a resample that ranks one above its k_mn-th
    radius scores +inf. _resample_stats refuses any other non-finite batch."""
    positive = p.ordered.theta > 0.0
    if "H3" in tests and cone.is_full:
        raise ValueError("weak-dependence test needs a proper cone [a, b] != [0, 1]")
    if ("H2" in tests or "H3" in tests) and not positive.any():
        raise ValueError(
            "no point has a positive angle (every x is 0), so the angle-weighted "
            "statistic is undefined on theta == 0 data"
        )
    # a point at angle 0 weighs nothing in the masked statistic, so with no
    # point of positive angle in the cone every masked resample is 1
    if "H3" in tests and not np.any(cone.contains_angle(p.ordered.theta) & positive):
        raise ValueError(
            f"the cone [{cone.a}, {cone.b}] holds no top-{p.k_mn} mass in any resample: no "
            "point with a positive angle lies in it, so the masked statistic is always 1 "
            "and the F ratio is undefined"
        )
    if "H1" in tests:
        if far := np.count_nonzero(cone_distances(p.ordered.x, p.ordered.y, cone) == np.inf):
            raise ValueError(f"the cone [{cone.a}, {cone.b}] puts {far} of the {p.sample.n} points "
                             "at infinite distance, as (1/b - 1) x overflows; a resample that ranks "
                             "one above its k_mn-th radius has an infinite cone-adjusted Hill "
                             "value, so the strong-dependence test is undefined")


def _report(p: _Prepared, test_id: str, name: str, verdict: str, statistic: float,
            threshold: float | tuple[float, float], stats: np.ndarray, **auxiliary) -> TestReport:
    """The report of a test on p, with the full-sample entries every test shares."""
    return TestReport(test_id, verdict, statistic, threshold, stats.tolist(), {
        "name": name, "hill": p.hill, **auxiliary, "m_n": p.m_n, "k_mn": p.k_mn,
    })


class _SlotDraws:
    """Draws of Generator.integers(0, n, m) from per-slot Philox keys.

    One Philox is reset to each key (counter 0, empty buffers) through its
    state setter, so it starts where a fresh stream(...) with that key
    starts, and returns ceil(m / 2) raw 64-bit words. For n - 1 < 2**32 - 1
    numpy's bounded draw reads those words as 32-bit halves, low half
    first, and applies Lemire's multiply-shift to each: the index is
    (u * n) >> 32, and a half is rejected when (u * n) mod 2**32 <
    (2**32 - n) mod n. A row whose m halves are all accepted is mapped by
    that rule here, a whole block of rows at once; a row with a rejected
    half is numpy's own integers(0, n, m), drawn from the Philox reset to
    its key.
    """

    def __init__(self, n: int, m: int) -> None:
        if n >= 2**32:
            raise ValueError(f"sample size {n} is too large: resample indices are drawn below 2**32")
        self.n, self.m = n, m
        self.words = -(-m // 2)
        # the low 32 bits of u * n fall below this for a rejected half
        self._threshold = np.uint32((2**32 - n) % n)
        self._bits = np.random.Philox(key=np.zeros(2, np.uint64))
        # a fresh state in Python ints, as __call__ passes the keys: the state
        # setter reads them faster than numpy arrays
        fresh = self._bits.state
        self._fresh = {**fresh, "state": {name: v.tolist() for name, v in fresh["state"].items()},
                       "buffer": fresh["buffer"].tolist()}
        self._gen = np.random.Generator(self._bits)

    def _reset(self, key: list) -> np.random.Philox:
        self._fresh["state"]["key"] = key
        self._bits.state = self._fresh
        return self._bits

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """(rows, m) indices; row j is what integers(0, n, m) draws from a
        Philox keyed by keys[j]."""
        raw = np.empty((len(keys), self.words), np.uint64)
        for row, key in zip(raw, keys.tolist()):
            row[:] = self._reset(key).random_raw(self.words)
        # a word's low half is drawn first; "<u4" reads it so on any host
        halves = raw.astype("<u8", copy=False).view("<u4")[:, : self.m]
        # u * n needs 64 bits; dtype= stops numpy 1.x from keeping it uint32
        scaled = np.multiply(halves, np.uint64(self.n), dtype=np.uint64)
        # below 2**32, so the int64 view is the value
        idx = (scaled >> np.uint64(32)).view(np.int64)
        for j in np.flatnonzero((scaled.astype(np.uint32) < self._threshold).any(axis=1)):
            # a rejected half shifts the rest of the row; numpy's integers draws it
            self._reset(keys[j].tolist())
            idx[j] = self._gen.integers(0, self.n, self.m)
        return idx


def _resample_stats(
    p: _Prepared, test_id: str, batch: int, kernel: Callable[..., np.ndarray], *args
) -> np.ndarray:
    """kernel(rows, logr, *args) on resample slots 0..B-1 of p's sample, in
    chunks of rows: rows stacks a chunk's resamples' (x, y) pairs as one
    RadialOrder and logr their log ratios, made once per chunk.

    Slot t draws m_n indices from stream(seed, test code, batch, t, 0) and
    keeps the k_mn first of a stable sort by p.rank (by decreasing radius,
    as radial_order sorts). A non-finite value is refused, naming the test.
    """
    s, cfg, m, k, rank = p.sample, p.cfg, p.m_n, p.k_mn, p.rank
    draw = _SlotDraws(s.n, m)
    # rank * m + draw position is unique in a row and orders it as the
    # stable sort does, so a partition finds the k first exactly; int32
    # where it fits halves the gather and partition traffic
    dtype = np.int32 if (int(rank.max()) + 1) * m <= 2**31 else np.int64
    rank_m = rank.astype(dtype) * dtype(m)
    position = np.arange(m, dtype=dtype)
    out = np.empty(cfg.B)
    keys = stream_keys(cfg.seed, _TEST_CODES[test_id], batch, np.arange(cfg.B), 0)
    for start in range(0, cfg.B, _CHUNK_ROWS):
        idx = draw(keys[start : start + _CHUNK_ROWS])
        order_key = rank_m[idx] + position
        top = np.sort(np.partition(order_key, k - 1, axis=1)[:, :k], axis=1) % m
        idx = np.take_along_axis(idx, top, axis=1)
        rows = RadialOrder(s.x[idx], s.y[idx])
        out[start : start + _CHUNK_ROWS] = kernel(rows, _log_ratio_rows(rows.sorted_r, k), *args)
    if bad := np.count_nonzero(~np.isfinite(out)):
        raise ValueError(f"the {test_id} test is undefined on this sample: {bad} of its {cfg.B} "
                         "resamples have a non-finite statistic, as a radius or cone distance "
                         "over the resample's k_mn-th radius overflows")
    return out


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
    p = _prepare(s, cfg)
    _refuse(p, cone, ("H1",))
    stats = _resample_stats(p, "H1", 0, _cone_adjusted_hill_rows, cone)
    rate = float(np.mean(np.abs(stats - p.hill) > p.band))
    verdict = REJECT if rate > cfg.alpha_sig else FAIL_TO_REJECT
    return _report(p, "H1", "strong_dependence", verdict, rate, cfg.alpha_sig, stats,
                   band_halfwidth=p.band, rejection_rate=rate, cone=[cone.a, cone.b])


def full_dependence_test(s: BivariateSample, cfg: TestConfig) -> TestReport:
    """Bootstrap variance test of full (single-ray) dependence.

    The statistic k_mn * SE_boot^2 / H^2 is compared against the upper
    chi-square band; under a one-point angular measure it concentrates
    near 1. The auxiliary proportion rule flags resamples whose
    angle-weighted statistic leaves the normal band, a secondary check
    that catches false acceptances when the angular spread is small.
    """
    p = _prepare(s, cfg)
    _refuse(p, None, ("H2",))
    stats = _resample_stats(p, "H2", 0, _angle_weighted_hill_rows)
    se_boot = float(np.std(stats, ddof=1))
    statistic = p.k_mn * se_boot**2 / p.hill**2
    threshold = chisq_quantile(1.0 - cfg.alpha_sig, cfg.B - 1) / (cfg.B - 1)
    proportion = float(np.mean(np.abs(stats - p.hill) > p.band))
    verdict = REJECT if statistic > threshold else FAIL_TO_REJECT
    return _report(
        p, "H2", "full_dependence", verdict, statistic, threshold, stats,
        se_boot=se_boot, proportion_rule_rate=proportion,
        proportion_rule_reject=proportion > cfg.alpha_sig,
        theta0_hat=float(np.mean(p.ordered.theta[: cfg.k_n])),
    )


def weak_dependence_test(
    s: BivariateSample, cone: AngularCone, cfg: TestConfig
) -> TestReport:
    """Bootstrap F-ratio test of strong vs weak dependence.

    Two independent resample batches yield the plain and cone-masked
    angle-weighted statistics; equal variances (ratio inside the F
    band) support the angular support being [a, b].
    """
    p = _prepare(s, cfg)
    _refuse(p, cone, ("H3",))
    stats_plain = _resample_stats(p, "H3", 1, _angle_weighted_hill_rows)
    # out-of-cone points move to the origin and rank last: a masked
    # resample's top k are its in-cone points by radius, then zeros
    inside = cone.contains_angle(p.sample.angles)
    masked = BivariateSample(np.where(inside, p.sample.x, 0.0), np.where(inside, p.sample.y, 0.0))
    masked_p = replace(p, sample=masked, rank=np.where(inside, p.rank, p.sample.n))
    stats_masked = _resample_stats(masked_p, "H3", 2, _angle_weighted_hill_rows)
    var_plain = float(np.var(stats_plain, ddof=1))
    var_masked = float(np.var(stats_masked, ddof=1))
    # _refuse settles a cone without a point of positive angle; one whose
    # points never reach a resample's top k_mn shows only here
    if var_masked == 0.0:
        raise ValueError(
            f"the cone [{cone.a}, {cone.b}] holds no top-{p.k_mn} mass in any resample, "
            "so the masked statistic has zero variance and the F ratio is undefined"
        )
    statistic = var_plain / var_masked
    lo = f_quantile(cfg.alpha_sig / 2.0, cfg.B - 1, cfg.B - 1)
    hi = f_quantile(1.0 - cfg.alpha_sig / 2.0, cfg.B - 1, cfg.B - 1)
    verdict = REJECT if (statistic < lo or statistic > hi) else FAIL_TO_REJECT
    return _report(
        p, "H3", "weak_dependence", verdict, statistic, (lo, hi), stats_plain,
        var_plain=var_plain, var_masked=var_masked,
        per_resample_masked=stats_masked.tolist(), cone=[cone.a, cone.b],
    )
