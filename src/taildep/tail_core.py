"""Geometry and bookkeeping for heavy-tail data.

L1-polar radii and angles, the scaled distance to an angular cone,
order statistics with concomitants, and time-series preparation
helpers. One angle rule, _angles, gives every angle: a sample's, and a
RadialOrder's, which derives its radii and angles from its (x, y) pairs.
All functions here are pure. The container types are immutable after
construction, but for a RadialOrder's private memo of values derived from
its read-only arrays, and are safe to share across threads: a race on the
memo only computes the same value twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class AngularCone:
    """Closed angular interval [a, b] in [0, 1].

    Encodes the first-quadrant cone of points whose angle x/(x+y) lies
    in [a, b]. A degenerate cone a == b is the single ray through the
    angle theta0 = a.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a <= self.b <= 1.0):
            raise ValueError(f"cone requires 0 <= a <= b <= 1, got [{self.a}, {self.b}]")

    @property
    def is_full(self) -> bool:
        return self.a == 0.0 and self.b == 1.0

    def contains_angle(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return (theta >= self.a) & (theta <= self.b)


class BivariateSample:
    """Nonnegative data pairs (X_i, Y_i), stored as parallel arrays."""

    __slots__ = ("x", "y")

    def __init__(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size < 1:
            raise ValueError("sample must contain at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite values")
        if np.any(np.signbit(x)) or np.any(np.signbit(y)):
            if np.any(x < 0) or np.any(y < 0):
                raise ValueError("sample contains negative values")
            x, y = x + 0.0, y + 0.0  # -0.0 + 0.0 = +0.0, so no angle is -0.0
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(~np.isfinite(x + y))
        if overflow.size:
            i = overflow[0]
            raise ValueError(
                f"the radius x + y of point {i} overflows (x = {float(x[i])!r}, y = {float(y[i])!r})"
            )
        x, y = x.view(), y.view()  # read-only views: the caller's arrays stay writeable
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("BivariateSample is immutable")

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def radii(self) -> np.ndarray:
        return self.x + self.y

    @property
    def angles(self) -> np.ndarray:
        """Angles x/(x+y); points at the origin get angle 0 (they never
        enter any top-k computation)."""
        return _angles(self.x, self.radii)


def _angles(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Angles x / r of points with radii r = x + y; 0 at the origin, r == 0."""
    if r.min() > 0.0:  # the usual case, one divide
        return x / r
    return np.divide(x, r, out=np.zeros(r.shape), where=r > 0.0)


@dataclass(frozen=True)
class RadialOrder:
    """Pairs (x, y) sorted by decreasing radius along the last axis (one
    sample's order, or a stack of resamples, one per row), with the radii
    sorted_r = x + y and the angles theta that it derives by _angles, so
    neither can disagree with the pairs.

    The order holds read-only views of x and y, so the caller's arrays stay
    writeable; a caller must not write to them afterwards. The statistics
    and the support fit store what depends only on (order, k) in a private
    memo, through _cached alone, so repeated calls at one k (the fit at
    several lambdas, the four estimators) do that work once. The memo takes
    no part in equality or repr.
    """

    x: np.ndarray
    y: np.ndarray
    sorted_r: np.ndarray = field(init=False)
    theta: np.ndarray = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, y = np.asarray(self.x).view(), np.asarray(self.y).view()
        r = x + y
        for name, arr in (("x", x), ("y", y), ("sorted_r", r), ("theta", _angles(x, r))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.sorted_r.size)

    def _cached(self, key: tuple, build: Callable[[], T]) -> T:
        """The value stored under key, built by build() on first use; a
        build that raises stores nothing, so a repeat call raises again."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def cone_distances(x, y, cone: AngularCone) -> np.ndarray:
    """Scaled distance from points (x, y) to the cone, vectorized.

    d(x, y) = max{(1/b - 1) x - y, y - (1/a - 1) x, 0}. The distance is
    0 exactly on the cone, positive off it, and 1-homogeneous. For a
    degenerate cone a == b it reduces to |(1/a - 1) x - y|.

    Endpoint conventions: a == 0 drops the above-cone term; an infinite
    slope 1/c - 1 (c == 0, or 1/c overflows) times x is +inf for x > 0 and
    0 for x == 0, so b == 0 (the theta = 0 ray) puts every x > 0 at +inf.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        below = _slope_times(cone.b, x) - y
        if cone.a == 0.0:  # max(-inf, below, 0) is max(below, 0)
            return np.maximum(below, 0.0)
        return np.maximum(np.maximum(y - _slope_times(cone.a, x), below), 0.0)


def _slope_times(c: float, x: np.ndarray) -> np.ndarray:
    """(1/c - 1) * x, with 1/0 = +inf, 0 (not inf * 0 = nan) where x == 0
    and +inf where the product overflows."""
    slope = np.inf if c == 0.0 else 1.0 / float(c) - 1.0
    if slope < np.inf:
        return slope * x
    return np.multiply(slope, x, out=np.zeros(x.shape), where=x != 0.0)


def cone_distance(p: tuple[float, float], cone: AngularCone) -> float:
    """Scalar version of :func:`cone_distances`."""
    x, y = float(p[0]), float(p[1])
    if x < 0 or y < 0:
        raise ValueError(f"point must be nonnegative, got {p}")
    return float(cone_distances(np.array([x]), np.array([y]), cone)[0])


def _decreasing_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices that sort values (nonnegative, no -0.0) in decreasing order,
    ties in sample order, and each sorted position's dense rank (0 for the
    largest; equal values share a rank).

    One in-place sort of uint64 keys: a value's complemented bits, which
    ascend as it descends, with the low bits replaced by its index. Values
    that differ only in those bits come out in sample order, not by value;
    one stable argsort re-sorts their runs, exactly, as runs are disjoint.
    """
    n = values.size
    if n >= 2**32:
        raise ValueError(f"{n} values are too many to sort: the tie key needs n < 2**32")
    low = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    key = np.bitwise_or(values.view(np.uint64), low)
    np.invert(key, out=key)
    np.bitwise_or(key, np.arange(n, dtype=np.uint64), out=key)
    key.sort()
    order = np.bitwise_and(key, low, out=key).view(np.int64)
    ranked = values[order]
    bad = ranked[1:][ranked[1:] > ranked[:-1]].view(np.uint64)
    if bad.size:
        # a bad value's run holds the values whose bits match its own but for
        # the low ones; reversed, ranked ascends run by run, so binary search
        # counts the values past each run's ends
        start, stop = (n - np.unique(np.searchsorted(ranked[::-1], end.view(float), side))[::-1]
                       for end, side in ((bad | low, "right"), (bad & ~low, "left")))
        size = stop - start
        runs = np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)
        fixed = runs[np.argsort(-ranked[runs], kind="stable")]
        order[runs], ranked[runs] = order[fixed], ranked[fixed]
    step = ranked[1:] != ranked[:-1]
    del ranked  # order and the dense ranks are the only n-long arrays left
    if step.all():
        return order, np.arange(n)
    dense = np.zeros(n, dtype=np.int64)
    dense[1:] = step  # cumsum of the bools would cast all of them to a temporary first
    return order, np.cumsum(dense, out=dense)


def _radial_order(s: BivariateSample) -> tuple[RadialOrder, np.ndarray, np.ndarray]:
    """radial_order(s), with the sort order and the dense rank of each
    sorted position that _decreasing_order returns."""
    order, dense = _decreasing_order(s.radii)
    ordered = RadialOrder(s.x[order], s.y[order])
    if ordered.sorted_r[0] == 0.0:
        raise ValueError("all points are at the origin; no radial order exists")
    return ordered, order, dense


def radial_order(s: BivariateSample) -> RadialOrder:
    """Sort the sample by decreasing radius, carrying concomitants.

    Ties in the radius are broken by original sample index, so the
    result is deterministic. Raises if every point is at the origin.
    """
    return _radial_order(s)[0]


def log_returns(prices, stride: int = 1) -> np.ndarray:
    """Strided log returns log(p[(j+1)*stride] / p[j*stride]).

    A trailing partial stride window is dropped, so the result has
    floor((len(prices) - 1) / stride) entries.
    """
    p = np.asarray(prices, dtype=float)
    if int(stride) != stride or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    stride = int(stride)
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise ValueError("prices must be positive and finite")
    if p.size <= stride:
        raise ValueError("need more prices than the stride")
    return np.diff(np.log(p[::stride]))


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag.

    Uses the biased (divide-by-n) autocovariance normalized by the
    lag-0 value, the convention of standard statistical plotting tools.
    """
    x = np.asarray(series, dtype=float)
    if int(max_lag) != max_lag or max_lag < 1:
        raise ValueError(f"max_lag must be a positive integer, got {max_lag}")
    max_lag = int(max_lag)
    n = x.size
    if n <= max_lag:
        raise ValueError("series must be longer than max_lag")
    xc = x - x.mean()
    c0 = float(np.dot(xc, xc)) / n
    if c0 == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for h in range(1, max_lag + 1):
        out[h] = float(np.dot(xc[:-h], xc[h:])) / n / c0
    return out
