"""Geometry and bookkeeping for heavy-tail data.

L1-polar radii and angles, the scaled distance to an angular cone,
order statistics with concomitants, and time-series preparation
helpers. One angle rule, _angles, gives every angle by one division
masked to the positive radii: a sample's, and that of every row of pairs,
which _pairs alone builds from (x, y) with its radii and angles. A
RadialOrder(x, y) is the lazy order of any pairs: it sorts only as deep as
it is read, about 2k points for a statistic at k, its in-cone prefix sorts
only the in-cone points, and every decreasing sort is one stable argsort.
All functions here are pure. The container types are immutable after
construction, but for a RadialOrder's private memo of values derived from
its read-only arrays and the sorted prefix it holds, and are safe to share
across threads: a race on either only computes the same value twice.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")
# RadialOrder._cached's mark for a key not in the memo
_MISSING = object()


def _shown(value) -> str:
    """value as a refusal shows it: its repr if short, else its type's name,
    as for a sample or an array."""
    shown = repr(value)
    return shown if len(shown) <= 40 else type(value).__name__


def _real(name: str, value) -> None:
    """Refuse, naming it, a value that is not a real number."""
    # float first: a float passes without the slower abstract-class check
    if not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {_shown(value)}")


def _integer(name: str, value) -> int:
    """value as an int; a ValueError names a value that is not an integer
    (numpy integers are)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}") from None


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
        _real("cone endpoint a", self.a)
        _real("cone endpoint b", self.b)
        if not (0.0 <= self.a <= self.b <= 1.0):
            raise ValueError(f"cone requires 0 <= a <= b <= 1, got [{self.a}, {self.b}]")

    @property
    def is_full(self) -> bool:
        return self.a == 0.0 and self.b == 1.0

    def contains_angle(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return (theta >= self.a) & (theta <= self.b)


def _instance(name: str, value, kind: type):
    """value, refused, naming it, unless it is an instance of kind."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {_shown(value)}")
    return value


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
    """Angles x / r of points with radii r = x + y, divided where r > 0; 0 at the origin."""
    return np.divide(x, r, out=np.zeros(r.shape), where=r > 0.0)


class _Pairs(NamedTuple):
    """Pairs (x, y) with their radii sorted_r = x + y and their angles theta,
    all read-only, as _pairs builds them from one row of pairs (or a stack
    of rows): a RadialOrder's head, its in-cone prefix, or a chunk of the
    bootstrap's resamples, each sorted by decreasing radius along the last
    axis."""

    x: np.ndarray
    y: np.ndarray
    sorted_r: np.ndarray
    theta: np.ndarray


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _pairs(x, y) -> _Pairs:
    """Read-only views of the pairs (x, y), so the caller's arrays stay
    writeable, with the radii x + y and the angles _angles derives from them."""
    x, y = np.asarray(x).view(), np.asarray(y).view()
    r = x + y
    return _Pairs(*_read_only(x, y, r, _angles(x, r)))


def _depth(depth) -> int:
    """A read depth as an int, 0 for any depth <= 0."""
    return max(_integer("depth", depth), 0)


class RadialOrder:
    """The lazy order of the pairs (x, y) by decreasing radius x + y, ties
    in the order the pairs are given; pairs given already in that order
    come back unchanged, as a stable sort of a decreasing array is the
    identity. The radii sorted_r and angles theta of what it reads come
    from _pairs, so neither can disagree with the pairs.

    It keeps read-only views of x and y as floats (a copy only of pairs
    given in another dtype) and their radii as its source, so the caller's
    arrays stay writeable; a caller must not write to them afterwards. It
    is read only through n, head(depth) and within(cone, depth). It sorts
    nothing until it is read, and then only as deep as it is read: a
    head(L) deeper than the prefix held sorts the top 2 max(L, held)
    points, so the depths sorted sum to under 4 times the deepest read.
    within(cone, L), the first L pairs whose angle lies in the cone,
    computes the angles of the source and sorts only the in-cone points,
    however deep in the order they lie. A depth must be an integer; one
    <= 0 reads nothing.

    The statistics and the support fit store what depends only on
    (order, k), and a statistic's value on (order, k, cone), in a private
    memo, through _cached alone, so repeated calls at one k (the fit at
    several lambdas, the four estimators) do that work once; each distinct
    cone scored adds one float.
    """

    __slots__ = ("_source", "_top", "_heads", "_memo")

    def __init__(self, x, y) -> None:
        x, y = np.asarray(x, dtype=float).view(), np.asarray(y, dtype=float).view()
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("a radial order's x and y must be 1-d arrays of equal length")
        # the unsorted (x, y, r) that head and within select from
        self._source = _read_only(x, y, x + y)
        self._top, self._heads, self._memo = _pairs(x[:0], y[:0]), {}, {}

    n = property(lambda self: self._source[2].size)

    def head(self, depth: int) -> _Pairs:
        """The first depth pairs (all n when depth >= n), as read-only views,
        kept per depth: a prefix of any deeper sort is the same pairs. A race
        between two deepenings only sorts twice."""
        if type(depth) is not int or depth < 0:  # an int >= 0, the common case, is kept as is
            depth = _depth(depth)
        if (head := self._heads.get(depth)) is None:
            top = self._top
            if (held := top.sorted_r.size) < min(depth, self.n):
                top = self._top = self._select(_decreasing_head(self._source[2], 2 * max(depth, held)))
            head = self._heads[depth] = _Pairs(*(arr[:depth] for arr in top))
        return head

    def within(self, cone: AngularCone, depth: int) -> _Pairs:
        """The first depth pairs whose angle lies in the cone (all of them
        when the cone holds fewer). _decreasing_head sees the in-cone points
        alone, and a stable sort of a subset keeps its order, so the pairs
        are the full order's in-cone prefix, bit for bit."""
        _instance("cone", cone, AngularCone)
        depth = _depth(depth)
        x, _, r = self._source
        inside = np.flatnonzero(cone.contains_angle(_angles(x, r)))
        return self._select(inside[_decreasing_head(r[inside], depth)])

    def _select(self, order: np.ndarray) -> _Pairs:
        """The source pairs at the indices order, with their radii and angles."""
        x, y, _ = self._source
        return _pairs(x[order], y[order])

    def _cached(self, key: tuple, build: Callable[[], T]) -> T:
        """The value stored under key, built by build() on first use; a
        build that raises stores nothing, so a repeat call raises again."""
        if (value := self._memo.get(key, _MISSING)) is _MISSING:
            value = self._memo[key] = build()
        return value


def cone_distances(x, y, cone: AngularCone) -> np.ndarray:
    """Scaled distance from points (x, y) to the cone, vectorized.

    d(x, y) = max{(1/b - 1) x - y, y - (1/a - 1) x, 0}. The distance is
    0 exactly on the cone, positive off it, and 1-homogeneous. For a
    degenerate cone a == b it reduces to |(1/a - 1) x - y|.

    Endpoint conventions: a == 0 drops the above-cone term; an infinite
    slope 1/c - 1 (c == 0, or 1/c overflows) times x is +inf for x > 0 and
    0 for x == 0, so b == 0 (the theta = 0 ray) puts every x > 0 at +inf.
    """
    _instance("cone", cone, AngularCone)
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


def _decreasing_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort values in decreasing order, ties in sample order."""
    return np.argsort(-values, kind="stable")


def _decreasing_head(values: np.ndarray, depth: int) -> np.ndarray:
    """The first depth indices of _decreasing_order(values), all of them when
    depth >= values.size and none when depth < 1: one partition finds the
    depth-th largest value t, and the stable sort sees only the values >= t,
    kept in sample order, so ties at t keep their sample order and the head
    is the full order's."""
    n = values.size
    if depth < 1:
        return np.empty(0, dtype=np.intp)
    if depth >= n:
        return _decreasing_order(values)
    top = np.flatnonzero(values >= np.partition(values, n - depth)[n - depth])
    return top[_decreasing_order(values[top])[:depth]]


def _off_origin(r: np.ndarray) -> np.ndarray:
    """The radii r, refused where every point is at the origin."""
    if not r.any():
        raise ValueError("all points are at the origin; no radial order exists")
    return r


def radial_order(s: BivariateSample) -> RadialOrder:
    """RadialOrder(s.x, s.y): the sample in decreasing radius order,
    carrying concomitants; it sorts on first read, and only as deep as it
    is read (RadialOrder.head).

    Ties in the radius are broken by original sample index, so the
    result is deterministic, and every prefix is the full order's.
    Raises if every point is at the origin.
    """
    _instance("s", s, BivariateSample)
    order = RadialOrder(s.x, s.y)
    _off_origin(order._source[2])
    return order


def log_returns(prices, stride: int) -> np.ndarray:
    """Strided log returns log(p[(j+1)*stride] / p[j*stride]).

    A trailing partial stride window is dropped, so the result has
    floor((len(prices) - 1) / stride) entries.
    """
    p = np.asarray(prices, dtype=float)
    if (stride := _integer("stride", stride)) < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise ValueError("prices must be positive and finite")
    if p.size <= stride:
        raise ValueError("need more prices than the stride")
    return np.diff(np.log(p[::stride]))


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag.

    Uses the biased (divide-by-n) autocovariance normalized by the
    lag-0 value, the convention of standard statistical plotting tools.
    Each sum is numpy's pairwise np.add.reduce, not a BLAS dot, so its bits
    do not depend on how many threads the BLAS library runs.
    """
    x = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    if (max_lag := _integer("max_lag", max_lag)) < 1:
        raise ValueError(f"max_lag must be a positive integer, got {max_lag}")
    n = x.size
    if n <= max_lag:
        raise ValueError("series must be longer than max_lag")
    xc = x - x.mean()
    c0 = float(np.add.reduce(xc * xc)) / n
    if c0 == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for h in range(1, max_lag + 1):
        out[h] = float(np.add.reduce(xc[:-h] * xc[h:])) / n / c0
    return out
