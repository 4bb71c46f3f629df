"""Tail-index and dependence statistics on the k largest radii.

All four statistics are functions of ratios R_(i)/R_(k) (and of the
1-homogeneous cone distance scaled by R_(k)), so they are invariant to
rescaling the whole sample.

Each statistic has one implementation, a row kernel that scores the log
ratios it is given along the last axis: the public functions run it on a
radial order's head with that order's memoized log ratios (the masked one
on the order's in-cone pairs, padded with zeros), the bootstrap on a chunk
of stacked resamples with theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from taildep.tail_core import AngularCone, RadialOrder, _instance, _integer, _Pairs, cone_distances


@dataclass(frozen=True)
class StatisticValue:
    value: float
    k: int
    n: int


def _check_k(ord: RadialOrder, k: int) -> None:
    """Refuse an ord that is not a RadialOrder, a non-integer k, k outside
    1 <= k < n, and a top k whose ratio R_(1)/R_(k) overflows: every
    statistic takes its logarithm. The masked statistic checks its in-cone
    top's ratio too."""
    _instance("ord", ord, RadialOrder)
    _integer("k", k)
    if not (1 <= k < ord.n):
        raise ValueError(f"k must satisfy 1 <= k < n = {ord.n}, got {k}")
    _check_ratio(ord.head(k).sorted_r, k)


def _check_ratio(r: np.ndarray, k: int) -> None:
    """Refuse decreasing radii r whose ratio R_(1)/R_(k) overflows."""
    # Python floats overflow to inf without a warning
    r1, rk = float(r[0]), float(r[k - 1])
    if rk > 0.0 and r1 / rk == math.inf:
        raise ValueError(
            f"R_(1)/R_({k}) = {r1!r}/{rk!r} overflows, so the log ratios are not finite"
        )


def _log_ratio_rows(r: np.ndarray, k: int) -> np.ndarray:
    """log(R_(i)/R_(k)), i = 1..k, along the last axis of decreasing radii;
    0 on a row where R_(k) = 0. A ratio that overflows gives an infinite
    log, so its row's value is not finite."""
    rk = r[..., k - 1 : k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logr = np.log(r[..., :k] / rk)
    logr[rk[..., 0] == 0.0] = 0.0
    return logr


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # matmul hands each row's vector-vector product to the dot a 1-d
    # np.dot calls, so every row rounds exactly as np.dot(a[i], b[i]); above
    # 10 000 elements its bits follow the caller's BLAS thread count, as
    # that dot splits its sum across the BLAS threads
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _check_rk(ord: RadialOrder, k: int) -> None:
    if not (rk := ord.head(k).sorted_r[k - 1]) > 0.0:
        raise ValueError(f"R_({k}) must be positive, got {rk}")


def _log_ratios(ord: RadialOrder, k: int) -> np.ndarray:
    """log(R_(i)/R_(k)) for i = 1..k, read-only, made once per (ord, k) and
    kept in ord's memo; refuses R_(k) = 0. k must have passed _check_k."""

    def build() -> np.ndarray:
        _check_rk(ord, k)
        logr = _log_ratio_rows(ord.head(k).sorted_r, k)
        logr.setflags(write=False)
        return logr

    return ord._cached(("log_ratios", k), build)


# ---------------------------------------------------------------------------
# row kernels: rows is pairs as tail_core._pairs builds them, one row (an
# order's head) or a stack of resamples (rows, width), sorted along the last
# axis by decreasing radius with ties in sample order, of which a kernel
# reads only x, y, sorted_r and theta; logr is its log ratios, from which
# each kernel takes k, and it returns one value per row. They are total by
# one convention: where R_(k) = 0 every log term is 0, and an angle-weighted
# mean whose angles sum to 0 is 0/0 = 1. Only the masked statistic, the
# angle-weighted kernel on the in-cone pairs with zeros after (its public
# function and H3's masked batch), takes those values. A mean is
# np.add.reduce(v, axis=-1) / k, the sum and division v.mean(axis=-1) makes,
# bit for bit, without the wrapper around them.

def _hill_rows(rows: _Pairs, logr: np.ndarray) -> np.ndarray:
    return np.add.reduce(logr, axis=-1) / logr.shape[-1]


def _cone_adjusted_hill_rows(rows: _Pairs, logr: np.ndarray, cone: AngularCone) -> np.ndarray:
    k = logr.shape[-1]
    d = cone_distances(rows.x[..., :k], rows.y[..., :k], cone)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = (1.0 + d / rows.sorted_r[..., k - 1 : k]) * logr
    # inf * 0 at a zero log ratio: the log factor wins, the term is 0
    return np.add.reduce(np.where(logr > 0.0, terms, 0.0), axis=-1) / k


def _angle_weighted_hill_rows(rows: _Pairs, logr: np.ndarray) -> np.ndarray:
    th = rows.theta[..., : logr.shape[-1]]
    denom = th.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, _row_dots(th, logr) / denom, 1.0)


def _head_value(ord: RadialOrder, k: int, kernel, *args) -> float:
    """kernel's value on ord's first k pairs with their log ratios, made once
    per (k, kernel, *args) and kept in ord's memo, so the support fit at
    every lambda and the estimators score H, and D at each cone, once per
    order; args must be hashable. Refuses R_(k) = 0; k must have passed
    _check_k."""
    return ord._cached((k, kernel, *args),
                       lambda: float(kernel(ord.head(k), _log_ratios(ord, k), *args)))


def _single_row(ord: RadialOrder, k: int, kernel, *args) -> StatisticValue:
    """kernel on ord's first k pairs with their log ratios; refuses R_(k) = 0."""
    _check_k(ord, k)
    return StatisticValue(_head_value(ord, k, kernel, *args), int(k), ord.n)


def hill(ord: RadialOrder, k: int) -> StatisticValue:
    """Hill estimator of 1/alpha from the k largest radii.

    H = (1/k) sum_{i<=k} log(R_(i)/R_(k)); the i = k term is zero.
    """
    return _single_row(ord, k, _hill_rows)


def cone_adjusted_hill(ord: RadialOrder, k: int, cone: AngularCone) -> StatisticValue:
    """Hill estimator inflated by the scaled distance of the top-k
    concomitant pairs to the cone.

    D = (1/k) sum_{i<=k} (1 + d_i / R_(k)) log(R_(i)/R_(k)) where d_i is
    the cone distance of the i-th concomitant pair. Equals the plain
    Hill estimator iff every contributing pair lies inside the cone; in
    particular the cone [0, 1] gives the Hill estimator exactly.
    """
    return _single_row(ord, k, _cone_adjusted_hill_rows, _instance("cone", cone, AngularCone))


def angle_weighted_hill(ord: RadialOrder, k: int) -> StatisticValue:
    """Hill-type statistic weighted by the concomitant angles.

    T = sum_{i<=k} theta*_i log(R_(i)/R_(k)) / sum_{i<=k} theta*_i.
    Its sampling variance separates full from strong dependence.
    """
    value = _single_row(ord, k, _angle_weighted_hill_rows)
    # a zero angle sum gives the convention's 1, so only a 1 needs the check
    if value.value == 1.0 and not ord.head(k).theta.any():
        raise ValueError("top-k concomitant angles sum to zero")
    return value


def masked_angle_weighted_hill(
    ord: RadialOrder, k: int, cone: AngularCone
) -> StatisticValue:
    """Angle-weighted statistic restricted to angles inside the cone.

    The angle-weighted statistic of the sample with every point outside
    [a, b] moved to the origin: its top k are the first k in-cone points,
    then zeros, scored by the angle-weighted row kernel. It takes the row
    kernels' convention where the k-th masked radius is 0 or the in-cone
    angles sum to 0, so it is defined on every sample. It reads ord's head
    at 2k and, only where that holds fewer than k in-cone points,
    ord.within(cone, k), which sorts in-cone points alone, about k of them
    (all of them where the cone holds fewer): it never sorts all n points.
    """
    _instance("cone", cone, AngularCone)
    _check_k(ord, k)
    head = ord.head(2 * k)
    inside = np.flatnonzero(cone.contains_angle(head.theta))[:k]
    if inside.size < k:  # the cone's first k pairs, then zeros
        head, inside = _Pairs(*(np.append(a, np.zeros(k)) for a in ord.within(cone, k))), slice(k)
    top = _Pairs(*(arr[inside] for arr in head))
    _check_ratio(top.sorted_r, k)
    return StatisticValue(float(_angle_weighted_hill_rows(top, _log_ratio_rows(top.sorted_r, k))),
                          int(k), ord.n)
