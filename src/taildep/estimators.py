"""Tail-index and dependence statistics on the k largest radii.

All four statistics are functions of ratios R_(i)/R_(k) (and of the
1-homogeneous cone distance scaled by R_(k)), so they are invariant to
rescaling the whole sample.

Each statistic has one implementation, a row kernel on stacked radial
orders: the public functions run it on one row, the bootstrap on chunks
of resamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taildep.tail_core import AngularCone, RadialOrder, cone_distances

RowValues = tuple[np.ndarray, np.ndarray]  # one value per row, and where it is defined


@dataclass(frozen=True)
class StatisticValue:
    value: float
    k: int
    n: int


def _check_k(ord: RadialOrder, k: int) -> None:
    if int(k) != k or not (1 <= k < ord.n):
        raise ValueError(f"k must satisfy 1 <= k < n = {ord.n}, got {k}")


def _log_ratio_rows(r: np.ndarray, k: int) -> RowValues:
    """log(R_(i)/R_(k)), i = 1..k, on each row of decreasing radii, and the
    rows where R_(k) > 0 (elsewhere the ratios are not finite)."""
    rk = r[:, k - 1 : k]
    with np.errstate(divide="ignore", invalid="ignore"):
        logr = np.log(r[:, :k] / rk)
    return logr, rk[:, 0] > 0.0


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one np.dot per row rounds each row exactly as a 1-d np.dot does
    return np.array([np.dot(u, v) for u, v in zip(a, b)])


def _log_ratios(ord: RadialOrder, k: int) -> np.ndarray:
    """log(R_(i)/R_(k)) for i = 1..k; requires R_(k) > 0."""
    logr, defined = _log_ratio_rows(ord.sorted_r[None], k)
    if not defined[0]:
        raise ValueError(f"R_({k}) must be positive, got {ord.sorted_r[k - 1]}")
    return logr[0]


# ---------------------------------------------------------------------------
# row kernels: rows is a RadialOrder whose arrays are stacked (rows, width),
# each row sorted by decreasing radius with ties in sample order; each
# kernel returns one value per row and the mask of rows where it is defined

def _hill_rows(rows: RadialOrder, k: int) -> RowValues:
    logr, defined = _log_ratio_rows(rows.sorted_r, k)
    return logr.mean(axis=1), defined


def _cone_adjusted_hill_rows(rows: RadialOrder, k: int, cone: AngularCone) -> RowValues:
    logr, defined = _log_ratio_rows(rows.sorted_r, k)
    d = cone_distances(rows.x[:, :k], rows.y[:, :k], cone)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (1.0 + d / rows.sorted_r[:, k - 1 : k]) * logr
    # inf * 0 at a zero log ratio: the log factor wins, the term is 0
    terms = np.where(logr > 0.0, terms, 0.0)
    return terms.mean(axis=1), defined


def _angle_weighted_hill_rows(rows: RadialOrder, k: int) -> RowValues:
    logr, defined = _log_ratio_rows(rows.sorted_r, k)
    th = rows.theta[:, :k]
    denom = th.sum(axis=1)
    defined &= denom > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return _row_dots(th, logr) / denom, defined


def _masked_angle_weighted_hill_rows(
    rows: RadialOrder, k: int, cone: AngularCone
) -> RowValues:
    mask = cone.contains_angle(rows.theta)
    # the rows are in radius order, so a stable sort on the mask alone
    # re-sorts the masked radii: in-cone points first, then zeroed ones
    top = np.argsort(~mask, axis=1, kind="stable")[:, :k]
    in_cone = np.take_along_axis(mask, top, axis=1)
    r_top = np.where(in_cone, np.take_along_axis(rows.sorted_r, top, axis=1), 0.0)
    th_top = np.where(in_cone, np.take_along_axis(rows.theta, top, axis=1), 0.0)
    logr, rk_positive = _log_ratio_rows(r_top, k)
    terms = np.maximum(np.where(rk_positive[:, None], logr, 0.0), 0.0)
    denom = th_top.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(denom > 0.0, _row_dots(th_top, terms) / denom, 1.0)
    return values, np.ones(values.size, dtype=bool)


def _single_row(ord: RadialOrder, k: int, kernel, *args) -> StatisticValue:
    """kernel on ord as a single row; raises where the value is undefined."""
    _check_k(ord, k)
    rows = RadialOrder(ord.sorted_r[None], ord.theta[None], ord.x[None], ord.y[None])
    value, defined = kernel(rows, k, *args)
    if not defined[0]:
        _log_ratios(ord, k)  # raises if R_(k) <= 0; else the angle sum is 0
        raise ValueError("top-k concomitant angles sum to zero")
    return StatisticValue(float(value[0]), int(k), ord.n)


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
    return _single_row(ord, k, _cone_adjusted_hill_rows, cone)


def angle_weighted_hill(ord: RadialOrder, k: int) -> StatisticValue:
    """Hill-type statistic weighted by the concomitant angles.

    T = sum_{i<=k} theta*_i log(R_(i)/R_(k)) / sum_{i<=k} theta*_i.
    Its sampling variance separates full from strong dependence.
    """
    return _single_row(ord, k, _angle_weighted_hill_rows)


def masked_angle_weighted_hill(
    ord: RadialOrder, k: int, cone: AngularCone
) -> StatisticValue:
    """Angle-weighted statistic restricted to angles inside the cone.

    Radii and angles of points with angle outside [a, b] are zeroed
    before re-sorting, the log ratios are clamped below at 0, and the
    fully degenerate case (no mass in the cone) returns 1 by the
    0/0 == 1 convention. When the k-th masked radius is 0, each log
    term is taken as 0 (the minimal completion of the convention).
    """
    return _single_row(ord, k, _masked_angle_weighted_hill_rows, cone)
