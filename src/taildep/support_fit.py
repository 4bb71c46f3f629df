"""Estimate the angular support [a, b] of the limit measure.

Minimizes g(a, b) = (b - a) + lambda * sqrt(k) * |D(a, b) - H| over the
triangle 0 <= a <= b <= 1, where D is the cone-adjusted Hill statistic
and H the plain Hill estimator. The minimum is found exactly: g splits
into a part in a and a part in b, each piecewise of a closed form
between consecutive top-k angles, so it lies in a finite candidate set
(see estimate_support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from taildep.estimators import (
    _check_k, _cone_adjusted_hill_rows, _head_value, _hill_rows, _log_ratios,
)
from taildep.tail_core import AngularCone, RadialOrder, _instance, _real


@dataclass(frozen=True)
class SupportFitOptions:
    lam: float = 1.0

    def __post_init__(self) -> None:
        lam = _real("lam", self.lam)
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        object.__setattr__(self, "lam", lam)


def _penalty_weight(lam: float, k: int) -> float:
    """s = lam * sqrt(k), refused unless positive and finite: s = inf gives
    inf * 0 = nan in the objective."""
    s = lam * math.sqrt(k)
    if not 0.0 < s < math.inf:
        raise ValueError(f"lambda * sqrt(k) must be positive and finite, got lambda = {lam}, k = {k}")
    return s


@dataclass
class SupportEstimate:
    a_hat: float
    b_hat: float
    objective_value: float


def support_objective(ord: RadialOrder, k: int, a: float, b: float, lam: float) -> float:
    """g(a, b) = (b - a) + lam * sqrt(k) * |D(a, b) - H|.

    D >= H always, so the absolute value is the cone-adjustment gap.
    """
    _check_k(ord, k)
    return _objective(ord, k, a, b, _real("lam", lam))


def _objective(ord: RadialOrder, k: int, a: float, b: float, lam: float) -> float:
    """g(a, b) at a checked k. H and D(a, b) come from ord's memo, so the
    fit at every lambda and each distinct cone score them once; H refuses
    R_(k) = 0 before lambda * sqrt(k) is checked, as the estimators would."""
    h = _head_value(ord, k, _hill_rows)
    d = _head_value(ord, k, _cone_adjusted_hill_rows, cone := AngularCone(a, b))
    return (cone.b - cone.a) + _penalty_weight(lam, k) * abs(d - h)


# s times a finite sum of weights may overflow: that candidate is +inf and loses
@np.errstate(over="ignore")
def estimate_support(
    ord: RadialOrder, k: int, opts: SupportFitOptions = SupportFitOptions()
) -> SupportEstimate:
    """Exact minimizer of the support objective.

    With w_i = (R_(i)/R_(k)) log(R_(i)/R_(k)) / k and s = lam sqrt(k),
    tail_core.cone_distances gives, for a <= b,

        g(a, b) = [-a + s sum_{theta_i < a} w_i (1 - theta_i / a)]
                + [ b + s sum_{theta_i > b} w_i (theta_i / b - 1)].

    Between consecutive top-k angles the a-part is concave, so its
    minimum is at an angle, 0 or 1; the b-part is convex, so its minimum
    is at an angle, 1, 0 (where the theta = 0 ray convention applies) or
    b = sqrt(s sum_{theta_i > b} w_i theta_i); on the diagonal a = b, g
    is monotone. The fit takes the best pair a <= b of these candidates
    in O(k log k) time and O(k) memory, never forming all pairs; ties
    prefer the narrowest interval, then the smallest a.
    """
    _check_k(ord, k)
    s = _penalty_weight(_instance("opts", opts, SupportFitOptions).lam, k)
    theta, w_hi, wt_hi, a, a_coef, wt_hi_at_a, b0 = _fit_tables(ord, k)
    # the pass below calls array and ufunc methods, not numpy's Python
    # wrappers of them (np.sort, np.searchsorted, ...): the same bits, sooner

    # no angle lies below a = 0, so the a-part is 0 there
    a_part = np.concatenate(([0.0], -a[1:] + s * a_coef))

    # the b-part's stationary point on the piece right of each breakpoint;
    # one that falls outside its piece is still a feasible candidate
    stationary = np.sqrt(s * wt_hi_at_a)
    b = np.concatenate((a, np.minimum(stationary, 1.0)))
    b.sort()
    b = b[np.concatenate(([True], b[1:] != b[:-1]))]
    hi = theta.searchsorted(b[1:], side="right")
    b_part = np.concatenate(([b0], b[1:] + s * (wt_hi[hi] / b[1:] - w_hi[hi])))

    # a[i] pairs with b[start[i]:]; rounded addition is monotone, so the least
    # g(a[i], b) is a_part[i] + min(b_part[start[i]:]). Each a[i] that reaches
    # the least g takes the first, narrowest, b that does, by one scan of
    # b_part[start[i]:]: the first b whose b-part is that minimum matches, so
    # the scan always finds one, that b or an earlier one whose sum rounds to
    # the same g. Almost every fit has one such a[i].
    start = b.searchsorted(a)
    row_min = a_part + np.minimum.accumulate(b_part[::-1])[::-1][start]
    best = []
    for i in (row_min == (gmin := np.minimum.reduce(row_min))).nonzero()[0]:
        j = start[i] + (a_part[i] + b_part[start[i] :] == gmin).argmax()
        best.append((float(b[j] - a[i]), float(a[i]), float(b[j])))
    _, a_hat, b_hat = min(best)
    return SupportEstimate(a_hat, b_hat, _objective(ord, k, a_hat, b_hat, opts.lam))


def _fit_tables(ord: RadialOrder, k: int) -> tuple:
    """What estimate_support takes from (ord, k) at every lambda, made once
    and kept in ord's memo, read-only: the top-k angles theta in ascending
    (stable) order; w_hi and wt_hi, the sums of w and w theta over theta[i:],
    i = 0..k; the candidate a (0, each distinct angle, 1); the a-part's
    coefficient of s, w_lo - wt_lo / a, at each a > 0; wt_hi right of each a,
    whose product with s is the square of that piece's stationary b; and the
    b-part at b = 0. Refuses weights that overflow; k must pass _check_k."""

    def build() -> tuple:
        logr, top = _log_ratios(ord, k), ord.head(k)
        order = np.argsort(top.theta, kind="stable")
        theta = top.theta[order]
        with np.errstate(over="ignore"):
            w = (top.sorted_r / top.sorted_r[k - 1] * logr / k)[order]
            wt = w * theta
            # sums over theta[:i] and over theta[i:], i = 0..k
            w_lo, wt_lo = (np.concatenate(([0.0], np.cumsum(v))) for v in (w, wt))
            w_hi, wt_hi = (np.concatenate(([0.0], np.cumsum(v[::-1])))[::-1] for v in (w, wt))
        if not (math.isfinite(w_lo[-1]) and math.isfinite(w_hi[0])):
            raise ValueError(
                f"the weights (R_(i)/R_({k})) log(R_(i)/R_({k})) / k overflow "
                f"(R_(1)/R_({k}) = {float(top.sorted_r[0])!r}/{float(top.sorted_r[k - 1])!r}), "
                "so the support objective is not finite"
            )
        a = np.concatenate(([0.0], theta, [1.0]))  # ascending, as 0 <= theta <= 1
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
        lo = np.searchsorted(theta, a[1:], side="left")
        a_coef = w_lo[lo] - wt_lo[lo] / a[1:]
        wt_hi_at_a = wt_hi[np.searchsorted(theta, a, side="right")]
        tables = (theta, w_hi, wt_hi, a, a_coef, wt_hi_at_a)
        for arr in tables:
            arr.setflags(write=False)
        # b = 0 is the theta = 0 ray: finite only if no weighted angle lies above it
        b0 = math.inf if w_hi[np.searchsorted(theta, 0.0, side="right")] > 0 else 0.0
        return (*tables, b0)

    return ord._cached(("fit_tables", k), build)
