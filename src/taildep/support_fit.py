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

from taildep.estimators import _check_k, _log_ratios, cone_adjusted_hill, hill
from taildep.tail_core import AngularCone, RadialOrder


@dataclass(frozen=True)
class SupportFitOptions:
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


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
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"need 0 <= a <= b <= 1, got ({a}, {b})")
    d = cone_adjusted_hill(ord, k, AngularCone(a, b)).value
    return (b - a) + _penalty_weight(lam, k) * abs(d - hill(ord, k).value)


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
    is monotone. The fit takes the best feasible pair of these
    candidates; ties prefer the narrowest interval, then the smallest a.
    """
    _check_k(ord, k)
    s = _penalty_weight(opts.lam, k)
    logr = _log_ratios(ord, k)
    order = np.argsort(ord.theta[:k], kind="stable")
    theta = ord.theta[:k][order]
    w = (ord.sorted_r[:k] / ord.sorted_r[k - 1] * logr / k)[order]
    wt = w * theta
    # sums over theta[:i] and over theta[i:], i = 0..k
    w_lo, wt_lo = (np.concatenate(([0.0], np.cumsum(v))) for v in (w, wt))
    w_hi, wt_hi = (np.concatenate(([0.0], np.cumsum(v[::-1])))[::-1] for v in (w, wt))

    a = np.unique(np.concatenate(([0.0, 1.0], theta)))
    lo = np.searchsorted(theta, a[1:], side="left")
    # no angle lies below a = 0, so the a-part is 0 there
    a_part = np.concatenate(([0.0], -a[1:] + s * (w_lo[lo] - wt_lo[lo] / a[1:])))

    # the b-part's stationary point on the piece right of each breakpoint;
    # one that falls outside its piece is still a feasible candidate
    stationary = np.sqrt(s * wt_hi[np.searchsorted(theta, a, side="right")])
    b = np.unique(np.concatenate((a, np.minimum(stationary, 1.0))))
    hi = np.searchsorted(theta, b[1:], side="right")
    # b = 0 is the theta = 0 ray: finite only if no weighted angle lies above it
    b0 = math.inf if w_hi[np.searchsorted(theta, 0.0, side="right")] > 0 else 0.0
    b_part = np.concatenate(([b0], b[1:] + s * (wt_hi[hi] / b[1:] - w_hi[hi])))

    g = a_part[:, None] + b_part[None, :]
    g[a[:, None] > b[None, :]] = math.inf
    ia, ib = np.nonzero(g == g.min())
    best = np.lexsort((a[ia], b[ib] - a[ia]))[0]
    a_hat, b_hat = float(a[ia[best]]), float(b[ib[best]])
    return SupportEstimate(
        a_hat=a_hat,
        b_hat=b_hat,
        objective_value=support_objective(ord, k, a_hat, b_hat, opts.lam),
    )
