"""Output checks that hold for any correct version of the program.

No report bytes are pinned: the random-stream scheme and the support fit
are expected to change them. Instead each statistic is recomputed from
the fields it is derived from, thresholds are compared with the
acceptance-criterion-2 constants, verdicts with their statistic, and a
fitted support with the objective on a fixed reference grid.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_SIG = 0.05
# acceptance criterion 2 at B = 2000: (value, tolerance)
Z_975 = (1.960, 0.001)
CHISQ_BAND = (1.053, 0.001)
F_BAND = ((0.916, 0.002), (1.092, 0.002))
# every 0.04 in [0, 1]; a sub-grid of the program's own 51-point grid, so a
# correct global fit is never above its minimum
REFERENCE_GRID = np.linspace(0.0, 1.0, 26)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _near(value: float, target: tuple[float, float]) -> bool:
    return abs(value - target[0]) <= target[1]


def _finite_vector(values, B: int, what: str, errors: list) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (B,):
        errors.append(f"{what}: expected {B} values, got shape {arr.shape}")
    elif not np.all(np.isfinite(arr)):
        errors.append(f"{what}: non-finite values")
    return arr


def check_test_report(rep: dict, B: int) -> list[str]:
    """Errors in one H1/H2/H3 report dict (TestReport.to_dict form)."""
    errors: list[str] = []
    tid = rep.get("test_id")
    aux = rep["auxiliary"]
    stat, thr = rep["statistic"], rep["threshold"]
    s = _finite_vector(rep["per_resample"], B, f"{tid} per_resample", errors)
    if errors:
        return errors
    hill, k = aux["hill"], aux["k_mn"]
    if tid == "H1":
        band = aux["band_halfwidth"]
        if not _near(band * math.sqrt(k) / hill, Z_975):
            errors.append(f"H1 band {band} is not z(0.975) * H / sqrt(k_mn)")
        rate = float(np.mean(np.abs(s - hill) > band))
        if not (_close(stat, rate) and _close(aux["rejection_rate"], rate)):
            errors.append(f"H1 statistic {stat} != flag rate {rate} of per_resample")
        if thr != ALPHA_SIG:
            errors.append(f"H1 threshold {thr} != alpha {ALPHA_SIG}")
        reject = stat > thr
    elif tid == "H2":
        se = float(np.std(s, ddof=1))
        if not (_close(stat, k * se**2 / hill**2) and _close(aux["se_boot"], se)):
            errors.append(f"H2 statistic {stat} != k se^2 / H^2 = {k * se**2 / hill**2}")
        if not _near(thr, CHISQ_BAND):
            errors.append(f"H2 threshold {thr} is not chi2(0.95, B-1)/(B-1)")
        reject = stat > thr
    elif tid == "H3":
        masked = _finite_vector(aux["per_resample_masked"], B, "H3 per_resample_masked", errors)
        if errors:
            return errors
        v_plain, v_masked = float(np.var(s, ddof=1)), float(np.var(masked, ddof=1))
        if not (_close(stat, v_plain / v_masked) and _close(aux["var_plain"], v_plain)
                and _close(aux["var_masked"], v_masked)):
            errors.append(f"H3 statistic {stat} != variance ratio {v_plain / v_masked}")
        lo, hi = thr
        if not (_near(lo, F_BAND[0]) and _near(hi, F_BAND[1])):
            errors.append(f"H3 threshold {thr} is not the F(B-1, B-1) band")
        reject = stat < lo or stat > hi
    else:
        return [f"unknown test_id {tid!r}"]
    if rep["verdict"] != ("reject" if reject else "fail_to_reject"):
        errors.append(f"{tid} verdict {rep['verdict']} disagrees with {stat} vs {thr}")
    return errors


def check_cli_test_report(payload: dict, B: int) -> list[str]:
    """Errors in a `taildep test --which all` report, support fit excluded."""
    errors: list[str] = []
    reports = payload.get("reports", [])
    ids = [r.get("test_id") for r in reports]
    if ids != ["H1", "H2", "H3"]:
        return [f"expected reports H1, H2, H3, got {ids}"]
    if payload.get("cone_source") != "estimated" or payload["config"]["B"] != B:
        errors.append("report does not describe an estimated cone at the requested B")
    for rep in reports:
        errors.extend(check_test_report(rep, B))
    return errors


class SupportOracle:
    """Objective of one sample's support fit, through taildep.support_objective."""

    def __init__(self, x: np.ndarray, y: np.ndarray, k: int) -> None:
        from taildep.support_fit import support_objective
        from taildep.tail_core import BivariateSample, radial_order

        self._objective = support_objective
        self.order = radial_order(BivariateSample(x, y))
        self.k = k
        self._grid_min: dict[float, float] = {}

    def objective(self, a: float, b: float, lam: float) -> float:
        return self._objective(self.order, self.k, a, b, lam)

    def grid_min(self, lam: float) -> float:
        if lam not in self._grid_min:
            g = REFERENCE_GRID
            self._grid_min[lam] = min(
                self.objective(float(g[i]), float(g[j]), lam)
                for i in range(g.size) for j in range(i, g.size)
            )
        return self._grid_min[lam]

    def check(self, a: float, b: float, lam: float, value: float | None = None) -> list[str]:
        """A fitted cone must be feasible, not above the reference grid minimum,
        and, when the fit reports its objective value, match the objective."""
        if not (0.0 <= a <= b <= 1.0):
            return [f"fitted cone [{a}, {b}] is infeasible"]
        errors = []
        g = self.objective(a, b, lam)
        if value is not None and not _close(value, g):
            errors.append(f"objective_value {value} != support_objective {g} (lambda {lam})")
        ref = self.grid_min(lam)
        if g > ref + 1e-9 * max(1.0, abs(ref)):
            errors.append(f"fit [{a}, {b}] objective {g} is above the reference grid minimum {ref}")
        return errors


def reference_statistics(x: np.ndarray, y: np.ndarray, k: int, a: float, b: float) -> dict:
    """The four estimators, written out independently of taildep."""
    r = x + y
    order = np.argsort(-r, kind="stable")
    rs, xs, ys = r[order], x[order], y[order]
    th = xs / rs
    rk = rs[k - 1]
    logr = np.log(rs[:k] / rk)
    above = ys[:k] - (1.0 / a - 1.0) * xs[:k] if a > 0 else np.full(k, -np.inf)
    below = (1.0 / b - 1.0) * xs[:k] - ys[:k] if b > 0 else np.where(xs[:k] > 0, np.inf, -ys[:k])
    d = np.maximum(np.maximum(above, below), 0.0)
    mask = (th >= a) & (th <= b)
    r_m, th_m = np.where(mask, rs, 0.0), np.where(mask, th, 0.0)
    top = np.argsort(-r_m, kind="stable")[:k]
    r_top, th_top = r_m[top], th_m[top]
    if th_top.sum() <= 0:
        masked = 1.0
    elif r_top[-1] > 0:
        masked = float(np.dot(th_top, np.log(np.maximum(r_top / r_top[-1], 1.0))) / th_top.sum())
    else:
        masked = 0.0
    return {
        "hill": float(np.mean(logr)),
        "cone_adjusted_hill": float(np.mean((1.0 + d / rk) * logr)),
        "angle_weighted_hill": float(np.dot(th[:k], logr) / th[:k].sum()),
        "masked_angle_weighted_hill": masked,
    }


def check_statistics(got: dict, want: dict) -> list[str]:
    return [
        f"{name} = {got.get(name)} differs from the reference {value}"
        for name, value in want.items()
        if not (isinstance(got.get(name), float) and _close(got[name], value))
    ]
