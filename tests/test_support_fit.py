import math
import time
import tracemalloc

import numpy as np
import pytest

from taildep import estimators, support_fit
from taildep.datagen import MixtureSpec, example1, example2, generate
from taildep.estimators import (
    _log_ratios, angle_weighted_hill, cone_adjusted_hill, hill, masked_angle_weighted_hill,
)
from taildep.support_fit import (
    SupportFitOptions, _penalty_weight, estimate_support, support_objective,
)
from taildep.tail_core import AngularCone, BivariateSample, RadialOrder, radial_order

RAY_SPEC = MixtureSpec(
    alpha_main=2.0, alpha_hidden=4.0, cone=AngularCone(0.5, 0.5),
    z_p=1.0, z_q=1.0, mix_prob=1.0,
)
EXACTNESS_DATA = {
    "example1": lambda seed: example1(3000, seed),
    "example2": lambda seed: example2(3000, seed),
    "one_ray": lambda seed: generate(RAY_SPEC, 3000, seed),
}


class TestObjective:
    def test_full_interval_is_one(self):
        # (b - a) = 1 and the penalty vanishes by the D* = H identity
        o = radial_order(example1(2000, 0))
        assert support_objective(o, 50, 0.0, 1.0, 1.0) == 1.0

    def test_validation(self):
        o = radial_order(example1(100, 0))
        with pytest.raises(ValueError):
            support_objective(o, 10, 0.6, 0.4, 1.0)
        with pytest.raises(ValueError):
            support_objective(o, 10, 0.2, 0.8, 0.0)

    def test_lambda_that_is_not_a_number_refused(self):
        o = radial_order(example1(100, 0))
        with pytest.raises(ValueError, match="^lam must be a number, got '1'$"):
            support_objective(o, 10, 0.2, 0.7, "1")

    def test_reversed_cone_refused_by_the_cone(self):
        # AngularCone alone decides what a valid cone is
        o = radial_order(example1(100, 0))
        with pytest.raises(ValueError, match=r"cone requires 0 <= a <= b <= 1, got \[0\.5, 0\.2\]"):
            support_objective(o, 10, 0.5, 0.2, 1.0)

    def test_lambda_sqrt_k_overflow_refused(self):
        # lambda * sqrt(20) overflows, and inf * 0 would be nan
        o = radial_order(example1(100, 0))
        match = r"lambda \* sqrt\(k\) must be positive and finite, got lambda = 1e\+308, k = 20"
        with pytest.raises(ValueError, match=match):
            support_objective(o, 20, 0.2, 0.8, 1e308)
        with pytest.raises(ValueError, match=match):
            estimate_support(o, 20, SupportFitOptions(lam=1e308))

    def test_true_support_beats_wider(self):
        wins = 0
        for seed in range(10):
            o = radial_order(example1(30000, seed))
            wins += support_objective(o, 100, 0.25, 0.75, 1.0) < support_objective(
                o, 100, 0.05, 0.95, 1.0
            )
        assert wins >= 8

    def test_ray_point_beats_wide_interval(self):
        hits = 0
        for seed in range(10):
            o = radial_order(generate(RAY_SPEC, 10000, seed))
            hits += support_objective(o, 100, 0.5, 0.5, 1.0) < support_objective(
                o, 100, 0.3, 0.7, 1.0
            )
        assert hits >= 8


class TestEstimateSupport:
    def test_bimodal_recovery_all_lambdas(self):
        # narrow-spread support [0.25, 0.75] recovered for every tuning value
        o = radial_order(example1(30000, 0))
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            est = estimate_support(o, 100, SupportFitOptions(lam=lam))
            assert est.a_hat == pytest.approx(0.25, abs=0.01)
            assert est.b_hat == pytest.approx(0.75, abs=0.01)

    def test_low_spread_large_lambda(self):
        # Beta(1,2)-spread angles put little mass near b: the fit trims the
        # top of the interval toward ~0.67 at the largest tuning value
        hits = 0
        for seed in range(5):
            o = radial_order(example2(30000, seed))
            est = estimate_support(o, 100, SupportFitOptions(lam=16.0))
            hits += abs(est.a_hat - 0.251) <= 0.03 and abs(est.b_hat - 0.670) <= 0.03
        assert hits >= 3

    def test_ray_data_degenerates(self):
        for seed in range(3):
            o = radial_order(generate(RAY_SPEC, 10000, seed))
            est = estimate_support(o, 100, SupportFitOptions())
            assert est.a_hat == pytest.approx(0.5, abs=0.02)
            assert est.b_hat == pytest.approx(0.5, abs=0.02)
            assert est.a_hat <= est.b_hat

    def test_deterministic(self):
        o = radial_order(example1(3000, 3))
        e1 = estimate_support(o, 50, SupportFitOptions())
        e2 = estimate_support(o, 50, SupportFitOptions())
        assert (e1.a_hat, e1.b_hat, e1.objective_value) == (
            e2.a_hat, e2.b_hat, e2.objective_value,
        )

    def test_consistency_over_n(self):
        meds = []
        for n, k in ((3000, 50), (10000, 100), (30000, 100)):
            errs = []
            for seed in range(15):
                o = radial_order(example1(n, seed))
                est = estimate_support(o, k, SupportFitOptions())
                errs.append(abs(est.a_hat - 0.25) + abs(est.b_hat - 0.75))
            meds.append(float(np.median(errs)))
        assert meds[0] >= meds[1] >= meds[2]

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SupportFitOptions(lam=0.0)
        for lam in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                SupportFitOptions(lam=lam)
        with pytest.raises(ValueError, match="^lam must be a number, got '1'$"):
            SupportFitOptions(lam="1")


class TestExactness:
    @pytest.mark.parametrize("name", sorted(EXACTNESS_DATA))
    def test_no_grid_or_angle_pair_is_lower(self, name):
        # every pair of a 101-point grid and of the top-k angles; g is
        # evaluated once at lambda = 1 and rescaled, since
        # g_lambda = (b - a) + lambda * (g_1 - (b - a))
        k = 50
        grid = np.linspace(0.0, 1.0, 101)
        for seed in range(10):
            o = radial_order(EXACTNESS_DATA[name](seed))
            pairs = [
                (float(a), float(b))
                for pts in (grid, np.unique(o.head(k).theta))
                for i, a in enumerate(pts) for b in pts[i:]
            ]
            width = np.array([b - a for a, b in pairs])
            g1 = np.array([support_objective(o, k, a, b, 1.0) for a, b in pairs])
            for lam in (1.0, 4.0, 16.0):
                est = estimate_support(o, k, SupportFitOptions(lam=lam))
                ref = float(np.min(width + lam * (g1 - width)))
                assert est.objective_value <= ref + 1e-12 * abs(ref), (seed, lam)

    def test_objective_value_is_the_objective(self):
        o = radial_order(example1(3000, 4))
        est = estimate_support(o, 50, SupportFitOptions(lam=4.0))
        assert est.objective_value == support_objective(o, 50, est.a_hat, est.b_hat, 4.0)


class TestEndpoints:
    def test_all_mass_on_theta_zero_ray(self):
        # x == 0: the b = 0 ray convention makes (0, 0) free of any gap
        y = (1 - np.random.Generator(np.random.Philox(1)).random(1000)) ** -0.5
        o = radial_order(BivariateSample(np.zeros(1000), y))
        est = estimate_support(o, 50, SupportFitOptions(lam=4.0))
        assert (est.a_hat, est.b_hat, est.objective_value) == (0.0, 0.0, 0.0)

    def test_all_mass_on_theta_one_ray(self):
        x = (1 - np.random.Generator(np.random.Philox(2)).random(1000)) ** -0.5
        o = radial_order(BivariateSample(x, np.zeros(1000)))
        est = estimate_support(o, 50, SupportFitOptions(lam=4.0))
        assert (est.a_hat, est.b_hat, est.objective_value) == (1.0, 1.0, 0.0)


    def test_negative_zero_x_gives_positive_a_hat(self):
        # 1500 of 2000 points at x = -0.0 put a_hat at -0.0 for every lambda
        gen = np.random.Generator(np.random.Philox(5))
        r = (1 - gen.random(2000)) ** -0.5
        theta = gen.random(2000)
        x, y = r * theta, r * (1 - theta)
        x[:1500], y[:1500] = -0.0, r[:1500]
        o = radial_order(BivariateSample(x, y))
        for lam in (0.1, 1.0, 4.0, 16.0):
            est = estimate_support(o, 100, SupportFitOptions(lam=lam))
            assert bits([est.a_hat]) == bits([0.0]), lam


class TestTieRule:
    def test_diagonal_tie_takes_smallest_a(self):
        # equal top-k radii: every log ratio is 0, so g(a, b) = b - a and
        # every a = b ties at 0
        x = np.linspace(0.0, 2.0, 10)
        o = radial_order(BivariateSample(x, 2.0 - x))
        est = estimate_support(o, 5, SupportFitOptions(lam=4.0))
        assert (est.a_hat, est.b_hat, est.objective_value) == (0.0, 0.0, 0.0)

    def test_tie_takes_narrowest_interval(self):
        # two top points of ratio r at theta = 0 and theta = 1, the rest
        # at ratio 1 (weight 0); with k = 4 each has weight
        # w = r log(r) / 4, and lambda is set so that lambda * 2 * w == 1
        # exactly. Then g(0, 1) = 1 and g(1, 1) = lambda sqrt(k) w = 1,
        # and every other pair is larger.
        r = 3.0
        w = r * np.log(r) / 4
        lam = next(
            float(c) for c in (0.5 / w, *np.nextafter(0.5 / w, [0.0, 1.0]))
            if c * 2.0 * w == 1.0
        )
        o = radial_order(BivariateSample(
            np.array([0.0, r] + [0.5] * 8), np.array([r, 0.0] + [0.5] * 8)
        ))
        est = estimate_support(o, 4, SupportFitOptions(lam=lam))
        assert (est.a_hat, est.b_hat) == (1.0, 1.0)
        assert support_objective(o, 4, 0.0, 1.0, lam) == 1.0
        assert est.objective_value == pytest.approx(1.0, rel=1e-12)


class TestOverflow:
    def test_candidate_overflow_loses_without_warning(self):
        # s = 1e300 * sqrt(20) is finite, but s times the weight of the
        # 1e250 radius is not: those candidates are +inf and lose
        gen = np.random.Generator(np.random.Philox(3))
        r = (1 - gen.random(300)) ** -0.5
        theta = gen.random(300)
        r[np.argmax(r)] = 1e250
        o = radial_order(BivariateSample(r * theta, r * (1 - theta)))
        est = estimate_support(o, 20, SupportFitOptions(lam=1e300))
        assert 0.0 <= est.a_hat <= est.b_hat <= 1.0
        assert est.objective_value == support_objective(o, 20, est.a_hat, est.b_hat, 1e300)
        assert est.objective_value <= support_objective(o, 20, 0.0, 1.0, 1e300) == 1.0

    def test_ratio_overflow_refused(self):
        r = np.r_[1e300, 1e-10 * (1.0 + np.arange(299.0) / 299.0)]
        o = radial_order(BivariateSample(0.5 * r, 0.5 * r))
        with pytest.raises(ValueError, match=r"^R_\(1\)/R_\(20\) = 1e\+300/.* overflows"):
            estimate_support(o, 20)

    def test_weight_overflow_refused(self):
        # R_(1)/R_(k) = 1e307 is finite, but times its log it is not
        r = np.r_[1e307, np.ones(99)]
        o = radial_order(BivariateSample(0.5 * r, 0.5 * r))
        with pytest.raises(ValueError, match=r"^the weights .* overflow \(R_\(1\)/R_\(20\) = "):
            estimate_support(o, 20)


@np.errstate(over="ignore")
def dense_fit(ord, k, lam):
    """The support fit with the full (a, b) candidate matrix: every pair
    is formed, infeasible pairs a > b are set to +inf, and the minimum's
    ties go to the narrowest interval, then the smallest a. Quadratic in
    k; the reference for estimate_support's selection."""
    s = _penalty_weight(lam, k)
    logr = _log_ratios(ord, k)
    top = ord.head(k)
    order = np.argsort(top.theta, kind="stable")
    theta = top.theta[order]
    w = (top.sorted_r / top.sorted_r[k - 1] * logr / k)[order]
    wt = w * theta
    w_lo, wt_lo = (np.concatenate(([0.0], np.cumsum(v))) for v in (w, wt))
    w_hi, wt_hi = (np.concatenate(([0.0], np.cumsum(v[::-1])))[::-1] for v in (w, wt))
    a = np.unique(np.concatenate(([0.0, 1.0], theta)))
    lo = np.searchsorted(theta, a[1:], side="left")
    a_part = np.concatenate(([0.0], -a[1:] + s * (w_lo[lo] - wt_lo[lo] / a[1:])))
    stationary = np.sqrt(s * wt_hi[np.searchsorted(theta, a, side="right")])
    b = np.unique(np.concatenate((a, np.minimum(stationary, 1.0))))
    hi = np.searchsorted(theta, b[1:], side="right")
    b0 = math.inf if w_hi[np.searchsorted(theta, 0.0, side="right")] > 0 else 0.0
    b_part = np.concatenate(([b0], b[1:] + s * (wt_hi[hi] / b[1:] - w_hi[hi])))
    g = a_part[:, None] + b_part[None, :]
    g[a[:, None] > b[None, :]] = math.inf
    ia, ib = np.nonzero(g == g.min())
    best = np.lexsort((a[ia], b[ib] - a[ia]))[0]
    a_hat, b_hat = float(a[ia[best]]), float(b[ib[best]])
    return a_hat, b_hat, support_objective(ord, k, a_hat, b_hat, lam)


def bits(values):
    # float.hex tells -0.0 from 0.0, where == does not
    return [float(v).hex() for v in values]


def degree_sample(seed, n=3000):
    # integer in/out-degree pairs: radii and angles tie heavily
    gen = np.random.Generator(np.random.Philox(seed))
    return BivariateSample(np.floor(gen.pareto(1.2, n)), np.floor(gen.pareto(1.2, n)))


def tied_radius_sample(seed, n):
    # x + y == 1 exactly (x is dyadic), so every log ratio and weight is 0
    x = np.random.Generator(np.random.Philox(seed)).integers(0, 2**20, n) / 2**20
    return BivariateSample(x, 1.0 - x)


class TestDenseOracle:
    # the O(k) selection returns the dense matrix's pair, bit for bit

    @pytest.mark.parametrize("shape", [example1, example2], ids=["example1", "example2"])
    def test_matches_dense_fit(self, shape):
        for seed in range(12):
            o = radial_order(shape(3000, seed))
            for k in (2, 5, 20, 100, 700):
                for lam in (0.1, 1.0, 4.0, 16.0):
                    est = estimate_support(o, k, SupportFitOptions(lam=lam))
                    got = (est.a_hat, est.b_hat, est.objective_value)
                    assert bits(got) == bits(dense_fit(o, k, lam)), (seed, k, lam)

    @pytest.mark.parametrize("make, ks", [(degree_sample, (5, 20, 100)),
                                          (lambda seed: tied_radius_sample(seed, 1000), (5, 100, 700))],
                             ids=["integer_degrees", "all_top_radii_tied"])
    def test_matches_dense_fit_on_ties(self, make, ks):
        for seed in range(4):
            o = radial_order(make(seed))
            for k in ks:
                for lam in (0.1, 1.0, 16.0):
                    est = estimate_support(o, k, SupportFitOptions(lam=lam))
                    got = (est.a_hat, est.b_hat, est.objective_value)
                    assert bits(got) == bits(dense_fit(o, k, lam)), (seed, k, lam)


class TestFitFootprint:
    def test_memory_is_linear_in_k(self):
        # the dense (k + 2) x (2k + 4) matrix alone would take 400 MB here
        o = radial_order(example1(20000, 5))
        tracemalloc.start()
        try:
            estimate_support(o, 5000, SupportFitOptions())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_every_row_tied(self):
        # every a = b ties at g = 0; each tied row stops at its first b
        o = radial_order(tied_radius_sample(0, 4000))
        start = time.perf_counter()
        est = estimate_support(o, 2000, SupportFitOptions(lam=4.0))
        assert time.perf_counter() - start < 1.0
        assert (est.a_hat, est.b_hat, est.objective_value) == (0.0, 0.0, 0.0)


def two_call_objective(ord, k, a, b, lam):
    """g(a, b) from two public estimator calls, each with its own check
    and log-ratio pass; the reference for the one-pass objective's bits."""
    d = cone_adjusted_hill(ord, k, AngularCone(a, b)).value
    return (b - a) + _penalty_weight(lam, k) * abs(d - hill(ord, k).value)


ORACLE_CONES = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.0, 0.3), (0.6, 1.0), (0.0, 0.0)]
ORACLE_SAMPLES = {
    "example1": lambda seed: example1(3000, seed),
    "example2": lambda seed: example2(3000, seed),
    "integer_degrees": degree_sample,
}


class TestObjectiveOracle:
    # support_objective and the fit's objective_value take H and D from
    # one log-ratio pass; they equal the two-call objective bit for bit

    @pytest.mark.parametrize("name", sorted(ORACLE_SAMPLES))
    def test_matches_two_call_objective(self, name):
        for seed in range(3):
            o = radial_order(ORACLE_SAMPLES[name](seed))
            for k in (2, 5, 25, 100, 700):
                for lam in (0.1, 1.0, 3.0, 4.0, 16.0):
                    for a, b in ORACLE_CONES:
                        assert bits([support_objective(o, k, a, b, lam)]) == bits(
                            [two_call_objective(o, k, a, b, lam)]), (seed, k, lam, a, b)
                    est = estimate_support(o, k, SupportFitOptions(lam=lam))
                    assert bits([est.objective_value]) == bits(
                        [two_call_objective(o, k, est.a_hat, est.b_hat, lam)]), (seed, k, lam)

    def test_refusals_keep_their_order(self):
        # k is checked first, then R_(k) > 0, then lambda * sqrt(k), as the
        # two-call objective checks them
        o = radial_order(BivariateSample([1.0] + [0.0] * 30, [1.0] + [0.0] * 30))
        for k, match in ((31, "k must satisfy"), (20, r"R_\(20\) must be positive")):
            for objective in (support_objective, two_call_objective):
                with pytest.raises(ValueError, match=match):
                    objective(o, k, 0.2, 0.8, 1e308)
        with pytest.raises(ValueError, match=r"lambda \* sqrt\(k\) must be positive"):
            support_objective(radial_order(example1(100, 0)), 20, 0.2, 0.8, 1e308)


TABLE_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)


def table_calls(k):
    """The calls of one Table-1 row at k (the fit at five lambdas, the four
    estimators, an objective), each a function of the order."""
    cone = AngularCone(0.25, 0.75)
    fits = [lambda o, lam=lam: vars(estimate_support(o, k, SupportFitOptions(lam=lam))).values()
            for lam in TABLE_LAMBDAS]
    return fits + [
        lambda o: [hill(o, k).value],
        lambda o: [cone_adjusted_hill(o, k, cone).value],
        lambda o: [angle_weighted_hill(o, k).value],
        lambda o: [masked_angle_weighted_hill(o, k, cone).value],
        lambda o: [support_objective(o, k, 0.2, 0.7, 3.0)],
    ]


class TestMemo:
    # a RadialOrder keeps what depends only on (order, k): the log ratios,
    # the fit's lambda-free tables and each head statistic's value

    @pytest.mark.parametrize("make", [lambda: example1(3000, 5), lambda: example2(3000, 5),
                                      lambda: degree_sample(5)],
                             ids=["example1", "example2", "integer_degrees"])
    def test_shared_order_matches_fresh_orders(self, make):
        s = make()
        shared = radial_order(s)
        for k in (50, 100, 50):
            for i, call in enumerate(table_calls(k)):
                assert bits(call(shared)) == bits(call(radial_order(s))), (k, i)

    def test_each_k_is_prepared_once(self, monkeypatch):
        builds, checks, passes = [], [], []
        cached = RadialOrder._cached

        def counted(self, key, build):
            return cached(self, key, lambda: builds.append(key) or build())

        check_rk, log_ratio_rows = estimators._check_rk, estimators._log_ratio_rows
        monkeypatch.setattr(RadialOrder, "_cached", counted)
        monkeypatch.setattr(estimators, "_check_rk", lambda *a: checks.append(1) or check_rk(*a))
        monkeypatch.setattr(estimators, "_log_ratio_rows",
                            lambda *a: passes.append(1) or log_ratio_rows(*a))
        o = radial_order(example1(3000, 2))
        cone = AngularCone(0.25, 0.75)
        fits = [estimate_support(o, 100, SupportFitOptions(lam=lam)) for lam in TABLE_LAMBDAS]
        hill(o, 100), cone_adjusted_hill(o, 100, cone), angle_weighted_hill(o, 100)
        # H once, D once per distinct cone, fitted or asked for, in first use
        cones = dict.fromkeys([*(AngularCone(f.a_hat, f.b_hat) for f in fits), cone])
        assert builds == [("fit_tables", 100), ("log_ratios", 100), (100, estimators._hill_rows),
                          *((100, estimators._cone_adjusted_hill_rows, c) for c in cones),
                          (100, estimators._angle_weighted_hill_rows)]
        assert len(checks) == len(passes) == 1

    @pytest.mark.parametrize("make", [lambda: example1(3000, 0), lambda: example2(3000, 2),
                                      lambda: degree_sample(0)],
                             ids=["example1", "example2", "integer_degrees"])
    def test_each_head_statistic_is_scored_once(self, make, monkeypatch):
        # a Table-1 row: the fit at five lambdas, then the four statistics at
        # the lambda = 1 cone, scores H once and D once per distinct fitted cone
        scored_h, scored_d = [], []
        hill_rows, cone_rows = estimators._hill_rows, estimators._cone_adjusted_hill_rows

        def spy_hill(rows, logr):
            scored_h.append(1)
            return hill_rows(rows, logr)

        def spy_cone(rows, logr, cone):
            scored_d.append(cone)
            return cone_rows(rows, logr, cone)

        for module in (estimators, support_fit):
            monkeypatch.setattr(module, "_hill_rows", spy_hill)
            monkeypatch.setattr(module, "_cone_adjusted_hill_rows", spy_cone)

        def row(order):
            """The row's fits and values, each call on order()."""
            fits = [estimate_support(order(), 100, SupportFitOptions(lam=lam))
                    for lam in TABLE_LAMBDAS]
            cone = AngularCone(fits[0].a_hat, fits[0].b_hat)
            stats = [hill(order(), 100), cone_adjusted_hill(order(), 100, cone),
                     angle_weighted_hill(order(), 100), masked_angle_weighted_hill(order(), 100, cone)]
            return fits, [*(v for f in fits for v in vars(f).values()), *(v.value for v in stats)]

        s = make()
        shared = radial_order(s)
        fits, values = row(lambda: shared)
        assert len(scored_h) == 1
        assert scored_d == list(dict.fromkeys(AngularCone(f.a_hat, f.b_hat) for f in fits))
        assert bits(values) == bits(row(lambda: radial_order(s))[1])

    def test_refusals_store_nothing(self):
        # each repeat raises again; the overflowing weights' log ratios are
        # finite, so they are kept, but the refused tables are not
        r = np.r_[1e307, np.ones(99)]
        o = radial_order(BivariateSample(0.5 * r, 0.5 * r))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^the weights .* overflow"):
                estimate_support(o, 20)
        assert list(o._memo) == [("log_ratios", 20)]
        o = radial_order(BivariateSample([1.0] + [0.0] * 30, [1.0] + [0.0] * 30))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"R_\(20\) must be positive"):
                hill(o, 20)
        assert o._memo == {}
