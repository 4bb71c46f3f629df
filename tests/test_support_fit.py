import numpy as np
import pytest

from taildep.datagen import MixtureSpec, example1, example2, generate
from taildep.support_fit import SupportFitOptions, estimate_support, support_objective
from taildep.tail_core import AngularCone, BivariateSample, radial_order

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
                for pts in (grid, np.unique(o.theta[:k]))
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
