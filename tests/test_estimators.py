import math

import numpy as np
import pytest

from taildep.datagen import example1, pareto, stream
from taildep.estimators import (
    angle_weighted_hill,
    cone_adjusted_hill,
    hill,
    masked_angle_weighted_hill,
)
from taildep.tail_core import AngularCone, BivariateSample, radial_order


def _sample_from_polar(r, theta):
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return BivariateSample(r * theta, r * (1.0 - theta))


def _random_sample(gen, n):
    return BivariateSample(gen.exponential(size=n) + 0.01, gen.exponential(size=n) + 0.01)


class TestHill:
    def test_hand_evaluation(self):
        o = radial_order(_sample_from_polar([math.e**2, math.e, 1.0], [0.5, 0.5, 0.5]))
        assert hill(o, 2).value == pytest.approx(0.5, rel=1e-12)

    def test_all_radii_equal(self):
        o = radial_order(_sample_from_polar([3.0] * 5, [0.5] * 5))
        for k in (1, 2, 4):
            assert hill(o, k).value == 0.0

    def test_pareto_monte_carlo(self):
        vals = []
        for seed in range(500):
            r = pareto(2.0, 10000, stream(seed, 100))
            o = radial_order(_sample_from_polar(r, np.full(10000, 0.5)))
            vals.append(hill(o, 100).value)
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_k_range_errors(self):
        o = radial_order(BivariateSample([1, 2], [1, 2]))
        for k in (0, 2, 3, 1.5):
            with pytest.raises(ValueError):
                hill(o, k)

    def test_zero_kth_radius(self):
        o = radial_order(BivariateSample([1, 0], [0, 0]))
        with pytest.raises(ValueError):
            hill(o, 2)


class TestConeAdjustedHill:
    def test_full_cone_identity(self):
        gen = np.random.Generator(np.random.Philox(11))
        cone = AngularCone(0.0, 1.0)
        for _ in range(100):
            n = int(gen.integers(5, 50))
            o = radial_order(_random_sample(gen, n))
            k = int(gen.integers(1, n))
            assert cone_adjusted_hill(o, k, cone).value == hill(o, k).value

    def test_hand_evaluation(self):
        s = BivariateSample.from_pairs([(0, 4), (1, 1), (0.5, 0.5)])
        v = cone_adjusted_hill(radial_order(s), 2, AngularCone(0.25, 0.75)).value
        assert v == pytest.approx(1.5 * math.log(2), rel=1e-12)

    def test_never_below_hill(self):
        gen = np.random.Generator(np.random.Philox(12))
        for _ in range(200):
            n = int(gen.integers(5, 60))
            o = radial_order(_random_sample(gen, n))
            k = int(gen.integers(1, n))
            a, b = sorted(gen.random(2))
            assert cone_adjusted_hill(o, k, AngularCone(a, b)).value >= hill(o, k).value

    def test_shrinking_cone_monotonicity(self):
        gen = np.random.Generator(np.random.Philox(13))
        for _ in range(200):
            n = int(gen.integers(5, 60))
            o = radial_order(_random_sample(gen, n))
            k = int(gen.integers(1, n))
            a, a2, b2, b = sorted(gen.random(4))
            assert (
                cone_adjusted_hill(o, k, AngularCone(a2, b2)).value
                >= cone_adjusted_hill(o, k, AngularCone(a, b)).value
            )

    def test_gap_vanishes_on_generator_data(self):
        # sqrt(k)|D* - H| below the 1.96 H normal scale when the cone is correct
        ok = 0
        cone = AngularCone(0.25, 0.75)
        for seed in range(50):
            o = radial_order(example1(30000, seed))
            h = hill(o, 100).value
            d = cone_adjusted_hill(o, 100, cone).value
            ok += math.sqrt(100) * abs(d - h) < 1.96 * h
        assert ok >= 45


class TestAngleWeightedHill:
    def test_constant_angle_equals_hill(self):
        gen = np.random.Generator(np.random.Philox(14))
        for _ in range(100):
            n = int(gen.integers(3, 40))
            r = gen.exponential(size=n) + 0.01
            o = radial_order(_sample_from_polar(r, np.full(n, 0.37)))
            k = int(gen.integers(1, n))
            assert angle_weighted_hill(o, k).value == pytest.approx(
                hill(o, k).value, rel=1e-12, abs=1e-15
            )

    def test_hand_evaluation(self):
        # third point stays out of the top 2
        o = radial_order(_sample_from_polar([math.e, 1.0, 0.5], [0.5, 0.25, 0.9]))
        assert angle_weighted_hill(o, 2).value == pytest.approx(2 / 3, rel=1e-12)

    def test_zero_angle_sum_rejected(self):
        o = radial_order(BivariateSample([0, 0], [2, 1]))
        with pytest.raises(ValueError):
            angle_weighted_hill(o, 2)


class TestMaskedAngleWeightedHill:
    def test_all_inside_equals_plain(self):
        gen = np.random.Generator(np.random.Philox(15))
        cone = AngularCone(0.2, 0.8)
        for _ in range(100):
            n = int(gen.integers(3, 40))
            r = gen.exponential(size=n) + 0.01
            theta = 0.2 + 0.6 * gen.random(n)
            o = radial_order(_sample_from_polar(r, theta))
            k = int(gen.integers(1, n))
            assert masked_angle_weighted_hill(o, k, cone).value == pytest.approx(
                angle_weighted_hill(o, k).value, rel=1e-12
            )

    def test_no_mass_in_cone_is_one(self):
        o = radial_order(_sample_from_polar([3.0, 2.0, 1.0], [0.9, 0.95, 0.85]))
        assert masked_angle_weighted_hill(o, 2, AngularCone(0.1, 0.3)).value == 1.0

    def test_hand_evaluation(self):
        s = BivariateSample.from_pairs([(3, 1), (0, 2), (1, 1)])
        v = masked_angle_weighted_hill(radial_order(s), 2, AngularCone(0.4, 0.8)).value
        assert v == pytest.approx(0.6 * math.log(2), rel=1e-12)

    def test_masked_kth_radius_zero(self):
        # only one point inside the cone: R~_(2) = 0, log terms vanish
        s = BivariateSample.from_pairs([(1, 1), (0, 5), (0, 4)])
        assert masked_angle_weighted_hill(radial_order(s), 2, AngularCone(0.4, 0.6)).value == 0.0

    def test_definition_on_tied_radii(self):
        # small integers: many tied radii, points at the origin and angles
        # on the cone's edges; the definition zeroes the points outside
        # the cone and re-sorts the sample, ties kept in sample order
        gen = np.random.Generator(np.random.Philox(17))
        for _ in range(300):
            n = int(gen.integers(3, 60))
            x = gen.integers(0, 5, n).astype(float)
            y = gen.integers(0, 5, n).astype(float)
            x[0] += 1.0
            s = BivariateSample(x, y)
            cone = AngularCone(*np.sort(gen.integers(0, 9, 2) / 8.0))
            k = int(gen.integers(1, n))
            inside = cone.contains_angle(s.angles)
            r = np.where(inside, s.radii, 0.0)
            th = np.where(inside, s.angles, 0.0)
            top = np.argsort(-r, kind="stable")[:k]
            expected = 1.0
            if th[top].sum() > 0:
                rk = r[top[-1]]
                terms = np.log(np.maximum(r[top] / rk, 1.0)) if rk > 0 else np.zeros(k)
                expected = np.dot(th[top], terms) / th[top].sum()
            value = masked_angle_weighted_hill(radial_order(s), k, cone).value
            assert value == pytest.approx(expected, rel=1e-12)


class TestSharedProperties:
    def test_scale_invariance(self):
        gen = np.random.Generator(np.random.Philox(16))
        cone = AngularCone(0.25, 0.75)
        for _ in range(200):
            n = int(gen.integers(5, 40))
            s = _random_sample(gen, n)
            c = 10.0 ** gen.uniform(-3, 3)
            s2 = BivariateSample(c * s.x, c * s.y)
            k = int(gen.integers(1, n))
            o1, o2 = radial_order(s), radial_order(s2)
            for fn in (
                lambda o: hill(o, k).value,
                lambda o: cone_adjusted_hill(o, k, cone).value,
                lambda o: angle_weighted_hill(o, k).value,
                lambda o: masked_angle_weighted_hill(o, k, cone).value,
            ):
                assert fn(o2) == pytest.approx(fn(o1), rel=1e-9, abs=1e-12)

    def test_permutation_invariance(self):
        gen = np.random.Generator(np.random.Philox(17))
        cone = AngularCone(0.3, 0.7)
        for _ in range(100):
            n = int(gen.integers(5, 40))
            # tie-free radii by construction
            r = np.cumsum(gen.random(n) + 0.01)
            theta = gen.random(n)
            perm = gen.permutation(n)
            o1 = radial_order(_sample_from_polar(r, theta))
            o2 = radial_order(_sample_from_polar(r[perm], theta[perm]))
            k = int(gen.integers(1, n))
            assert hill(o1, k).value == hill(o2, k).value
            assert (
                cone_adjusted_hill(o1, k, cone).value
                == cone_adjusted_hill(o2, k, cone).value
            )

    def test_statistic_value_metadata(self):
        o = radial_order(BivariateSample([1, 2, 3], [1, 2, 3]))
        v = hill(o, 2)
        assert v.k == 2 and v.n == 3
