import math
import warnings

import numpy as np
import pytest

from taildep.datagen import (
    EXAMPLE1_SPEC,
    EXAMPLE2_SPEC,
    MixtureSpec,
    example1,
    example2,
    generate,
    pareto,
    sample_beta,
    stream,
    stream_keys,
    uniform_off_cone,
)
from taildep.estimators import hill
from taildep.tail_core import AngularCone, cone_distances, radial_order

N_BIG = 10**6


class TestPareto:
    def test_tail_probability(self):
        r = pareto(2.0, N_BIG, stream(1))
        assert np.mean(r > 2.0) == pytest.approx(0.25, abs=0.002)

    def test_mean(self):
        r = pareto(2.0, N_BIG, stream(2))
        assert r.mean() == pytest.approx(2.0, abs=0.02)

    def test_support(self):
        assert np.all(pareto(0.5, 10000, stream(3)) >= 1.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            pareto(0.0, 10, stream(4))

    def test_overflowing_draw_refused(self):
        # (1 - u)^(-1/alpha) overflows for 1 - u below 2^(-1024 alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^alpha = 0\.01 is too small: a Pareto draw "
                                                 r"overflows the float range$"):
                pareto(0.01, 30000, stream(4))


class TestSampleBeta:
    def test_uniform_case(self):
        z = sample_beta(1.0, 1.0, N_BIG, stream(5))
        assert z.mean() == pytest.approx(0.5, abs=0.002)

    def test_beta_1_2_moments(self):
        z = sample_beta(1.0, 2.0, N_BIG, stream(6))
        assert z.mean() == pytest.approx(1 / 3, abs=0.002)
        assert z.var() == pytest.approx(1 / 18, abs=0.001)

    def test_small_shapes_mean(self):
        z = sample_beta(0.05, 0.1, N_BIG, stream(7))
        assert z.mean() == pytest.approx(1 / 3, abs=0.005)

    def test_range(self):
        z = sample_beta(0.05, 0.1, 100000, stream(8))
        assert np.all((z >= 0) & (z <= 1))

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            sample_beta(0.0, 1.0, 10, stream(9))

    def test_joint_underflow_is_redrawn(self):
        # at shapes 0.001 about a fifth of the pairs of gamma draws are both 0,
        # whose ratio 0/0 a draw from the law below the underflow replaces
        gen = stream(10)
        first = gen.standard_gamma(0.001, 2000) + gen.standard_gamma(0.001, 2000)
        assert np.any(first == 0.0)
        z = sample_beta(0.001, 0.001, 2000, stream(10))
        assert np.all(np.isfinite(z)) and np.all((z >= 0) & (z <= 1))
        assert z.tolist() == sample_beta(0.001, 0.001, 2000, stream(10)).tolist()

    def test_shapes_where_every_gamma_draw_underflows(self):
        # at shapes 1e-300 every gamma draw rounds to 0, and Beta(p, q) is
        # 0 or 1 in floats, 1 with probability p / (p + q)
        z = sample_beta(1e-300, 1e-300, 100000, stream(12))
        assert np.isin(z, [0.0, 1.0]).all()
        assert z.mean() == pytest.approx(0.5, abs=0.006)
        z = sample_beta(1e-300, 3e-300, 100000, stream(13))
        assert np.isin(z, [0.0, 1.0]).all()
        assert z.mean() == pytest.approx(0.25, abs=0.006)

    def test_law_where_gamma_draws_underflow(self):
        # at shapes (0.001, 0.003) about half of the gamma draws round to 0;
        # P(Z <= t) = t^p / (p B(p, q)) to within a factor 1 + t
        p, q, t, n = 0.001, 0.003, 1e-100, 400000
        cdf = math.exp(p * math.log(t) - math.log(p)
                       - math.lgamma(p) - math.lgamma(q) + math.lgamma(p + q))
        z = sample_beta(p, q, n, stream(14))
        assert abs(np.mean(z <= t) - cdf) < 4 * math.sqrt(cdf * (1 - cdf) / n)


class TestUniformOffCone:
    def test_equal_piece_lengths(self):
        v = uniform_off_cone(AngularCone(0.25, 0.75), N_BIG, stream(10))
        assert np.mean(v < 0.25) == pytest.approx(0.5, abs=0.002)

    def test_one_sided_complement(self):
        v = uniform_off_cone(AngularCone(0.0, 0.5), 10000, stream(11))
        assert np.all(v > 0.5)

    def test_support_excludes_cone(self):
        cone = AngularCone(0.3, 0.6)
        v = uniform_off_cone(cone, 100000, stream(12))
        assert not np.any((v > cone.a) & (v < cone.b))

    def test_full_cone_rejected(self):
        with pytest.raises(ValueError):
            uniform_off_cone(AngularCone(0.0, 1.0), 10, stream(13))


class TestMixtureSpec:
    def test_validation(self):
        cone = AngularCone(0.25, 0.75)
        with pytest.raises(ValueError):
            MixtureSpec(2.0, 1.0, cone, 1.0, 1.0, 0.5)  # hidden tail heavier
        nan = math.nan
        for alpha_main, alpha_hidden in ((0.0, 4.0), (-1.0, 4.0), (2.0, 0.0), (nan, 4.0),
                                         (2.0, nan)):
            with pytest.raises(ValueError, match="^Pareto indices must be positive$"):
                MixtureSpec(alpha_main, alpha_hidden, cone, 1.0, 1.0, 0.5)
        for z_p, z_q in ((nan, 1.0), (1.0, nan)):
            with pytest.raises(ValueError, match="^Beta shapes must be positive$"):
                MixtureSpec(2.0, 4.0, cone, z_p, z_q, 0.5)
        with pytest.raises(ValueError, match="^alpha must be positive, got nan$"):
            pareto(nan, 10, stream(15))
        with pytest.raises(ValueError, match="^shapes must be positive, got p=nan, q=1.0$"):
            sample_beta(nan, 1.0, 10, stream(15))
        with pytest.raises(ValueError):
            MixtureSpec(2.0, 4.0, cone, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            MixtureSpec(2.0, 4.0, cone, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MixtureSpec(2.0, 4.0, AngularCone(0.0, 1.0), 1.0, 1.0, 0.5)

    def test_example2_analytic_moments(self):
        assert EXAMPLE2_SPEC.theta1_mean == pytest.approx(0.25 + 0.5 / 3, rel=1e-12)
        assert EXAMPLE2_SPEC.theta1_var == pytest.approx(0.25 / 18, rel=1e-12)
        # the values quoted to three decimals
        assert EXAMPLE2_SPEC.theta1_mean == pytest.approx(0.417, abs=0.001)
        assert EXAMPLE2_SPEC.theta1_var == pytest.approx(0.014, abs=0.001)
        ratio = math.sqrt(1.0 + EXAMPLE2_SPEC.theta1_var / EXAMPLE2_SPEC.theta1_mean**2)
        assert ratio == pytest.approx(1.039, abs=0.001)

    def test_example2_monte_carlo_mean(self):
        z = sample_beta(EXAMPLE2_SPEC.z_p, EXAMPLE2_SPEC.z_q, N_BIG, stream(14))
        theta1 = 0.25 + 0.5 * z
        assert theta1.mean() == pytest.approx(0.4167, abs=0.001)


class TestGenerate:
    def test_degenerate_ray_mixture(self):
        spec = MixtureSpec(2.0, 4.0, AngularCone(0.5, 0.5), 1.0, 1.0, 1.0)
        s = generate(spec, 5000, 0)
        d = cone_distances(s.x, s.y, spec.cone)
        assert np.max(d) == pytest.approx(0.0, abs=1e-9)

    def test_radii_at_least_one(self):
        s = example1(10000, 1)
        assert np.all(s.radii >= 1.0)

    def test_angles_partition_by_cone(self):
        s = example2(10000, 2)
        theta = s.angles
        inside = (theta >= 0.25) & (theta <= 0.75)
        # every angle is either an on-cone or an off-cone draw; off-cone
        # draws never touch [a, b] by construction
        assert np.all(inside | (theta < 0.25) | (theta > 0.75))
        assert 0.3 < np.mean(inside) < 0.7

    def test_top_angles_mostly_on_cone(self):
        fracs = []
        for seed in range(50):
            o = radial_order(example1(30000, seed))
            th = o.theta[:100]
            fracs.append(np.mean((th >= 0.25) & (th <= 0.75)))
        assert np.mean(fracs) >= 0.95

    def test_hill_distribution_matches_reported_value(self):
        vals = np.array(
            [hill(radial_order(example1(30000, seed)), 100).value for seed in range(50)]
        )
        assert vals.mean() == pytest.approx(0.5, abs=0.05)
        # a single-run value of 0.473 sits inside the central 95% band
        assert np.quantile(vals, 0.025) <= 0.473 <= np.quantile(vals, 0.975)

    def test_seed_determinism(self):
        s1 = example1(1000, 42)
        s2 = example1(1000, 42)
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
        s3 = example1(1000, 43)
        assert not np.array_equal(s1.x, s3.x)

    def test_tail_regular_variation(self):
        s = example1(N_BIG, 3)
        r = s.radii
        for t in (10.0, 30.0):
            assert np.mean(r > t) * t**2 == pytest.approx(0.5, rel=0.15)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate(EXAMPLE1_SPEC, 0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            generate(EXAMPLE1_SPEC, 10, -1)


class TestStreamKeys:
    # (test code, batch) of H1, H2 and H3's two batches
    CODE_BATCHES = ((1, 0), (2, 0), (3, 1), (3, 2))

    @pytest.mark.parametrize("seed", [0, 14, 2**32 - 1, 2**32, 2**40 + 7, 2**64, 2**70 + 3])
    def test_equals_seed_sequence(self, seed):
        # seeds from 2**32 up are two or more entropy words
        slots = np.array([0, 1, 2, 63, 64, 65, 150, 1000, 1999, 2**31, 2**32 - 1])
        for code, batch in self.CODE_BATCHES:
            for attempt in range(10):
                keys = stream_keys(seed, code, batch, slots, attempt)
                assert keys.shape == (slots.size, 2) and keys.dtype == np.uint64
                for key, t in zip(keys, slots):
                    e = (seed, code, batch, int(t), attempt)
                    assert np.array_equal(
                        key, np.random.SeedSequence(e).generate_state(2, np.uint64)
                    ), e

    def test_short_entropy_and_stream_draws(self):
        # fewer words than SeedSequence's pool of four
        for e in [(0,), (5,), (7, 8), (2**64, 1)]:
            (key,) = stream_keys(*e)
            assert np.array_equal(key, np.random.SeedSequence(e).generate_state(2, np.uint64))
        (key,) = stream_keys(3, 1, 0, np.array([17]), 2)
        keyed = np.random.Generator(np.random.Philox(key=key))
        expected = stream(3, 1, 0, 17, 2).integers(0, 1000, 50)
        assert np.array_equal(keyed.integers(0, 1000, 50), expected)

    def test_rejects_out_of_range_entropy(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            stream_keys(-1, 1, 0, np.arange(3), 0)
        with pytest.raises(ValueError):
            stream_keys(0, 1, 0, np.array([-1, 2]), 0)
        with pytest.raises(ValueError):
            stream_keys(0, 1, 0, np.array([2**32]), 0)
