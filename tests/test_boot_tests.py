import numpy as np
import pytest

from taildep import boot_tests
from taildep.boot_tests import (
    FAIL_TO_REJECT,
    REJECT,
    TestConfig as Config,
    full_dependence_test,
    resample,
    strong_dependence_test,
    weak_dependence_test,
)
from taildep.datagen import MixtureSpec, example1, example2, generate, pareto, stream, stream_keys
from taildep.estimators import (
    angle_weighted_hill,
    cone_adjusted_hill,
    masked_angle_weighted_hill,
)
from taildep.tail_core import AngularCone, BivariateSample, RadialOrder, radial_order

CONE = AngularCone(0.25, 0.75)

RAY_SPEC = MixtureSpec(
    alpha_main=2.0, alpha_hidden=4.0, cone=AngularCone(0.5, 0.5),
    z_p=1.0, z_q=1.0, mix_prob=1.0,
)
BAND_SPEC = MixtureSpec(
    alpha_main=2.0, alpha_hidden=4.0, cone=AngularCone(0.3, 0.7),
    z_p=1.0, z_q=1.0, mix_prob=1.0,
)


@pytest.fixture(scope="module")
def ex1_battery():
    """One paper-scale Example-1 run; seed chosen once, all verdicts cached."""
    s = example1(30000, 14)
    cfg = Config(k_n=100, seed=14, m_n=500, k_mn=25, B=2000)
    return {
        "H1": strong_dependence_test(s, CONE, cfg),
        "H2": full_dependence_test(s, cfg),
        "H3": weak_dependence_test(s, CONE, cfg),
    }


class TestConfigAndReport:
    def test_resolve_defaults(self):
        cfg = Config(k_n=100)
        assert cfg.resolve(30000) == (300, 15)
        assert Config(k_n=100, m_n=500).resolve(30000) == (500, 25)
        assert Config(k_n=100, m_n=200).resolve(880) == (200, 10)

    def test_resolve_minimum_k(self):
        assert Config(k_n=10, m_n=60).resolve(1000) == (60, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(k_n=0)
        with pytest.raises(ValueError):
            Config(k_n=10, B=1)
        with pytest.raises(ValueError):
            Config(k_n=10, alpha_sig=1.0)
        with pytest.raises(ValueError):
            Config(k_n=100).resolve(100)
        with pytest.raises(ValueError):
            Config(k_n=10, m_n=5, k_mn=7).resolve(100)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            Config(k_n=10, seed=-1)

    @pytest.mark.parametrize("field", ["k_n", "seed", "m_n", "k_mn", "B"])
    @pytest.mark.parametrize("value", [10.5, 40.0, "7", np.float64(20.0)])
    def test_integer_fields_take_integers_only(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            Config(**{"k_n": 50, field: value})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = Config(k_n=np.int64(50), seed=np.uint32(3), m_n=np.int32(400), k_mn=np.int16(20),
                     B=np.int64(10))
        assert cfg.resolve(30000) == (400, 20)


class TestResample:
    def test_single_point_repeated(self):
        s = BivariateSample([3.0], [4.0])
        out = resample(s, 5, stream(0))
        assert out.x.tolist() == [3.0] * 5

    def test_same_stream_state_identical(self):
        s = BivariateSample(np.arange(10.0), np.arange(10.0))
        r1 = resample(s, 20, stream(77))
        r2 = resample(s, 20, stream(77))
        assert r1 == r2

    def test_index_frequencies_uniform(self):
        s = BivariateSample(np.arange(10.0), np.ones(10))
        gen = stream(5)
        counts = np.zeros(10)
        B, m = 10000, 100
        for _ in range(B):
            out = resample(s, m, gen)
            counts += np.bincount(out.x.astype(int), minlength=10)
        freqs = counts / (B * m)
        assert np.all(np.abs(freqs - 0.1) < 0.01)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            resample(BivariateSample([1.0], [1.0]), 0, stream(0))


class TestSlotDraws:
    # 70 rows: more than one chunk of slots
    KEYS = stream_keys(5, 1, 0, np.arange(70), 0)

    @pytest.mark.parametrize("n", [2, 3, 7, 30000, 1000003, 2**31 + 12345, 3 * 2**30, 2**32 - 1])
    @pytest.mark.parametrize("m", [1, 2, 5, 500, 501])
    def test_rows_are_what_integers_draws(self, n, m):
        # row t is integers(0, n, m) from the stream whose key is row t of KEYS
        idx = boot_tests._SlotDraws(n, m)(self.KEYS)
        assert idx.shape == (len(self.KEYS), m)
        for t, row in enumerate(idx):
            assert row.tolist() == stream(5, 1, 0, t, 0).integers(0, n, m).tolist(), t

    @pytest.mark.parametrize("m", [1, 5, 500])
    def test_short_rows_are_redrawn_with_more_words(self, monkeypatch, m):
        # about half the halves are rejected at this n, so some rows hold
        # fewer than m accepted halves in the first words; the test above
        # checks what those rows draw
        draw = boot_tests._SlotDraws(2**31 + 12345, m)
        sizes = []
        raw = draw._raw
        monkeypatch.setattr(draw, "_raw", lambda key, words: sizes.append(words) or raw(key, words))
        draw(self.KEYS)
        assert max(sizes) > draw.words

    def test_sample_too_large_refused(self):
        with pytest.raises(ValueError, match="sample size 4294967296 is too large"):
            boot_tests._SlotDraws(2**32, 5)


class TestStrongDependence:
    def test_example1_paper_config(self, ex1_battery):
        rep = ex1_battery["H1"]
        assert rep.test_id == "H1"
        assert rep.verdict == FAIL_TO_REJECT
        assert 0.02 <= rep.statistic <= 0.08  # paper reports 0.045
        assert len(rep.per_resample) == 2000
        assert rep.auxiliary["rejection_rate"] == rep.statistic

    def test_full_cone_band_calibration(self):
        # with cone [0,1] every resample statistic is its plain Hill value,
        # so the flag rate tracks the nominal level on pure Pareto radii
        r = pareto(2.0, 10000, stream(123, 9))
        s = BivariateSample(0.3 * r, 0.7 * r)
        cfg = Config(k_n=100, seed=0, m_n=500, k_mn=25, B=1000)
        rep = strong_dependence_test(s, AngularCone(0.0, 1.0), cfg)
        assert 0.01 <= rep.statistic <= 0.12

    def test_verdict_is_pure_function_of_rate(self):
        r = pareto(2.0, 2000, stream(21))
        s = BivariateSample(0.5 * r, 0.5 * r)
        cfg = Config(k_n=50, seed=1, B=200)
        rep = strong_dependence_test(s, AngularCone(0.4, 0.6), cfg)
        expected = REJECT if rep.statistic > cfg.alpha_sig else FAIL_TO_REJECT
        assert rep.verdict == expected


class TestFullDependence:
    def test_example1_paper_config(self, ex1_battery):
        rep = ex1_battery["H2"]
        # wide angular spread inflates the variance (paper reports 1.336)
        assert rep.verdict == REJECT
        assert rep.statistic > rep.threshold
        assert rep.threshold == pytest.approx(1.0526, abs=0.001)

    def test_example2_false_acceptance_and_proportion_fix(self):
        s = example2(30000, 2)
        cfg = Config(k_n=100, seed=2, m_n=500, k_mn=25, B=2000)
        rep = full_dependence_test(s, cfg)
        # low-spread angles slip under the chi-square rule ...
        assert rep.verdict == FAIL_TO_REJECT
        # ... but the proportion rule still flags the spread
        assert rep.auxiliary["proportion_rule_rate"] > 0.05
        assert rep.auxiliary["proportion_rule_reject"] is True
        assert rep.auxiliary["theta0_hat"] == pytest.approx(0.4167, abs=0.05)

    def test_exact_full_dependence_calibration(self):
        ok = 0
        for seed in range(50):
            s = generate(RAY_SPEC, 10000, seed)
            cfg = Config(k_n=2000, seed=seed, m_n=500, k_mn=100, B=500)
            rep = full_dependence_test(s, cfg)
            ok += rep.verdict == FAIL_TO_REJECT
        assert ok >= 45

    def test_statistic_matches_per_resample_variance(self):
        s = example2(3000, 5)
        cfg = Config(k_n=60, seed=5, B=300)
        rep = full_dependence_test(s, cfg)
        m, k_m = cfg.resolve(3000)
        se = np.std(rep.per_resample, ddof=1)
        assert rep.statistic == pytest.approx(
            k_m * se**2 / rep.auxiliary["hill"] ** 2, rel=1e-12
        )

    def test_tied_radii_error_out(self):
        # the top-k radii tie with R_(k), so the Hill estimate is 0
        s = BivariateSample(np.ones(1000), np.ones(1000))
        with pytest.raises(ValueError, match="Hill estimate is 0"):
            full_dependence_test(s, Config(k_n=10))


class TestWeakDependence:
    def test_example1_paper_config(self, ex1_battery):
        rep = ex1_battery["H3"]
        lo, hi = rep.threshold
        assert lo == pytest.approx(0.916, abs=0.002)
        assert hi == pytest.approx(1.092, abs=0.002)
        # paper reports 1.077, inside the band
        assert rep.verdict == FAIL_TO_REJECT
        assert lo <= rep.statistic <= hi

    def test_identical_distributions_fail_to_reject(self):
        # cone covering every observed angle: masked statistic has the same
        # law as the plain one, so the F-ratio stays inside the band
        ok = 0
        for seed in range(40):
            s = generate(BAND_SPEC, 4000, seed)
            cfg = Config(k_n=80, seed=seed, m_n=400, k_mn=20, B=500)
            rep = weak_dependence_test(s, AngularCone(0.2, 0.8), cfg)
            ok += rep.verdict == FAIL_TO_REJECT
        assert ok >= 36

    def test_full_cone_rejected(self):
        s = example1(1000, 0)
        with pytest.raises(ValueError):
            weak_dependence_test(s, AngularCone(0.0, 1.0), Config(k_n=50))

    def test_cone_without_top_k_mass_errors_out(self):
        # every angle is 0.5, so no masked resample holds mass in the cone
        # and each returns 1.0: the masked variance is 0
        s = generate(RAY_SPEC, 3000, 0)
        with pytest.raises(ValueError, match="no top-.* mass"):
            weak_dependence_test(s, AngularCone(0.9, 0.95), Config(k_n=100, B=50))

    def test_batches_are_independent(self):
        s = example2(2000, 6)
        cfg = Config(k_n=50, seed=6, B=100)
        rep = weak_dependence_test(s, AngularCone(0.25, 0.75), cfg)
        masked = rep.auxiliary["per_resample_masked"]
        assert len(rep.per_resample) == len(masked) == 100
        assert rep.per_resample != masked


class TestDeterminismAndInvariance:
    def test_seed_determines_everything(self):
        s = example1(2000, 8)
        cfg = Config(k_n=50, seed=8, B=150)
        r1 = strong_dependence_test(s, CONE, cfg)
        r2 = strong_dependence_test(s, CONE, cfg)
        assert r1.per_resample == r2.per_resample and r1.verdict == r2.verdict

    def test_scale_invariance(self):
        s = example1(2000, 9)
        s2 = BivariateSample(37.5 * s.x, 37.5 * s.y)
        cfg = Config(k_n=50, seed=9, B=150)
        r1 = full_dependence_test(s, cfg)
        r2 = full_dependence_test(s2, cfg)
        assert np.allclose(r1.per_resample, r2.per_resample, rtol=1e-9)
        assert r1.verdict == r2.verdict

    def test_degenerate_resamples_are_redrawn(self):
        # most points sit on the y-axis (angle 0); resamples whose top-k
        # angles all vanish must be redrawn, keeping per_resample at B
        s = BivariateSample([0.0, 0.0, 0.0, 1.2], [1.0, 1.5, 2.0, 1.3])
        cfg = Config(k_n=2, seed=10, m_n=3, k_mn=2, B=100)
        rep = full_dependence_test(s, cfg)
        assert len(rep.per_resample) == 100
        assert np.all(np.isfinite(rep.per_resample))

    def test_each_slot_is_the_public_estimator_on_its_stream(self):
        # slot t of (test code, batch) resamples with stream(seed, code,
        # batch, t, 0); its value is the estimators function on that
        # resample, bit for bit. B = 150 leaves a partial last chunk.
        s = example1(3000, 12)
        cfg = Config(k_n=60, seed=12, B=150)
        assert cfg.B % boot_tests._CHUNK_ROWS != 0
        m, k = cfg.resolve(s.n)
        h1 = strong_dependence_test(s, CONE, cfg)
        h2 = full_dependence_test(s, cfg)
        h3 = weak_dependence_test(s, CONE, cfg)
        cases = [
            (h1.per_resample, 1, 0, lambda o: cone_adjusted_hill(o, k, CONE)),
            (h2.per_resample, 2, 0, lambda o: angle_weighted_hill(o, k)),
            (h3.per_resample, 3, 1, lambda o: angle_weighted_hill(o, k)),
            (h3.auxiliary["per_resample_masked"], 3, 2,
             lambda o: masked_angle_weighted_hill(o, k, CONE)),
        ]
        for per_resample, code, batch, statistic in cases:
            assert len(per_resample) == cfg.B
            for t, value in enumerate(per_resample):
                ordered = radial_order(resample(s, m, stream(cfg.seed, code, batch, t, 0)))
                assert value == statistic(ordered).value, (code, batch, t)

    def test_all_degenerate_errors_out(self):
        # every angle is 0, so no resample can be defined: both tests
        # that use the angle-weighted statistic refuse before resampling
        s = BivariateSample([0.0, 0.0, 0.0], [1.0, 1.5, 2.0])
        cfg = Config(k_n=2, seed=11, m_n=3, k_mn=2, B=10)
        with pytest.raises(ValueError, match="undefined on theta == 0 data"):
            full_dependence_test(s, cfg)
        with pytest.raises(ValueError, match="undefined on theta == 0 data"):
            weak_dependence_test(s, CONE, cfg)

    def test_redraws_exhausted_errors_out(self):
        # the one point with a positive angle has the smallest radius, so
        # it enters the top 2 of 3 draws almost never: slot 0 runs out
        s = BivariateSample(np.r_[np.zeros(999), 0.5], np.r_[np.arange(2.0, 1001.0), 0.5])
        cfg = Config(k_n=2, seed=11, m_n=3, k_mn=2, B=10)
        with pytest.raises(RuntimeError, match="slot 0 stayed degenerate after 10 redraws"):
            full_dependence_test(s, cfg)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 41])
    def test_chunk_size_independence(self, monkeypatch, chunk_rows):
        # B + 1 = 41 puts every slot in one chunk
        s = example1(2000, 13)
        cfg = Config(k_n=50, seed=13, B=40)
        # most slots of this sample redraw (see test_degenerate_resamples_are_redrawn)
        s_redraw = BivariateSample([0.0, 0.0, 0.0, 1.2], [1.0, 1.5, 2.0, 1.3])
        cfg_redraw = Config(k_n=2, seed=10, m_n=3, k_mn=2, B=40)

        def all_values():
            h3 = weak_dependence_test(s, CONE, cfg)
            return [strong_dependence_test(s, CONE, cfg).per_resample,
                    full_dependence_test(s, cfg).per_resample,
                    h3.per_resample, h3.auxiliary["per_resample_masked"],
                    full_dependence_test(s_redraw, cfg_redraw).per_resample]

        before = all_values()
        monkeypatch.setattr(boot_tests, "_CHUNK_ROWS", chunk_rows)
        assert all_values() == before

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_sample_matches_stable_argsort(self, seed):
        # small integer coordinates tie most radii; each slot is redrawn
        # until defined and sorted by a stable argsort of the whole
        # resample, then scored by the public estimator
        gen = np.random.Generator(np.random.Philox(seed))
        x = np.floor(pareto(1.5, 1500, gen)) - 1.0
        y = np.floor(pareto(1.5, 1500, gen)) - 1.0
        s = BivariateSample(x, y)
        cone = AngularCone(0.3, 0.7)
        cfg = Config(k_n=40, seed=seed, m_n=60, k_mn=9, B=120)
        m, k = cfg.resolve(s.n)
        r, theta = s.radii, s.angles

        def reference(code, batch, statistic):
            out = []
            for t in range(cfg.B):
                for attempt in range(10):
                    idx = stream(cfg.seed, code, batch, t, attempt).integers(0, s.n, m)
                    idx = idx[np.argsort(-r[idx], kind="stable")]
                    ordered = RadialOrder(r[idx], theta[idx], s.x[idx], s.y[idx])
                    try:
                        out.append(statistic(ordered).value)
                        break
                    except ValueError:
                        continue
            return out

        h3 = weak_dependence_test(s, cone, cfg)
        cases = [
            (strong_dependence_test(s, cone, cfg).per_resample, 1, 0,
             lambda o: cone_adjusted_hill(o, k, cone)),
            (full_dependence_test(s, cfg).per_resample, 2, 0, lambda o: angle_weighted_hill(o, k)),
            (h3.per_resample, 3, 1, lambda o: angle_weighted_hill(o, k)),
            (h3.auxiliary["per_resample_masked"], 3, 2,
             lambda o: masked_angle_weighted_hill(o, k, cone)),
        ]
        for per_resample, code, batch, statistic in cases:
            assert per_resample == reference(code, batch, statistic), (code, batch)
