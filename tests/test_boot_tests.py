import warnings

import numpy as np
import pytest

from taildep import boot_tests
from taildep.boot_tests import (
    FAIL_TO_REJECT,
    REJECT,
    TestConfig as Config,
    full_dependence_test,
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
        # 1 - 1e-17/2 rounds to 1: the refusal names alpha_sig, not a quantile
        with pytest.raises(ValueError, match=r"^alpha_sig = 1e-17 is too small"):
            Config(k_n=10, alpha_sig=1e-17)
        assert Config(k_n=10, alpha_sig=1e-15).alpha_sig == 1e-15
        with pytest.raises(ValueError):
            Config(k_n=100).resolve(100)
        with pytest.raises(ValueError):
            Config(k_n=10, m_n=5, k_mn=7).resolve(100)

    def test_m_n_above_n_refused(self):
        # at m_n = 5e6 each chunk of slots would draw a (64, 2500001) block of words
        match = (r"^m_n = 5000000 must not exceed the sample size 30000: "
                 r"the m-out-of-n bootstrap resamples m_n <= n points$")
        with pytest.raises(ValueError, match=match):
            Config(k_n=100, m_n=5_000_000, k_mn=25).resolve(30000)
        with pytest.raises(ValueError, match="^m_n = 31 must not exceed the sample size 30"):
            Config(k_n=2, m_n=31).resolve(30)
        assert Config(k_n=100, m_n=30000, k_mn=25).resolve(30000) == (30000, 25)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            Config(k_n=10, seed=-1)

    def test_one_radius_refused(self):
        # on one radius every Hill-type statistic is log(R_(1)/R_(1)) = 0
        with pytest.raises(ValueError, match=r"^k_n must be at least 2, got 1: on one radius"):
            Config(k_n=1)
        with pytest.raises(ValueError, match=r"^k_mn must be at least 2, got 1: on one radius"):
            Config(k_n=10, k_mn=1)
        assert Config(k_n=2, m_n=3, k_mn=2).resolve(4) == (3, 2)

    @pytest.mark.parametrize("field", ["k_n", "seed", "m_n", "k_mn", "B"])
    @pytest.mark.parametrize("value", [10.5, 40.0, "7", np.float64(20.0)])
    def test_integer_fields_take_integers_only(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            Config(**{"k_n": 50, field: value})

    def test_prepared_sample_refused_under_another_config(self):
        # the resamples would follow the preparing config (B = 2000) and the
        # threshold and verdict the given one (B = 200)
        s = example1(3000, 0)
        p = boot_tests._prepare(s, Config(100, 0, 500, 25, 2000))
        other = Config(100, 9, 500, 25, 200, 0.5)
        with pytest.raises(ValueError, match=r"^the sample was prepared under TestConfig\(k_n=100, "
                           r"seed=0, m_n=500, k_mn=25, B=2000, alpha_sig=0.05\), not under "):
            full_dependence_test(p, other)
        assert boot_tests._prepare(p, Config(100, 0, 500, 25, 2000)) is p

    def test_integer_fields_accept_numpy_integers(self):
        cfg = Config(k_n=np.int64(50), seed=np.uint32(3), m_n=np.int32(400), k_mn=np.int16(20),
                     B=np.int64(10))
        assert cfg.resolve(30000) == (400, 20)


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

    @pytest.mark.parametrize("n", [2**31 + 12345, 2**14])
    @pytest.mark.parametrize("m", [1, 5, 500])
    def test_rows_with_a_rejected_half_take_numpys_draw(self, monkeypatch, n, m):
        # about half the halves are rejected at 2**31 + 12345; at 2**14 the
        # threshold (2**32 - n) % n is 0, so none is. The test above checks
        # what the rows draw; this one checks which rows numpy's integers draws
        draw = boot_tests._SlotDraws(n, m)
        gen, taken = draw._gen, []

        class Spy:
            def integers(self, *args):
                taken.append(draw._bits.state["state"]["key"].tolist())
                return gen.integers(*args)

        monkeypatch.setattr(draw, "_gen", Spy())
        draw(self.KEYS)
        rejecting = []
        for key in self.KEYS:
            halves = np.random.Philox(key=key).random_raw(m).astype("<u8").view("<u4")[:m]
            if np.any(halves.astype(np.uint64) * n % 2**32 < (2**32 - n) % n):
                rejecting.append(key.tolist())
        assert taken == rejecting
        assert (len(taken) > 0) == (n != 2**14)

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

    def test_in_cone_point_outside_every_top_k_errors_out(self):
        # one point of positive angle lies in the cone, so the check made
        # before resampling passes; neither resample of 10 points draws it,
        # so both masked slots are 1 and the masked variance is 0
        theta = np.full(1000, 0.9)
        theta[500] = 0.5
        r = np.arange(1001.0, 1.0, -1.0)
        s = BivariateSample(r * theta, r * (1.0 - theta))
        with pytest.raises(ValueError, match=r"^the cone \[0.4, 0.6\] holds no top-5 mass in any "
                                             r"resample, so the masked statistic has zero variance"):
            weak_dependence_test(s, AngularCone(0.4, 0.6), Config(20, 0, 10, 5, 2))

    def test_batches_are_independent(self):
        s = example2(2000, 6)
        cfg = Config(k_n=50, seed=6, B=100)
        rep = weak_dependence_test(s, AngularCone(0.25, 0.75), cfg)
        masked = rep.auxiliary["per_resample_masked"]
        assert len(rep.per_resample) == len(masked) == 100
        assert rep.per_resample != masked


def _wide_radius_sample():
    """3000 points at angles in [0.3, 0.7] whose radii span more than the
    float range: the first 60 near 1e200, the rest near 1e-200."""
    gen = np.random.Generator(np.random.Philox(23))
    r = np.where(np.arange(3000) < 60, 1e200, 1e-200) * (1 - gen.random(3000)) ** -0.5
    theta = 0.3 + 0.4 * gen.random(3000)
    return BivariateSample(r * theta, r * (1 - theta))


class TestNonFiniteStatistics:
    @pytest.mark.parametrize("test_id, bad", [("H1", 151), ("H2", 138), ("H3", 133)])
    def test_non_finite_resamples_refused(self, test_id, bad):
        # a resample whose top k_mn holds a radius near 1e200 and one near
        # 1e-200 has a log ratio of inf, so its statistic is inf or nan
        run = {"H1": lambda s, cfg: strong_dependence_test(s, CONE, cfg),
               "H2": full_dependence_test,
               "H3": lambda s, cfg: weak_dependence_test(s, CONE, cfg)}[test_id]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                run(_wide_radius_sample(), Config(k_n=50, B=200))
        assert str(exc.value) == (
            f"the {test_id} test is undefined on this sample: {bad} of its 200 resamples have a "
            "non-finite statistic, as a radius or cone distance over the resample's k_mn-th "
            "radius overflows"
        )


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

    def test_degenerate_resamples_take_the_convention(self):
        # most points sit on the y-axis (angle 0); a resample whose top-k
        # angles all vanish is scored once, as 0/0 = 1, keeping
        # per_resample at B
        s = BivariateSample([0.0, 0.0, 0.0, 1.2], [1.0, 1.5, 2.0, 1.3])
        cfg = Config(k_n=2, seed=10, m_n=3, k_mn=2, B=100)
        rep = full_dependence_test(s, cfg)
        assert len(rep.per_resample) == 100
        assert np.all(np.isfinite(rep.per_resample))
        assert 1.0 in rep.per_resample

    def test_each_slot_is_the_public_estimator_on_its_stream(self):
        # slot t of (test code, batch) resamples with stream(seed, code,
        # batch, t, 0); its value is the estimators function on that
        # resample, bit for bit. B = 150 leaves a partial last chunk. On the
        # degenerate sample many resamples have R_(k_mn) = 0 or top k_mn
        # angles that are all 0: the plain statistic's slots are the masked
        # one's at the cone [0, 1], and the cone-adjusted one is 0 at R_(k) = 0.
        gen = np.random.Generator(np.random.Philox(40))
        x, y = pareto(1.0, 400, gen) * (gen.random(400) < 0.05), pareto(1.0, 400, gen)
        origin = gen.random(400) < 0.6
        degenerate = BivariateSample(np.where(origin, 0.0, x), np.where(origin, 0.0, y))

        def full_cone_masked(o, k):
            return masked_angle_weighted_hill(o, k, AngularCone(0.0, 1.0))

        for s, cfg, plain in (
            (example1(3000, 12), Config(k_n=60, seed=12, B=150), angle_weighted_hill),
            (degenerate, Config(k_n=20, seed=40, m_n=20, k_mn=5, B=150), full_cone_masked),
        ):
            assert cfg.B % boot_tests._CHUNK_ROWS != 0
            m, k = cfg.resolve(s.n)
            h1 = strong_dependence_test(s, CONE, cfg)
            h2 = full_dependence_test(s, cfg)
            h3 = weak_dependence_test(s, CONE, cfg)
            cases = [
                (h1.per_resample, 1, 0, lambda o: 0.0 if o.sorted_r[k - 1] == 0.0
                 else cone_adjusted_hill(o, k, CONE).value),
                (h2.per_resample, 2, 0, lambda o: plain(o, k).value),
                (h3.per_resample, 3, 1, lambda o: plain(o, k).value),
                (h3.auxiliary["per_resample_masked"], 3, 2,
                 lambda o: masked_angle_weighted_hill(o, k, CONE).value),
            ]
            for per_resample, code, batch, statistic in cases:
                assert len(per_resample) == cfg.B
                for t, value in enumerate(per_resample):
                    idx = stream(cfg.seed, code, batch, t, 0).integers(0, s.n, m)
                    ordered = radial_order(BivariateSample(s.x[idx], s.y[idx]))
                    assert value == statistic(ordered), (code, batch, t)

    def test_all_degenerate_errors_out(self):
        # every angle is 0, so no resample can be defined: both tests
        # that use the angle-weighted statistic refuse before resampling
        s = BivariateSample([0.0, 0.0, 0.0], [1.0, 1.5, 2.0])
        cfg = Config(k_n=2, seed=11, m_n=3, k_mn=2, B=10)
        with pytest.raises(ValueError, match="undefined on theta == 0 data"):
            full_dependence_test(s, cfg)
        with pytest.raises(ValueError, match="undefined on theta == 0 data"):
            weak_dependence_test(s, CONE, cfg)

    def test_lone_positive_angle_gets_a_report(self):
        # the one point with a positive angle has the smallest radius, so
        # it enters the top 2 of 3 draws almost never: each slot whose top
        # angles are all 0 is 1, and the test reports
        s = BivariateSample(np.r_[np.zeros(999), 0.5], np.r_[np.arange(2.0, 1001.0), 0.5])
        cfg = Config(k_n=2, seed=11, m_n=3, k_mn=2, B=10)
        rep = full_dependence_test(s, cfg)
        assert rep.per_resample == [1.0] * 10
        assert rep.verdict == FAIL_TO_REJECT

    @pytest.mark.parametrize("chunk_rows", [1, 7, 41])
    def test_chunk_size_independence(self, monkeypatch, chunk_rows):
        # B + 1 = 41 puts every slot in one chunk
        s = example1(2000, 13)
        cfg = Config(k_n=50, seed=13, B=40)
        # most slots of this sample take the convention (see
        # test_degenerate_resamples_take_the_convention)
        s_degenerate = BivariateSample([0.0, 0.0, 0.0, 1.2], [1.0, 1.5, 2.0, 1.3])
        cfg_degenerate = Config(k_n=2, seed=10, m_n=3, k_mn=2, B=40)

        def all_values():
            h3 = weak_dependence_test(s, CONE, cfg)
            return [strong_dependence_test(s, CONE, cfg).per_resample,
                    full_dependence_test(s, cfg).per_resample,
                    h3.per_resample, h3.auxiliary["per_resample_masked"],
                    full_dependence_test(s_degenerate, cfg_degenerate).per_resample]

        before = all_values()
        monkeypatch.setattr(boot_tests, "_CHUNK_ROWS", chunk_rows)
        assert all_values() == before

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_heavy_sample_matches_stable_argsort(self, seed):
        # small integer coordinates tie most radii; each slot is sorted by
        # a stable argsort of the whole resample, then scored by the public
        # estimator or, where that is undefined, by the convention
        gen = np.random.Generator(np.random.Philox(seed))
        x = np.floor(pareto(1.5, 1500, gen)) - 1.0
        y = np.floor(pareto(1.5, 1500, gen)) - 1.0
        cfg = Config(k_n=40, seed=seed, m_n=60, k_mn=9, B=120)
        _assert_slots_match_stable_argsort(BivariateSample(x, y), AngularCone(0.3, 0.7), cfg)

    def test_integer_degrees_match_stable_argsort(self):
        # in/out-degree counts, as in the paper's network data: most
        # radii tie in a few small values, a few are large
        gen = np.random.Generator(np.random.Philox(31))
        x = np.floor(pareto(1.2, 3000, gen) - 1.0) * (gen.random(3000) < 0.8)
        y = np.floor(pareto(1.2, 3000, gen) - 1.0)
        s = BivariateSample(x, y)
        cfg = Config(k_n=50, seed=3, m_n=80, k_mn=10, B=100)
        rank = boot_tests._prepare(s, cfg).rank
        assert np.array_equal(rank, np.unique(-s.radii, return_inverse=True)[1])
        _assert_slots_match_stable_argsort(s, AngularCone(0.2, 0.6), cfg)


def _assert_slots_match_stable_argsort(s, cone, cfg):
    """H1/H2/H3 per_resample == the per-slot path: stream(seed, code,
    batch, t, 0).integers, a stable argsort of the resample, then the public
    estimator; where it is undefined, the convention: the cone-adjusted
    statistic is 0 at R_(k) = 0, the plain one the masked one at [0, 1]."""
    m, k = cfg.resolve(s.n)
    r = s.radii

    def reference(code, batch, statistic):
        out = []
        for t in range(cfg.B):
            idx = stream(cfg.seed, code, batch, t, 0).integers(0, s.n, m)
            idx = idx[np.argsort(-r[idx], kind="stable")]
            out.append(statistic(RadialOrder(s.x[idx], s.y[idx])))
        return out

    def adjusted(o):
        return 0.0 if o.sorted_r[k - 1] == 0.0 else cone_adjusted_hill(o, k, cone).value

    def plain(o):
        try:
            return angle_weighted_hill(o, k).value
        except ValueError:
            return masked_angle_weighted_hill(o, k, AngularCone(0.0, 1.0)).value

    h3 = weak_dependence_test(s, cone, cfg)
    cases = [
        (strong_dependence_test(s, cone, cfg).per_resample, 1, 0, adjusted),
        (full_dependence_test(s, cfg).per_resample, 2, 0, plain),
        (h3.per_resample, 3, 1, plain),
        (h3.auxiliary["per_resample_masked"], 3, 2,
         lambda o: masked_angle_weighted_hill(o, k, cone).value),
    ]
    for per_resample, code, batch, statistic in cases:
        assert per_resample == reference(code, batch, statistic), (code, batch)
