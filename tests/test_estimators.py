import math
import re

import numpy as np
import pytest

from taildep.datagen import example1, example2, pareto, stream
from taildep.estimators import (
    _angle_weighted_hill_rows,
    _cone_adjusted_hill_rows,
    _hill_rows,
    _log_ratio_rows,
    angle_weighted_hill,
    cone_adjusted_hill,
    hill,
    masked_angle_weighted_hill,
)
from taildep.support_fit import estimate_support, support_objective
from taildep.tail_core import AngularCone, BivariateSample, _pairs, cone_distances, radial_order


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
        s = BivariateSample([0, 1, 0.5], [4, 1, 0.5])
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
        s = BivariateSample([3, 0, 1], [1, 2, 1])
        v = masked_angle_weighted_hill(radial_order(s), 2, AngularCone(0.4, 0.8)).value
        assert v == pytest.approx(0.6 * math.log(2), rel=1e-12)

    def test_masked_kth_radius_zero(self):
        # only one point inside the cone: R~_(2) = 0, log terms vanish
        s = BivariateSample([1, 0, 0], [1, 5, 4])
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


def full_row_masked(ord, k, cone):
    """The masked statistic's definition on all of ord, in numpy alone:
    the reference for the public statistic, which reads ord only up to its
    k-th in-cone point. Points outside the cone move to the origin, the
    row is re-sorted stably by decreasing radius, and the top k give the
    angle-weighted mean of their log ratios: 0 where the k-th masked
    radius is 0, 1 where their angles sum to 0."""
    full = ord.head(ord.n)
    inside = (full.theta >= cone.a) & (full.theta <= cone.b)
    r = np.where(inside, full.sorted_r, 0.0)
    th = np.where(inside, full.theta, 0.0)
    top = np.argsort(-r, kind="stable")[:k]
    r, th = r[top], th[top]
    logr = np.log(r / r[-1]) if r[-1] > 0.0 else np.zeros(k)
    return float(np.add.reduce(th * logr) / th.sum()) if th.sum() > 0.0 else 1.0


def _bits(value):
    return float(value).hex()


def _degree_sample(seed):
    # integer in/out-degree pairs: ties, zeros and angles on cone edges
    gen = np.random.Generator(np.random.Philox(seed))
    return BivariateSample(np.floor(gen.pareto(1.2, 3000)), np.floor(gen.pareto(1.2, 3000)))


class TestMaskedFullRowOracle:
    CONES = [AngularCone(*c) for c in
             ((0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.0, 0.3), (0.6, 1.0), (0.0, 0.0))]

    @pytest.mark.parametrize("make", [lambda s: example1(3000, s), lambda s: example2(3000, s),
                                      _degree_sample], ids=["example1", "example2", "integer_degrees"])
    def test_matches_full_row_kernel(self, make):
        for seed in range(3):
            o = radial_order(make(seed))
            for k in (2, 5, 25, 100, 700):
                for cone in self.CONES:
                    got = masked_angle_weighted_hill(o, k, cone).value
                    assert _bits(got) == _bits(full_row_masked(o, k, cone)), (seed, k, cone)

    def test_fewer_than_k_in_cone(self):
        # 3 of 40 points in the cone: the whole row is read, zeroed points fill the top k
        gen = np.random.Generator(np.random.Philox(21))
        theta = np.full(40, 0.9)
        theta[[4, 17, 33]] = 0.5
        o = radial_order(_sample_from_polar(np.arange(40.0, 0.0, -1.0) + gen.random(40), theta))
        cone = AngularCone(0.4, 0.6)
        for k in (3, 4, 10, 39):
            got = masked_angle_weighted_hill(o, k, cone).value
            assert _bits(got) == _bits(full_row_masked(o, k, cone)), k
        assert masked_angle_weighted_hill(o, 4, cone).value == 0.0  # R~_(4) = 0

    def test_no_point_in_cone_is_one(self):
        gen = np.random.Generator(np.random.Philox(22))
        o = radial_order(_sample_from_polar(gen.pareto(2.0, 3000) + 1.0, 0.5 * gen.random(3000)))
        cone = AngularCone(0.9, 0.95)
        assert masked_angle_weighted_hill(o, 100, cone).value == 1.0 == full_row_masked(o, 100, cone)

    def test_kth_in_cone_point_in_last_column(self):
        # the k-th in-cone point has the smallest radius
        r = np.arange(50.0, 0.0, -1.0)
        theta = np.full(50, 0.1)
        theta[[0, 7, 20, 49]] = [0.3, 0.45, 0.35, 0.4]
        o = radial_order(_sample_from_polar(r, theta))
        cone = AngularCone(0.3, 0.5)
        got = masked_angle_weighted_hill(o, 4, cone).value
        assert _bits(got) == _bits(full_row_masked(o, 4, cone))
        r_in, th_in = r[[0, 7, 20, 49]], theta[[0, 7, 20, 49]]
        expected = np.dot(th_in, np.log(r_in / r_in[-1])) / th_in.sum()
        assert got == pytest.approx(expected, rel=1e-12)


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


class TestUndefinedValues:
    # the row kernels score these rows by a convention; the public
    # estimators refuse them, and only the masked statistic takes it
    ZERO_RK = radial_order(BivariateSample([1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]))
    ZERO_ANGLES = radial_order(BivariateSample([0.0, 0.0, 1.0], [3.0, 2.0, 0.5]))

    @pytest.mark.parametrize("statistic", [
        hill,
        angle_weighted_hill,
        lambda o, k: cone_adjusted_hill(o, k, AngularCone(0.25, 0.75)),
    ], ids=["hill", "angle_weighted", "cone_adjusted"])
    def test_zero_kth_radius_is_refused(self, statistic):
        with pytest.raises(ValueError, match=r"^R_\(3\) must be positive, got 0.0$"):
            statistic(self.ZERO_RK, 3)

    def test_zero_angle_sum_is_refused(self):
        with pytest.raises(ValueError, match="^top-k concomitant angles sum to zero$"):
            angle_weighted_hill(self.ZERO_ANGLES, 2)

    def test_masked_statistic_takes_the_convention(self):
        full = AngularCone(0.0, 1.0)
        assert masked_angle_weighted_hill(self.ZERO_RK, 3, full).value == 0.0
        assert masked_angle_weighted_hill(self.ZERO_ANGLES, 2, full).value == 1.0


class TestRatioOverflow:
    # R_(1) = 1e300 over a k-th radius near 1e-10: the ratio overflows
    R = np.r_[1e300, 1e-10 * (1.0 + np.arange(299.0) / 299.0)]

    @pytest.mark.parametrize("statistic", [
        hill,
        angle_weighted_hill,
        lambda o, k: cone_adjusted_hill(o, k, AngularCone(0.25, 0.75)),
        lambda o, k: masked_angle_weighted_hill(o, k, AngularCone(0.25, 0.75)),
    ], ids=["hill", "angle_weighted", "cone_adjusted", "masked"])
    def test_public_estimators_refuse(self, statistic):
        o = radial_order(_sample_from_polar(self.R, np.full(self.R.size, 0.5)))
        with pytest.raises(ValueError, match=r"^R_\(1\)/R_\(20\) = 1e\+300/.* overflows"):
            statistic(o, 20)

    def test_masked_statistic_refuses_its_in_cone_top(self):
        # radii 1e300 and five 1e-10 at angle 0.5, twenty 1.0 at angle 0.05: the
        # head's R_(1)/R_(3) is 1e300, but the in-cone top's is 1e310
        x = np.r_[0.5e300, np.full(5, 0.5e-10), np.full(20, 0.05)]
        y = np.r_[0.5e300, np.full(5, 0.5e-10), np.full(20, 0.95)]
        o = radial_order(BivariateSample(x, y))
        assert hill(o, 3).value == pytest.approx(230.25850929940455)
        with pytest.raises(ValueError, match=r"^R_\(1\)/R_\(3\) = 1e\+300/1e-10 overflows"):
            masked_angle_weighted_hill(o, 3, AngularCone(0.4, 0.6))

    def test_row_kernel_gives_inf_without_warning(self):
        # the bootstrap's rows: the value is not finite, so the report is refused
        r = np.sort(self.R)[::-1][None]
        rows = _pairs(r * 0.5, r * 0.5)
        assert _hill_rows(rows, _log_ratio_rows(rows.sorted_r, 20)).tolist() == [math.inf]


class TestReductionBits:
    # every kernel sums with np.add.reduce, and the Hill and cone-adjusted
    # kernels divide by k: bit for bit np.mean of the same terms, on 1-d
    # heads and on stacks of rows, at every width up to 200, where R_(k) = 0
    # and where a ratio R_(1)/R_(k) overflows
    CONE = AngularCone(0.25, 0.75)

    @staticmethod
    def stack(k):
        """Six rows of k + 2 pairs by decreasing radius; in row 1 R_(k) = 0,
        in row 2 R_(1)/R_(k) overflows (where k > 1)."""
        gen = stream(41, k)
        x, y = gen.pareto(2.0, (2, 6, k + 2))
        x[1, k - 1 :] = y[1, k - 1 :] = 0.0
        x[2] *= 1e-10
        y[2] *= 1e-10
        x[2, 0] = y[2, 0] = 1e300
        order = np.argsort(-(x + y), axis=-1, kind="stable")
        return _pairs(np.take_along_axis(x, order, -1), np.take_along_axis(y, order, -1))

    @staticmethod
    def terms(rows, logr):
        """The cone-adjusted kernel's terms, (1 + d_i / R_(k)) log(R_(i)/R_(k)), 0 where the log is 0."""
        k = logr.shape[-1]
        d = cone_distances(rows.x[..., :k], rows.y[..., :k], TestReductionBits.CONE)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(logr > 0.0, (1.0 + d / rows.sorted_r[..., k - 1 : k]) * logr, 0.0)

    def test_sums_divided_by_k_are_np_mean(self):
        for k in range(1, 201):
            stacked = self.stack(k)
            heads = [_pairs(stacked.x[i], stacked.y[i]) for i in range(6)]
            for rows in (stacked, *heads):
                logr = _log_ratio_rows(rows.sorted_r, k)
                got = [_hill_rows(rows, logr), _cone_adjusted_hill_rows(rows, logr, self.CONE)]
                expected = [np.mean(logr, axis=-1), np.mean(self.terms(rows, logr), axis=-1)]
                for g, e in zip(got, expected):
                    assert np.shape(g) == np.shape(e) and [_bits(v) for v in np.ravel(g)] == [
                        _bits(v) for v in np.ravel(e)], k
            values = _hill_rows(stacked, _log_ratio_rows(stacked.sorted_r, k))
            assert values[1] == 0.0 and (k == 1 or values[2] == math.inf), k

    def test_angle_weighted_rows_are_1d_sums(self):
        # the angle-weighted kernel sums with np.add.reduce too: each row of a
        # stack gives, bit for bit, the quotient of its own 1-d sums, so no
        # value depends on the chunk of rows or on the BLAS library
        for k in range(1, 201):
            stacked = self.stack(k)
            logr = _log_ratio_rows(stacked.sorted_r, k)
            with np.errstate(invalid="ignore"):
                got = _angle_weighted_hill_rows(stacked, logr)
                expected = [np.sum(th[:k] * lr) / np.sum(th[:k]) if np.sum(th[:k]) > 0.0 else 1.0
                            for th, lr in zip(stacked.theta, logr)]
            assert [_bits(v) for v in got] == [_bits(v) for v in expected], k


class TestOneCallShape:
    # a kernel scores the log ratios it is given along the last axis: on a
    # 1-d order it gives, bit for bit, what it gives that order as one row
    ORDERS = {
        "example1": radial_order(example1(3000, 4)),
        "example2": radial_order(example2(3000, 4)),
        "zero_rk": TestUndefinedValues.ZERO_RK,  # R_(3) = 0
        "zero_angles": TestUndefinedValues.ZERO_ANGLES,  # top-2 angles sum to 0
    }
    KERNELS = [
        _hill_rows,
        _angle_weighted_hill_rows,
        lambda rows, logr: _cone_adjusted_hill_rows(rows, logr, AngularCone(0.25, 0.75)),
        lambda rows, logr: _cone_adjusted_hill_rows(rows, logr, AngularCone(0.0, 1.0)),
    ]

    @pytest.mark.parametrize("name", list(ORDERS))
    def test_one_order_is_one_row(self, name):
        order = self.ORDERS[name]
        o = order.head(order.n)
        stacked = _pairs(o.x[None], o.y[None])
        for k in (k for k in (2, 3, 25, 100) if k < order.n):
            logr, logr_rows = _log_ratio_rows(o.sorted_r, k), _log_ratio_rows(stacked.sorted_r, k)
            assert logr_rows.shape == (1, k) and logr_rows[0].tolist() == logr.tolist()
            for i, kernel in enumerate(self.KERNELS):
                value, (row_value,) = kernel(o, logr), kernel(stacked, logr_rows)
                assert np.shape(value) == ()
                assert _bits(value) == _bits(row_value), (k, i)


@pytest.mark.parametrize("k", [10.0, 2.5, np.float64(10.0)])
@pytest.mark.parametrize("call", [
    hill,
    lambda o, k: masked_angle_weighted_hill(o, k, AngularCone(0.25, 0.75)),
    lambda o, k: support_objective(o, k, 0.25, 0.75, 1.0),
    estimate_support,
], ids=["hill", "masked", "support_objective", "estimate_support"])
def test_non_integer_k_refused(call, k):
    # an integral float k would index the radii with a float: refused as a
    # ValueError, as TestConfig refuses it, not an IndexError
    with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
        call(radial_order(example1(300, 0)), k)


def test_numpy_integer_k_accepted():
    o = radial_order(example1(300, 0))
    assert hill(o, np.int64(10)) == hill(o, 10)


@pytest.mark.parametrize("statistic", [cone_adjusted_hill, masked_angle_weighted_hill],
                         ids=["cone_adjusted", "masked"])
@pytest.mark.parametrize("cone", [(0.25, 0.75), [0.25, 0.75], None])
def test_cone_that_is_not_an_angular_cone_refused(statistic, cone):
    # a ValueError naming the argument, not an AttributeError on cone.b or,
    # for a list, the memo's TypeError: unhashable
    with pytest.raises(ValueError, match=f"^cone must be an AngularCone, got {re.escape(repr(cone))}$"):
        statistic(radial_order(example1(300, 0)), 10, cone)
