import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import tail_core
from taildep.boot_tests import TestConfig as Config, _prepare
from taildep.datagen import example1
from taildep.estimators import (
    angle_weighted_hill,
    cone_adjusted_hill,
    hill,
    masked_angle_weighted_hill,
)
from taildep.support_fit import SupportFitOptions, estimate_support
from taildep.tail_core import (
    AngularCone,
    BivariateSample,
    RadialOrder,
    _decreasing_head,
    _decreasing_order,
    _pairs,
    acf,
    cone_distances,
    log_returns,
    radial_order,
)


def cone_distance(p, cone):
    return float(cone_distances(np.array([p[0]]), np.array([p[1]]), cone)[0])


class TestConeDistance:
    def test_interior_point(self):
        assert cone_distance((1, 1), AngularCone(0.25, 0.75)) == 0.0

    def test_above_cone(self):
        # y - (1/a - 1) x = 1 - 3*0 = 1
        assert cone_distance((0, 1), AngularCone(0.25, 0.75)) == 1.0

    def test_ray_case(self):
        # |x - y| on the ray y = x
        assert cone_distance((2, 1), AngularCone(0.5, 0.5)) == 1.0

    def test_full_cone_is_zero(self):
        for p in ((1, 0), (0, 1), (3, 2)):
            assert cone_distance(p, AngularCone(0.0, 1.0)) == 0.0

    def test_zero_endpoint_a(self):
        # [0, b]: only the below-cone term survives
        assert cone_distance((1, 0), AngularCone(0.0, 0.5)) == 1.0
        assert cone_distance((0, 1), AngularCone(0.0, 0.5)) == 0.0

    def test_degenerate_zero_ray(self):
        # theta = 0 ray: any point with x > 0 is at infinite scaled distance
        assert cone_distance((1, 1), AngularCone(0.0, 0.0)) == math.inf
        assert cone_distance((0, 3), AngularCone(0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("a, b, expected", [
        (1e-320, 0.5, [1.0, 0.0, 2.0]),
        (0.0, 1e-320, [0.0, math.inf, math.inf]),
        (1e-320, 1e-320, [1.0, math.inf, math.inf]),
    ])
    def test_overflowing_slope_is_zero_on_the_y_axis(self, a, b, expected):
        # 1/a or 1/b overflows to inf; a point with x = 0 takes 0 from that
        # term, not inf * 0 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = cone_distances(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 0.0]),
                               AngularCone(a, b))
        assert d.tolist() == expected

    def test_overflowing_product_is_inf_without_warning(self):
        # (1/a - 1) x = 1e300 * 1e10 overflows: the above-cone term is -inf
        # and the below-cone term decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = cone_distances(np.array([1e10]), np.array([0.0]), AngularCone(1e-300, 0.5))
        assert d.tolist() == [1e10]

    def test_vectorized_matches_scalar(self):
        cone = AngularCone(0.3, 0.6)
        xs = np.array([1.0, 0.0, 2.0, 5.0])
        ys = np.array([0.5, 1.0, 2.0, 1.0])
        d = cone_distances(xs, ys, cone)
        for i in range(4):
            assert d[i] == cone_distance((xs[i], ys[i]), cone)

    def test_homogeneity(self):
        gen = np.random.Generator(np.random.Philox(7))
        for _ in range(300):
            a, b = sorted(gen.random(2))
            cone = AngularCone(a, b)
            x, y = gen.random(2) * 10
            c = gen.random() * 100 + 1e-3
            assert cone_distance((c * x, c * y), cone) == pytest.approx(
                c * cone_distance((x, y), cone), rel=1e-12
            )

    def test_monotone_in_cone(self):
        gen = np.random.Generator(np.random.Philox(8))
        for _ in range(300):
            a, a2, b2, b = sorted(gen.random(4))
            x, y = gen.random(2) * 10
            assert cone_distance((x, y), AngularCone(a2, b2)) >= cone_distance(
                (x, y), AngularCone(a, b)
            )

    def test_zero_set(self):
        gen = np.random.Generator(np.random.Philox(9))
        for _ in range(300):
            a, b = sorted(gen.random(2) * 0.9 + 0.05)
            cone = AngularCone(a, b)
            r = gen.random() * 10 + 0.1
            theta = gen.random()
            d = cone_distance((r * theta, r * (1 - theta)), cone)
            if a <= theta <= b:
                assert d == pytest.approx(0.0, abs=1e-12)
            else:
                assert d > 0

    def test_invalid_cone(self):
        with pytest.raises(ValueError):
            AngularCone(0.6, 0.4)
        with pytest.raises(ValueError):
            AngularCone(-0.1, 0.5)
        with pytest.raises(ValueError, match="^cone endpoint a must be a number, got '0'$"):
            AngularCone("0", "1")
        with pytest.raises(ValueError, match="^cone endpoint a must be a number, got None$"):
            AngularCone(None, 1)


class TestBivariateSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            BivariateSample([1, 2], [1])
        with pytest.raises(ValueError):
            BivariateSample([-1], [1])
        with pytest.raises(ValueError):
            BivariateSample([np.nan], [1])
        with pytest.raises(ValueError):
            BivariateSample([], [])

    def test_negative_zero_stored_as_positive(self):
        # -0.0 < 0 is false, so -0.0 passes the sign check; stored as is,
        # it made the angle -0.0 and, through the fit, a_hat = -0.0
        x, y = np.array([-0.0, 1.0, -0.0, 2.0]), np.array([3.0, -0.0, 1.0, 0.0])
        s = BivariateSample(x, y)
        assert s.x.tolist() == [0.0, 1.0, 0.0, 2.0] and s.y.tolist() == [3.0, 0.0, 1.0, 0.0]
        assert not np.signbit(s.x).any() and not np.signbit(s.y).any()
        assert not np.signbit(s.angles).any() and not np.signbit(radial_order(s).head(s.n).theta).any()
        assert np.signbit(x[0]) and x.flags.writeable  # the caller's array is copied, not changed
        with pytest.raises(ValueError, match="negative values"):
            BivariateSample([-0.0, -1e-300], [1.0, 1.0])
        # without a -0.0 nothing is copied
        x = np.array([0.0, 1.0])
        assert np.shares_memory(BivariateSample(x, np.ones(2)).x, x)

    def test_caller_arrays_stay_writeable(self):
        # the sample keeps read-only views, so the caller's arrays are
        # shared, not copied, and keep their flag
        x, y = np.array([1.0, 2.0]), np.array([3.0, 0.5])
        for s in (BivariateSample(x, x), BivariateSample(x, y)):
            assert x.flags.writeable and y.flags.writeable
            assert np.shares_memory(s.x, x)
            assert not s.x.flags.writeable and not s.y.flags.writeable
        assert np.shares_memory(s.y, y)

    def test_immutable(self):
        s = BivariateSample([1], [2])
        with pytest.raises(AttributeError):
            s.x = np.array([3.0])
        with pytest.raises(ValueError):
            s.x[0] = 3.0

    def test_origin_angle_is_zero(self):
        s = BivariateSample([0, 1], [0, 1])
        assert s.angles.tolist() == [0.0, 0.5]

    def test_radius_overflow_names_first_point(self):
        # each coordinate is finite, but x + y is not
        with pytest.raises(ValueError, match=r"^the radius x \+ y of point 1 overflows "
                                             r"\(x = 1e\+308, y = 1e\+308\)$"):
            BivariateSample([1.0, 1e308, 1.7e308], [2.0, 1e308, 1e308])


class TestRadialOrder:
    def test_hand_sort(self):
        s = BivariateSample([1, 3, 0], [0, 1, 2])
        o = radial_order(s).head(s.n)
        assert o.sorted_r.tolist() == [4, 2, 1]
        assert o.theta.tolist() == [0.75, 0, 1]

    def test_single_point(self):
        o = radial_order(BivariateSample([2], [2])).head(1)
        assert o.sorted_r.tolist() == [4] and o.theta.tolist() == [0.5]

    def test_tie_break_by_index(self):
        o = radial_order(BivariateSample([1, 2], [1, 0])).head(2)
        assert o.x.tolist() == [1, 2]  # both r=2; input order kept

    def test_permutation_of_radii(self):
        gen = np.random.Generator(np.random.Philox(10))
        for _ in range(100):
            n = int(gen.integers(1, 40))
            s = BivariateSample(gen.random(n), gen.random(n))
            o = radial_order(s).head(n)
            assert sorted(o.sorted_r) == sorted(s.radii)

    def test_sorts_on_every_call(self, monkeypatch):
        # no order is cached across calls: each call's order sorts the sample
        # again, on its first read and not before
        calls = []
        sort = tail_core._decreasing_order
        monkeypatch.setattr(tail_core, "_decreasing_order",
                            lambda values: calls.append(values.size) or sort(values))
        s = BivariateSample([1, 3, 0], [0, 1, 2])
        first, second = radial_order(s), radial_order(s)
        assert calls == []
        assert np.array_equal(first.head(s.n).sorted_r, second.head(s.n).sorted_r)
        assert calls == [3, 3]

    def test_all_origin_rejected(self):
        with pytest.raises(ValueError):
            radial_order(BivariateSample([0, 0], [0, 0]))

    def test_arrays_are_read_only_views(self):
        # the memo keeps values derived from the arrays, so they must not change
        x, y = np.array([1.0, 3.0, 0.0]), np.array([1.0, 1.0, 0.0])
        o = RadialOrder(x, y)
        top = o.head(o.n)
        assert top.x.tolist() == [3.0, 1.0, 0.0] and top.y.tolist() == [1.0, 1.0, 0.0]
        assert top.sorted_r.tolist() == [4.0, 2.0, 0.0] and top.theta.tolist() == [0.75, 0.5, 0.0]
        assert x.flags.writeable and y.flags.writeable
        assert x.tolist() == [1.0, 3.0, 0.0] and y.tolist() == [1.0, 1.0, 0.0]
        for arr in top:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert "_memo" not in repr(o)

    @pytest.mark.parametrize("x, y, r, theta", [
        (np.array([0, 5, 3, 2], np.uint32), np.zeros(4, np.uint32), [5.0, 3.0], [1.0, 1.0]),
        (np.array([200], np.uint8), np.array([100], np.uint8), [300.0], [2 / 3]),
        ([1, 3, 0], [0, 1, 2], [4.0, 2.0], [0.75, 0.0]),
    ], ids=["uint32_with_a_zero", "uint8_overflow", "list_of_ints"])
    def test_integer_pairs_are_read_as_floats(self, x, y, r, theta):
        # summed in an unsigned dtype, -0 stays the least key, so a zero
        # radius sorted first, and 200 + 100 wrapped to 44
        top = RadialOrder(x, y).head(2)
        assert top.sorted_r.tolist() == r and top.theta.tolist() == theta
        assert all(arr.dtype == np.float64 for arr in top)

    @pytest.mark.parametrize("x, y", [
        (np.ones((1, 3)), np.ones((1, 3))),  # a stack of rows
        (np.ones(3), np.ones(2)),
        (5.0, 5.0),
    ])
    def test_only_one_row_of_pairs(self, x, y):
        with pytest.raises(ValueError, match="^a radial order's x and y must be 1-d arrays of equal "
                                             "length$"):
            RadialOrder(x, y)

    @pytest.mark.parametrize("read", [lambda o, depth: o.head(depth),
                                      lambda o, depth: o.within(AngularCone(0.0, 1.0), depth)],
                             ids=["head", "within"])
    def test_one_depth_rule(self, read, monkeypatch):
        # a depth <= 0 reads nothing, and sorts nothing, however deep the
        # order was read before
        o = radial_order(example1(100, 0))
        o.head(10)
        sizes = []
        sort = tail_core._decreasing_order
        monkeypatch.setattr(tail_core, "_decreasing_order",
                            lambda values: sizes.append(values.size) or sort(values))
        for depth in (-5, -100, 0, np.int64(-5)):
            assert read(o, depth).x.size == 0, depth
        assert sizes == []
        assert read(o, np.int64(3)).x.tolist() == read(o, 3).x.tolist() == o.head(3).x.tolist()
        for depth in (1.5, 10.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match=r"^depth must be an integer, got "):
                read(o, depth)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 0.0], [0.0, 0.0]),  # origin points only
        ([2.0, 0.0, 1.0], [1.0, 0.0, 3.0]),  # an origin point sorts last
        ([5e-324, 5e-324, 1e-310, 0.0], [0.0, 5e-324, 3e-310, 5e-324]),  # subnormal radii
        ([-0.0, 1.0, -0.0, 2.0], [3.0, -0.0, -0.0, 0.0]),  # -0.0 inputs
        ([0.0, 0.0, 4.0], [1.0, 7.0, 0.0]),  # x = 0 with y > 0
    ])
    def test_angles_match_numpy_reference(self, x, y):
        # theta = x / (x + y), 0 at the origin, taken here by a numpy form
        # of its own: the order's angle rule is not its own reference
        s = BivariateSample(x, y)
        r = s.x + s.y
        expected = np.where(r > 0, s.x / np.where(r > 0, r, 1.0), 0.0)
        stable = np.argsort(-r, kind="stable")
        rows = _pairs(s.x[stable][None], s.y[stable][None])
        got = [(s.angles, expected), (rows.theta[0], expected[stable])]
        if r.max() > 0:
            got.append((radial_order(s).head(s.n).theta, expected[stable]))
        for a, b in got:
            assert a.tobytes() == b.tobytes() and not np.signbit(a).any()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_stable_argsort(self, data):
        # ties, zeros (of either sign), one point, all-equal radii and
        # integer degrees: the order is the stable one, bit for bit
        n = data.draw(st.integers(1, 60), label="n")
        cell = data.draw(st.sampled_from([
            st.integers(0, 3).map(float),
            st.integers(0, 40).map(float),
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
            st.floats(0.0, 1e6, allow_subnormal=True),
        ]), label="cell")
        x = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="x"))
        y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="y"))
        s = BivariateSample(x, y)
        r = s.radii
        if not np.any(r > 0):
            with pytest.raises(ValueError, match="all points are at the origin"):
                radial_order(s)
            return
        stable = np.argsort(-r, kind="stable")
        theta = np.where(r > 0, s.x / np.where(r > 0, r, 1.0), 0.0)  # a reference of its own
        expected = {"sorted_r": r[stable], "theta": theta[stable], "x": s.x[stable],
                    "y": s.y[stable]}
        got = radial_order(s).head(n)
        for name, b in expected.items():
            a = getattr(got, name)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name

    @pytest.mark.parametrize("n", [1, 2, 1000, 200000])
    @pytest.mark.parametrize("kind", ["distinct", "degrees", "all_equal"])
    def test_decreasing_order_and_dense_ranks(self, n, kind):
        gen = np.random.Generator(np.random.Philox(n))
        values = {
            "distinct": gen.random(n),
            # in/out-degree counts: integers, most of them small and tied
            "degrees": np.floor(gen.pareto(1.2, n)),
            "all_equal": np.full(n, 7.0),
        }[kind]
        assert np.array_equal(_decreasing_order(values), np.argsort(-values, kind="stable"))
        # the bootstrap's dense ranks; _prepare needs n > k_n and a positive
        # Hill estimate, which equal values lack
        if n > 2 and kind != "all_equal":
            s = BivariateSample(values, np.zeros(n))
            rank = _prepare(s, Config(k_n=2, m_n=n, k_mn=2)).rank
            assert np.array_equal(rank, np.unique(-values, return_inverse=True)[1])


def _check_decreasing_order(values):
    stable = np.argsort(-values, kind="stable")
    assert np.array_equal(_decreasing_order(values), stable)
    n = values.size
    for depth in {1, max(1, n // 2), max(1, n - 1)}:
        assert np.array_equal(_decreasing_head(values, depth), stable[:depth])


def _low_bits(n):
    # as many low bits as n - 1 has: values that agree above them are
    # ulp-close, in runs that grow with n
    return (1 << max(1, (n - 1).bit_length())) - 1


class TestPackedKeySort:
    """Runs of values that differ only in their low bits, among ties, zeros
    and integer degrees: the decreasing order and its heads, whose partition
    threshold falls inside such runs, are the stable argsort's."""

    # b grows by one bit from 1024 to 1025 and from 65536 to 65537 values
    @pytest.mark.parametrize("n", [1, 2, 1024, 1025, 65536, 65537])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_low_bit_runs_among_ties_zeros_and_degrees(self, n, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        low = _low_bits(n)
        # eight shared prefixes, each followed by random low bits
        heads = (1.0 + gen.integers(0, 8, n) / 8.0).view(np.uint64) & ~np.uint64(low)
        near = (heads | gen.integers(0, low + 1, n, dtype=np.uint64)).view(float)
        kind = gen.integers(0, 4, n)
        values = np.select([kind == 0, kind == 1, kind == 2],
                           [near, near[gen.integers(0, n, n)], 0.0],
                           np.floor(gen.pareto(1.2, n)))
        _check_decreasing_order(gen.permutation(values))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_stable_argsort_on_low_bit_runs(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        low = _low_bits(n)
        prefix = st.sampled_from([0.0, 1.0, 3.0, 2.0**-30, 1e300])
        cell = st.tuples(prefix, st.integers(0, low)).map(
            lambda p: float((np.float64(p[0]).view(np.uint64) | np.uint64(p[1])).view(np.float64)))
        values = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="values"))
        _check_decreasing_order(values)

    @pytest.mark.parametrize("kind", ["random", "degrees"])
    def test_peak_memory_is_three_arrays(self, kind):
        n = 10**6
        gen = np.random.Generator(np.random.Philox(4))
        values = gen.random(n) if kind == "random" else np.floor(gen.pareto(1.2, n))
        _decreasing_order(1.0 + np.arange(9.0) * 2.0**-52)  # first-call allocations
        tracemalloc.start()
        try:
            _decreasing_order(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n


TABLE_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)


def _outcome(call, order):
    """The bits of what call(order) returns, or the message it raises."""
    try:
        return [float(v).hex() for v in call(order)]
    except ValueError as exc:
        return str(exc)


def _table_calls(k, cone):
    """The statistics and fits of one Table-1 row at k on cone."""
    fits = [lambda o, lam=lam: vars(estimate_support(o, k, SupportFitOptions(lam=lam))).values()
            for lam in TABLE_LAMBDAS]
    return fits + [
        lambda o: [hill(o, k).value],
        lambda o: [cone_adjusted_hill(o, k, cone).value],
        lambda o: [angle_weighted_hill(o, k).value],
        lambda o: [masked_angle_weighted_hill(o, k, cone).value],
    ]


class TestLazyOrder:
    """radial_order sorts only as deep as it is read; what it gives must be,
    bit for bit, what the order of the full stable argsort gives."""

    CELLS = {
        "tied": st.integers(0, 4).map(float),
        "zero_heavy": st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 3.0, 7.25]),
        # 1 + j ulp: radii that differ only in the sort key's low bits
        "low_bits": st.integers(0, 6).map(lambda j: 1.0 + j * 2.0**-52),
    }
    CONES = [AngularCone(0.25, 0.75), AngularCone(0.0, 1.0), AngularCone(0.5, 0.5),
             AngularCone(0.9, 1.0), AngularCone(0.0, 0.0)]

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_full_order(self, data):
        n = data.draw(st.integers(2, 70), label="n")
        cell = self.CELLS[data.draw(st.sampled_from(sorted(self.CELLS)), label="kind")]
        x = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="x"))
        y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="y"))
        s = BivariateSample(x, y)
        r = s.radii
        stable = np.argsort(-r, kind="stable")
        k = data.draw(st.integers(1, n - 1), label="k")
        for depth in (1, k, n - 1, n, n + 1):
            assert np.array_equal(_decreasing_head(r, depth), stable[:depth]), depth
        if not r.any():
            return
        full = RadialOrder(s.x[stable], s.y[stable])
        # cones with fewer than k points in the top 2k make the masked
        # statistic read within(cone, k)
        cone = data.draw(st.sampled_from(self.CONES), label="cone")
        shared = radial_order(s)
        for i, call in enumerate(_table_calls(k, cone)):
            expected = _outcome(call, full)
            assert _outcome(call, radial_order(s)) == expected, i
            assert _outcome(call, RadialOrder(s.x, s.y)) == expected, i
            assert _outcome(call, shared) == expected, i
        assert np.array_equal(shared.head(n).sorted_r, full.head(n).sorted_r)
        assert np.array_equal(shared.head(n).theta, full.head(n).theta)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_within_is_the_in_cone_prefix(self, data):
        n = data.draw(st.integers(1, 70), label="n")
        cell = self.CELLS[data.draw(st.sampled_from(sorted(self.CELLS)), label="kind")]
        x = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="x"))
        y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n), label="y"))
        s = BivariateSample(x, y)
        stable = np.argsort(-s.radii, kind="stable")
        depth = data.draw(st.integers(1, n + 1), label="depth")
        orders = [RadialOrder(s.x[stable], s.y[stable]), RadialOrder(s.x, s.y)] + (
            [radial_order(s)] if s.radii.any() else [])
        for cone in self.CONES:
            want = stable[cone.contains_angle(s.angles[stable])][:depth]
            for order in orders:
                got = order.within(cone, depth)
                for arr, full in zip(got, (s.x, s.y, s.radii, s.angles)):
                    assert np.array_equal(arr, full[want]), (cone, depth)

    def test_within_at_cones_holding_none_and_all(self):
        s = example1(2000, 3)
        stable = np.argsort(-s.radii, kind="stable")
        o = radial_order(s)
        assert o.within(AngularCone(1.0, 1.0), 100).x.size == 0  # no point has y = 0
        assert o.within(AngularCone(0.0, 1.0), 0).x.size == 0
        for depth in (100, s.n, s.n + 1):
            every = o.within(AngularCone(0.0, 1.0), depth)
            assert np.array_equal(every.x, s.x[stable][:depth])
            assert np.array_equal(every.theta, s.angles[stable][:depth])

    @pytest.mark.parametrize("cone", [(0.25, 0.75), [0.25, 0.75], None])
    def test_within_refuses_a_cone_that_is_not_an_angular_cone(self, cone):
        with pytest.raises(ValueError, match=f"^cone must be an AngularCone, got {re.escape(repr(cone))}$"):
            radial_order(example1(300, 0)).within(cone, 10)

    def test_support_table_sorts_at_most_4k_values(self, monkeypatch):
        # the fit at five lambdas and the four statistics read the top k and,
        # for the masked statistic, the top 2k: not the n = 30000 points
        sizes = []
        sort = tail_core._decreasing_order
        monkeypatch.setattr(tail_core, "_decreasing_order",
                            lambda values: sizes.append(values.size) or sort(values))
        k, s = 100, example1(30000, 3)
        o = radial_order(s)
        fits = [estimate_support(o, k, SupportFitOptions(lam=lam)) for lam in TABLE_LAMBDAS]
        cone = AngularCone(fits[0].a_hat, fits[0].b_hat)
        hill(o, k), cone_adjusted_hill(o, k, cone), angle_weighted_hill(o, k)
        masked_angle_weighted_hill(o, k, cone)
        assert 0 < sum(sizes) <= 4 * k
        # a cone with fewer than k points in the top 2k is read by within,
        # which sorts only in-cone points (the cones hold 286 and none), never n
        for narrow in (AngularCone(0.99, 1.0), AngularCone(1.0, 1.0)):
            seen = []
            monkeypatch.setattr(tail_core, "_decreasing_order",
                                lambda values: seen.append(values) or sort(values))
            masked_angle_weighted_hill(radial_order(s), k, narrow)
            in_cone = s.radii[narrow.contains_angle(s.angles)]
            assert seen[-1].size <= in_cone.size and np.isin(seen[-1], in_cone).all()
            assert max(values.size for values in seen) < s.n


class TestLogReturns:
    def test_unit_stride(self):
        r = log_returns([1, math.e, math.e**2], stride=1)
        assert r == pytest.approx([1.0, 1.0])

    def test_stride_two_skips(self):
        r = log_returns([1, 7, math.e**2, 7, math.e**4], stride=2)
        assert r == pytest.approx([2.0, 2.0])

    def test_constant_prices(self):
        assert log_returns([5, 5, 5], stride=1).tolist() == [0.0, 0.0]

    def test_trailing_partial_window_dropped(self):
        assert log_returns([1.0] * 6, stride=2).size == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            log_returns([1, 0, 2], stride=1)
        with pytest.raises(ValueError):
            log_returns([1, 2], stride=2)
        with pytest.raises(ValueError, match="^stride must be a positive integer, got 0$"):
            log_returns([1, 2, 3], stride=0)
        for stride in (None, math.inf, math.nan, 2.0, "2"):
            with pytest.raises(ValueError, match=f"^stride must be an integer, got {stride!r}$"):
                log_returns([1, 2, 3], stride)


class TestAcf:
    def test_lag_zero_is_one(self):
        assert acf([1.0, 3.0, 2.0, 5.0], 2)[0] == 1.0

    def test_alternating_series(self):
        x = [1.0, -1.0] * 50
        assert acf(x, 1)[1] == pytest.approx(-99 / 100, abs=1e-12)

    def test_white_noise_band(self):
        n = 10000
        hits = 0
        for seed in range(20):
            gen = np.random.Generator(np.random.Philox(seed))
            a = acf(gen.standard_normal(n), 20)
            hits += bool(np.all(np.abs(a[1:]) < 3 / math.sqrt(n)))
        assert hits >= 19

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            acf([2.0, 2.0, 2.0], 1)

    def test_non_finite_series_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^series must be finite$"):
                acf([1.0, bad, 2.0, 3.0], 1)

    def test_max_lag_validation(self):
        with pytest.raises(ValueError):
            acf([1.0, 2.0], 5)
        for max_lag in (0, -1):
            with pytest.raises(ValueError, match=f"^max_lag must be a positive integer, got {max_lag}$"):
                acf([1.0, 2.0, 4.0, 3.0, 5.0], max_lag)
        for max_lag in (2.5, None, math.inf, math.nan, 2.0, "2"):
            with pytest.raises(ValueError, match=f"^max_lag must be an integer, got {max_lag!r}$"):
                acf([1.0, 2.0, 4.0, 3.0, 5.0], max_lag)
