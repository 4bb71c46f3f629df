import hashlib
import math
import re
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from taildep import statdist
from taildep.statdist import (
    chisq_cdf,
    chisq_quantile,
    f_cdf,
    f_quantile,
    normal_cdf,
    normal_quantile,
)

# the sha256 of the 168 thresholds' reprs in test_every_cli_threshold
_CLI_THRESHOLDS = "c01a83c3f64a76628bca44dfce46e4ea1dad20b1a4d7023a17410be52a4511b0"


class TestNormal:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_975(self):
        # reference: high-precision inverse normal CDF
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_antisymmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)

    def test_invalid(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_against_scipy(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.999, 1 - 1e-10, 1 - 1e-13, 1 - 2.0**-53])
    def test_upper_tail_against_scipy(self, p):
        # normal_cdf rounds near 1, so an inversion on it would lose ~1e-9 here:
        # the quantile is solved on the upper tail at 1 - p, which is exact
        assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), rel=1e-14)

    @pytest.mark.parametrize("p", [0.5 + 5e-10, 0.5 - 5e-10, 0.5 + 1e-12, 0.5000001])
    def test_near_the_median_against_scipy(self, p):
        # the quantile is near 1e-9 here, so only a relative bound (abs=0)
        # tells a 1e-15 error from a 1e-9 one
        assert normal_quantile(p) == pytest.approx(scipy.special.ndtri(p), rel=1e-14, abs=0.0)


class TestChisq:
    def test_paper_scale_constant(self):
        assert chisq_quantile(0.95, 1999) / 1999 == pytest.approx(1.053, abs=1e-3)

    def test_exponential_median(self):
        # chi-square with 2 df is exponential(1/2); median = 2 log 2
        assert chisq_quantile(0.5, 2) == pytest.approx(2 * math.log(2), rel=1e-10)

    def test_large_df_ratio_monotone(self):
        prev = math.inf
        for df in (10, 100, 1000, 10000, 100000):
            ratio = chisq_quantile(0.95, df) / df
            assert 1.0 < ratio < prev
            prev = ratio

    def test_against_scipy(self):
        for df in (0.5, 1, 2, 5, 30, 1999):
            for p in (0.01, 0.25, 0.5, 0.9, 0.975):
                assert chisq_quantile(p, df) == pytest.approx(
                    scipy.stats.chi2.ppf(p, df), rel=1e-8
                )

    @pytest.mark.parametrize("df", [1e-4, 1e-3, 0.01, 0.1, 0.5, 1e-150])
    def test_small_df_against_scipy(self, df):
        # as df -> 0 most of these quantiles underflow, and near p = 1 Q is 1
        # minus the series' P, which must not round it away
        for p in (1e-300, 1e-20, 1e-3, 0.3, 0.9, 0.99, 1 - 1e-12):
            expected = scipy.stats.chi2.ppf(p, df)
            got = chisq_quantile(p, df)
            if expected < sys.float_info.min:  # the quantile underflows
                assert 0.0 <= got < sys.float_info.min
            else:
                assert got == pytest.approx(expected, rel=1e-8, abs=0.0)

    def test_upper_bracket_doubles(self):
        # far in the upper tail at a tiny df, solved on Q; the value is
        # scipy's chi2.ppf
        assert chisq_quantile(1 - 1e-12, 0.01) == 38.68051167268304

    def test_invalid(self):
        with pytest.raises(ValueError):
            chisq_quantile(0.5, -1)
        with pytest.raises(ValueError):
            chisq_quantile(1.5, 3)
        # an int that float() cannot take
        with pytest.raises(ValueError, match=r"^df must lie in \(0, 1e\+07\], got 1000"):
            chisq_quantile(0.5, 10**400)
        with pytest.raises(ValueError, match=r"^probability must lie in \(0, 1\), got 1000"):
            chisq_quantile(10**400, 3)

    def test_at_the_df_cap(self):
        # at df = 1e7 and p <= 1e-6 scipy's chi2.ppf differs from this quantile
        # by up to 7e-7, and scipy is the one off (at df = 3e6, mpmath at 40
        # digits puts this quantile's CDF within 2.2e-9 of p, scipy's 6.4e-6 to
        # 8.4e-5 from it), so the lower tail round-trips through chisq_cdf. P's
        # front factor is formed from terms near 8e7, so it rounds at about 1e-8
        df = statdist._MAX_DF
        for p in (0.025, 0.5, 0.975, 0.995):
            assert chisq_quantile(p, df) == pytest.approx(scipy.stats.chi2.ppf(p, df),
                                                          rel=1e-8, abs=0.0)
        for p in (1e-10, 1e-6, 1e-3):
            assert chisq_cdf(chisq_quantile(p, df), df) == pytest.approx(p, rel=1e-7, abs=0.0)


class TestF:
    def test_paper_scale_interval(self):
        assert f_quantile(0.025, 1999, 1999) == pytest.approx(0.916, abs=2e-3)
        assert f_quantile(0.975, 1999, 1999) == pytest.approx(1.092, abs=2e-3)

    def test_median_equal_df(self):
        for d in (3, 10, 100):
            assert f_quantile(0.5, d, d) == pytest.approx(1.0, rel=1e-9)

    def test_reciprocal_identity(self):
        for d in (10, 100, 1999):
            assert f_quantile(0.975, d, d) == pytest.approx(
                1.0 / f_quantile(0.025, d, d), rel=1e-8
            )

    def test_against_scipy(self):
        for d1, d2 in ((2, 7), (10, 3), (100, 50), (1999, 1999)):
            for p in (0.025, 0.5, 0.975):
                assert f_quantile(p, d1, d2) == pytest.approx(
                    scipy.stats.f.ppf(p, d1, d2), rel=1e-8
                )

    @pytest.mark.parametrize("small", [0.01, 0.1, 1, 5, 30])
    @pytest.mark.parametrize("big", [1e5, 1e6, 3e6])
    def test_far_apart_df_against_scipy(self, small, big):
        # log B(a, b) at a << b: lgamma(a + b) - lgamma(b) taken as a difference
        # of two numbers near 6e6 missed 1e-8 by up to 1e-6. At p = 1e-10 and
        # df1 = big the beta variate lies near 1: solved on I_z(b, a) = 1 - p,
        # not on the upper tail itself, it missed by up to 3e-8
        for d1, d2 in ((small, big), (big, small)):
            for p in (1e-10, 1e-6, 1e-3, 0.025, 0.5, 0.9, 0.975, 0.999):
                expected = scipy.stats.f.ppf(p, d1, d2)
                if 1e-290 < expected < 1e290:
                    assert f_quantile(p, d1, d2) == pytest.approx(expected, rel=1e-8, abs=0.0)

    def test_at_the_df_cap_against_scipy(self):
        df = statdist._MAX_DF
        for p in (1e-10, 1e-6, 1e-3, 0.025, 0.5, 0.975, 0.995):
            assert f_quantile(p, df, df) == pytest.approx(scipy.stats.f.ppf(p, df, df),
                                                          rel=1e-8, abs=0.0)


class TestRoundTripsAndMonotonicity:
    PS = np.linspace(0.001, 0.999, 211)

    def test_normal_round_trip(self):
        for p in self.PS:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-7)

    def test_chisq_round_trip(self):
        for df in (1, 4, 37, 1999):
            for p in self.PS:
                assert chisq_cdf(chisq_quantile(p, df), df) == pytest.approx(p, abs=1e-7)

    def test_f_round_trip(self):
        for d1, d2 in ((3, 8), (50, 50), (1999, 1999)):
            for p in self.PS:
                assert f_cdf(f_quantile(p, d1, d2), d1, d2) == pytest.approx(p, abs=1e-7)

    def test_quantiles_monotone_in_p(self):
        for fn in (
            normal_quantile,
            lambda p: chisq_quantile(p, 7),
            lambda p: f_quantile(p, 12, 9),
        ):
            vals = [fn(p) for p in self.PS]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_f_reciprocal_general(self):
        for d1, d2 in ((4, 9), (100, 30)):
            for p in (0.01, 0.3, 0.7, 0.99):
                assert f_quantile(p, d1, d2) * f_quantile(1 - p, d2, d1) == pytest.approx(
                    1.0, rel=1e-7
                )


class TestSpecialFunctions:
    # the regularized incomplete gamma P(a, x) is chisq_cdf(2x, 2a), and
    # I_y(a, b) is f_cdf at df = (2a, 2b) and F = (b / a) y / (1 - y)

    def test_gamma_p_against_scipy(self):
        for a in (0.1, 1.0, 7.5, 999.5):
            for x in (0.01, 0.5, 1.0, 5.0, 900.0, 1100.0):
                assert chisq_cdf(2 * x, 2 * a) == pytest.approx(
                    scipy.stats.gamma.cdf(x, a), abs=1e-12, rel=1e-10
                )

    @pytest.mark.parametrize("fn, args, error", [
        # a df of 0, below 0, NaN, inf or just above the cap of 1e7, named
        (chisq_cdf, (2.0, 0.0), "df must lie in (0, 1e+07], got 0.0"),
        (chisq_cdf, (2.0, -4.0), "df must lie in (0, 1e+07], got -4.0"),
        (chisq_quantile, (0.5, 0.0), "df must lie in (0, 1e+07], got 0.0"),
        (f_cdf, (1.0, 0.0, 2.0), "df1 must lie in (0, 1e+07], got 0.0"),
        (f_cdf, (1.0, 2.0, -2.0), "df2 must lie in (0, 1e+07], got -2.0"),
        (f_quantile, (0.5, 0.0, 2.0), "df1 must lie in (0, 1e+07], got 0.0"),
        (f_quantile, (0.5, 2.0, -2.0), "df2 must lie in (0, 1e+07], got -2.0"),
        (normal_quantile, (math.nan,), "probability must lie in (0, 1), got nan"),
        (f_quantile, (math.nan, 3, 3), "probability must lie in (0, 1), got nan"),
        (chisq_cdf, (2.0, math.nan), "df must lie in (0, 1e+07], got nan"),
        (chisq_cdf, (2.0, math.inf), "df must lie in (0, 1e+07], got inf"),
        (f_cdf, (1.0, math.inf, 2.0), "df1 must lie in (0, 1e+07], got inf"),
        (f_cdf, (1.0, 2.0, math.nan), "df2 must lie in (0, 1e+07], got nan"),
        (chisq_quantile, (0.5, 10000000.5), "df must lie in (0, 1e+07], got 10000000.5"),
        (f_cdf, (1.0, 10000000.5, 2.0), "df1 must lie in (0, 1e+07], got 10000000.5"),
        (f_quantile, (0.5, 2.0, 10000000.5), "df2 must lie in (0, 1e+07], got 10000000.5"),
        (chisq_quantile, (0.5, 10000001), "df must lie in (0, 1e+07], got 10000001"),
        (chisq_quantile, (0.5, math.inf), "df must lie in (0, 1e+07], got inf"),
        (chisq_cdf, (1.0, 10000001), "df must lie in (0, 1e+07], got 10000001"),
        (f_quantile, (0.5, 10000001, 3), "df1 must lie in (0, 1e+07], got 10000001"),
        (f_quantile, (0.5, 3, 10000001), "df2 must lie in (0, 1e+07], got 10000001"),
        (f_cdf, (1.0, 3, 1e300), "df2 must lie in (0, 1e+07], got 1e+300"),
        # a p that float() cannot take, and a NaN x, named as such
        (chisq_quantile, (10**400, 3), f"probability must lie in (0, 1), got {10**400}"),
        (f_quantile, (10**400, 3, 3), f"probability must lie in (0, 1), got {10**400}"),
        (normal_quantile, (10**400,), f"probability must lie in (0, 1), got {10**400}"),
        (normal_cdf, (math.nan,), "x must be a number, got nan"),
        (chisq_cdf, (math.nan, 3), "x must be a number, got nan"),
        (f_cdf, (math.nan, 3, 3), "x must be a number, got nan"),
        # a subnormal df: these raised ZeroDivisionError, "math domain error"
        # and an ArithmeticError from the gamma series that named no public call
        (chisq_cdf, (1.0, 5e-324), "df must not be subnormal, got 5e-324"),
        (f_quantile, (0.5, 3, 5e-324), "df2 must not be subnormal, got 5e-324"),
        (chisq_cdf, (0.5, 1e-310), "df must not be subnormal, got 1e-310"),
    ])
    def test_bad_arguments_refused(self, fn, args, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            fn(*args)

    def test_zero_at_and_below_the_support(self):
        for x in (0.0, -1.0):
            assert chisq_cdf(x, 3) == 0.0
            assert f_cdf(x, 2, 7) == 0.0

    def test_one_at_plus_infinity(self):
        assert chisq_cdf(math.inf, 3) == 1.0
        assert f_cdf(math.inf, 3, 3) == 1.0

    def test_beyond_the_float_range(self):
        # an int that float() cannot take is read as +-inf
        assert chisq_cdf(10**400, 3) == 1.0
        assert f_cdf(10**400, 3, 3) == 1.0
        assert normal_cdf(10**400) == 1.0
        assert chisq_cdf(-10**400, 3) == f_cdf(-10**400, 3, 3) == normal_cdf(-10**400) == 0.0

    def test_shapes_at_the_cap_against_scipy(self):
        # the front factors' exponents are formed from terms near 8e7, which
        # round at about 1.5e-8 of the result
        df = statdist._MAX_DF
        for x in (df - 1e4, df, df + 1e4):
            assert chisq_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), rel=1e-7)
        for y in (0.4999, 0.5, 0.5001):
            x = y / (1 - y)
            assert f_cdf(x, df, df) == pytest.approx(scipy.stats.f.cdf(x, df, df), rel=1e-7)

    def test_beta_inc_against_scipy(self):
        for a, b in ((0.5, 0.5), (2, 3), (999.5, 999.5)):
            for y in (0.01, 0.3, 0.5, 0.7, 0.99):
                x = b / a * y / (1 - y)
                assert f_cdf(x, 2 * a, 2 * b) == pytest.approx(
                    scipy.stats.f.cdf(x, 2 * a, 2 * b), abs=1e-12, rel=1e-10
                )


class TestUpperTail:
    # above p = 1 - 0.02425 the quantiles are solved on the upper tail at 1 - p,
    # because a CDF rounds near 1 and an inversion on it loses digits
    @pytest.mark.parametrize("p", [0.999, 1 - 1e-10, 1 - 1e-12])
    def test_chisq_against_scipy(self, p):
        for df in (1, 5, 1999):
            assert chisq_quantile(p, df) == pytest.approx(scipy.stats.chi2.isf(1 - p, df),
                                                          rel=1e-13)

    @pytest.mark.parametrize("p", [0.999, 1 - 1e-10, 1 - 1e-12])
    def test_f_against_scipy(self, p):
        for d1, d2 in ((5, 5), (2, 7), (1999, 1999)):
            assert f_quantile(p, d1, d2) == pytest.approx(scipy.stats.f.isf(1 - p, d1, d2),
                                                          rel=1e-12)


class TestExtremes:
    def test_newton_step_does_not_overflow(self):
        # the beta density underflows below e^-700 on part of [0, 1]
        p, d1, d2 = 0.32297268495544185, 2236.0868220753473, 3.6914689928343885
        assert f_quantile(p, d1, d2) == pytest.approx(scipy.stats.f.ppf(p, d1, d2), rel=1e-8)

    def test_gamma_p_near_the_mode_at_large_shape(self):
        # P(a, x) at a = 49999.5, x = 49999.17: the series needs about
        # 8 sqrt(a) terms here, more than 1000
        assert chisq_cdf(99998.34, 99999) == pytest.approx(
            scipy.stats.gamma.cdf(49999.17, 49999.5), rel=1e-9)

    # roots far below the bracket's scale: [0, 1] for the beta variate; the
    # second call reaches the first's kind of root through its reciprocal
    @pytest.mark.parametrize("args, expected", [
        ((2.337211554210065e-15, 0.4302742666287781, 10.557701810843925), 3.2362504580506773e-68),
        ((0.9999999999999967, 7.723156772799444, 0.3971090875184138), 2.2483549647008747e72),
    ])
    def test_tiny_root_against_scipy(self, args, expected):
        assert f_quantile(*args) == pytest.approx(expected, rel=1e-8, abs=0.0)

    # the beta variate y lies within about 1e-16 of 1, so f_quantile solves
    # for 1 - y; values from scipy.stats.f.ppf
    @pytest.mark.parametrize("args, expected", [
        ((0.8972058180021301, 1.240842100507698, 0.11677655026444089), 3385481100593558.5),
        ((0.9, 1.0, 0.1), 2.6992253023065646e18),
        ((0.97, 50.0, 0.2), 273855782944668.9),
    ])
    def test_beta_variate_near_one_against_scipy(self, args, expected):
        assert f_quantile(*args) == pytest.approx(expected, rel=1e-8, abs=0.0)

    def test_far_lower_tail_answered(self):
        # the Newton inversion stopped in [0.0949, 1.736] after 400 steps and
        # refused this call; the value is scipy's chi2.ppf
        assert chisq_quantile(1.8810074364994573e-178, 211.54322808487115) == pytest.approx(
            1.6889168238097987, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("p", [5e-324, 1e-310, 2.2e-308])
    def test_quantiles_refuse_a_subnormal_p(self, p):
        # such a p has fewer than 53 significant bits
        for fn, args in ((chisq_quantile, (p, 3)), (f_quantile, (p, 3, 3))):
            with pytest.raises(ArithmeticError, match="cannot be computed to 1e-8: p is subnormal"):
                fn(*args)

    @pytest.mark.parametrize("args", [(0.5, 1e-300, 3), (0.5, 1e-20, 3)])
    def test_f_quantile_whose_beta_root_is_the_least_float_is_refused(self, args):
        # the beta variate's root lies in (0, 5e-324], where df2 y / df1 is 0 to
        # 1.5e-23 and 0 to 1.5e-303; the Newton inversion returned 2.8e-14 and
        # 2.7e-299, where f_cdf is 1 minus 3e-14 and the quantile underflows
        with pytest.raises(ArithmeticError, match="root lies below the least positive float"):
            f_quantile(*args)

    def test_f_quantile_whose_beta_root_underflows_is_zero(self):
        # the root lies in (0, 5e-324], and df2 5e-324 / df1 underflows
        assert f_quantile(0.05, 1e-20, 1e-21) == scipy.stats.f.ppf(0.05, 1e-20, 1e-21) == 0.0

    # at tiny df one tail is 1 minus a tail near 1; values from scipy
    @pytest.mark.parametrize("fn, args, expected", [
        # the Newton inversion returned 0.00226
        (chisq_quantile, (0.9999999999999998, 3.3610030193921878e-149), 0.0),
        # I_y at 1 - 1e-3 rounds to 0 though it is 2e-110 > p, so the near-one
        # branch was taken and answered +inf
        (f_quantile, (5.0048993207995267e-281, 1.734579197385107e-165, 3.5522969196834217e-275),
         0.0),
        (f_quantile, (2.110773076563467e-13, 1.4450995914245297e-158, 6.777591623195208e-240),
         math.inf),
    ])
    def test_tiny_df_against_scipy(self, fn, args, expected):
        assert fn(*args) == expected

    def test_quantile_the_cdf_cannot_resolve_is_refused(self):
        # the upper tail is 1.6e-59 at every positive F, so the quantile is 0.0,
        # where scipy and the Newton inversion gave 6.3e58; the tail solved on
        # is 1 minus a tail near 1, with an error of about 2e-13
        with pytest.raises(ArithmeticError, match="rounding error there spans more than 1e-8"):
            f_quantile(0.9999999999999999, 4.594094138532574e-83, 2.884444777721164e-24)

    @pytest.mark.parametrize("fn, args", [
        (chisq_quantile, (0.5, 3)),
        (chisq_quantile, (1 - 1e-12, 0.01)),
        (chisq_quantile, (1e-300, 1e-4)),
        (chisq_quantile, (0.95, 1e7)),
        (f_quantile, (0.025, 1999, 1999)),
        (f_quantile, (0.975, 1999, 1999)),
        (f_quantile, (0.9, 1.0, 0.1)),
        (f_quantile, (2.337211554210065e-15, 0.4302742666287781, 10.557701810843925)),
        (normal_quantile, (0.975,)),
        (normal_quantile, (1e-300,)),
    ])
    def test_at_most_64_tail_evaluations(self, monkeypatch, fn, args):
        # the bisection halves a bracket of fewer than 2^63 floats, and
        # f_quantile reads two more tails to choose its branch
        calls = []
        for name in ("_gamma_tails", "_beta_tails"):
            tails = getattr(statdist, name)
            monkeypatch.setattr(statdist, name, lambda *a, tails=tails: calls.append(a) or tails(*a))
        fn(*args)
        assert 0 < len(calls) <= 64

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-310, 2.2e-308])
    def test_normal_quantile_at_a_subnormal_p(self, p):
        # exp(x^2 / 2) overflowed in the Halley step below p = 6e-311
        assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), rel=0.0, abs=1e-8)

    def test_normal_quantile_unmoved_down_to_1e_300(self):
        # from the least normal float up, the bisection on the one-df
        # chi-square tail gives these values, bit for bit
        assert normal_quantile(1e-300) == -37.0470962993612
        assert normal_quantile(sys.float_info.min) == -37.5193793471445

    @pytest.mark.parametrize("args", [
        (0.99, 1e-100, 1e-100),  # the reciprocal of a lower quantile that underflows to 0
        (0.6515926695368175, 1.3742596606145555e-58, 6.52969866407356e-272),  # 1 - y rounds to 0
    ])
    def test_f_quantile_beyond_the_float_range_is_inf(self, args):
        assert f_quantile(*args) == scipy.stats.f.ppf(*args) == math.inf

    def test_f_cdf_where_df1_x_overflows(self):
        assert f_cdf(1e308, 10, 10) == 1.0

    def test_cdfs_at_tiny_df_are_at_most_one(self):
        # the front factor, formed from lgamma near -log(shape), rounded these
        # to 1 + 2e-15 and 1 + 5e-14
        assert chisq_cdf(1.7460159584841998e-188, 6.748437634720973e-55) == 1.0
        assert f_cdf(22.757777069956465, 3.3436301348778544e-214, 1.076194272162911e-68) == 1.0

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_every_call_answers_or_cannot_be_computed(self, data):
        # in the domain a call returns a float in its range, or refuses a
        # quantile it cannot compute to 1e-8 (where the CDF's rounding error
        # spans more than 1e-8 of it, or at a subnormal p)
        p = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.sampled_from([5e-324, 1e-320, 2.2e-308, 1e-300, 1 - 1e-16]))
        df = st.floats(-300.0, 7.0, exclude_min=True).map(lambda e: 10.0**e)
        x = st.one_of(st.floats(-1e308, 1e308), st.floats(-320.0, 308.0).map(lambda e: 10.0**e))
        fn, args, lo, hi = data.draw(st.sampled_from([
            (normal_cdf, (x,), 0.0, 1.0),
            (chisq_cdf, (x, df), 0.0, 1.0),
            (f_cdf, (x, df, df), 0.0, 1.0),
            (normal_quantile, (p,), -math.inf, math.inf),
            (chisq_quantile, (p, df), 0.0, math.inf),
            (f_quantile, (p, df, df), 0.0, math.inf),
        ]))
        drawn = tuple(data.draw(arg) for arg in args)
        try:
            value = fn(*drawn)
        except ArithmeticError as exc:
            assert "cannot be computed to 1e-8" in str(exc)
            assert fn in (chisq_quantile, f_quantile)
            return
        assert type(value) is float and lo <= value <= hi
        assert math.isfinite(value) or fn is f_quantile

    def test_every_cli_threshold(self):
        # the three thresholds the bootstrap tests take, at df = B - 1, for any
        # B and alpha the CLI accepts: H2's chi-square bound at 1 - alpha and
        # H3's band (lo, 1/lo), F(df, df) being the law of its own reciprocal;
        # the sha256 of their reprs pins their bits
        reprs = []
        for B in (2, 3, 10, 2000, 10**4, 10**5, 10**6, 10**7):
            df = B - 1
            for alpha in (1e-12, 1e-6, 0.01, 0.05, 0.5, 0.9, 1 - 1e-9):
                lo = f_quantile(alpha / 2, df, df)
                for cdf, q, p in (
                    (lambda x: chisq_cdf(x, df), chisq_quantile(1 - alpha, df), 1 - alpha),
                    (lambda x: f_cdf(x, df, df), lo, alpha / 2),
                    (lambda x: f_cdf(x, df, df), 1.0 / lo, 1 - alpha / 2),
                ):
                    assert math.isfinite(q) and q > 0.0
                    assert cdf(q) == pytest.approx(p, abs=1e-7)
                    reprs.append(repr(q))
        assert len(reprs) == 168
        assert hashlib.sha256(" ".join(reprs).encode()).hexdigest() == _CLI_THRESHOLDS

    def test_every_cli_normal_threshold(self):
        # H1's z and H2's proportion band, -normal_quantile(alpha/2), for each
        # alpha of test_every_cli_threshold: its bits, as the other thresholds' are pinned
        for alpha, z in ((1e-12, 7.130506848171325), (1e-6, 4.89163847569859),
                         (0.01, 2.5758293035489004), (0.05, 1.9599639845400545),
                         (0.5, 0.6744897501960815), (0.9, 0.12566134685507396),
                         (1 - 1e-9, 1.253314101869353e-09)):
            assert -normal_quantile(alpha / 2) == z
            assert normal_cdf(-z) == pytest.approx(alpha / 2, abs=1e-7)
