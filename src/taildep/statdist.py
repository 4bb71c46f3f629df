"""CDFs and quantile functions of the normal, chi-square and F distributions.

The six public functions are normal_cdf, normal_quantile, chisq_cdf,
chisq_quantile, f_cdf and f_quantile. Self-contained series and
continued-fraction incomplete gamma and beta make the decision thresholds
used by the bootstrap tests bit-reproducible across platforms. They pick
their expansion once, in _gamma_tails or _beta_tails, and return both tails
with their absolute error and derivative in log x. Every quantile is the
least float at which a computed tail reaches its target, found by bisecting
the floats' bit patterns in at most 64 tail evaluations: exact to the float
grid, so it cannot stall. A chi-square or F quantile solves CDF = p, on the
upper tail at 1 - p above p = 1 - 0.02425; a normal quantile is +-sqrt(2t)
at the root t of the one-df chi-square tail of |Z|. The one exception is the
normal quantile at a subnormal p, which has too few digits to bisect on; a
chi-square or F quantile is refused there (ArithmeticError, "... cannot be
computed to 1e-8"), and where the CDF's rounding error spans more than 1e-8
of it. The CDFs meet only about 3e-8 near the mode at df near _MAX_DF, where
the front factor's exponent is summed from terms near 8e7
(f_cdf(1, 1e7, 1e7) = 0.5000000150); the quantiles still meet 1e-8 there.

The domain is the bootstrap's: df in (0, _MAX_DF], with ValueError
naming the bound outside it, and a subnormal df refused by name. An
argument that is not a number (a str, None, a complex) is refused by a
ValueError that names it. The tests take their thresholds at df = B - 1,
and TestConfig caps B at _MAX_DF. A quantile beyond the float range is
+inf, and one below the least positive float 0.0.
"""

from __future__ import annotations

import math
import struct
import sys

from taildep.tail_core import _shown

_MAX_ITER = 1000
# the largest df that the functions accept
_MAX_DF = 1e7
_EPS = 1e-15
_FPMIN = 1e-300
_LEAST = math.ulp(0.0)
# a float's bits, and the int64 they read as
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")
# above 1 - _P_LOW a chi-square or F quantile is taken from the tail at 1 - p, exact
# there (Sterbenz): a CDF rounds near 1, and an inversion on it loses digits
_P_LOW = 0.02425
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# p and df are compared before float(), which overflows on an int above 1e308

def _number(name: str, value) -> None:
    """Refuse, naming it, a value that does not compare with a float, as a
    str, None or a complex does; every real number compares: an int beyond
    the float range, a numpy scalar, a Fraction, a Decimal."""
    try:
        value < 0.0
    except TypeError:
        raise ValueError(f"{name} must be a number, got {_shown(value)}") from None


def _check_p(p: float, what: str = "") -> float:
    _number("p", p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    # a subnormal p has fewer than 53 significant bits to solve a quantile on
    if what and p < sys.float_info.min:
        raise ArithmeticError(f"{what} cannot be computed to 1e-8: p is subnormal")
    return float(p)


def _check_df(df: float, name: str = "df") -> float:
    _number(name, df)
    if not (0.0 < df <= _MAX_DF):
        raise ValueError(f"{name} must lie in (0, {_MAX_DF:g}], got {df}")
    # a subnormal df has fewer than 53 significant bits: it broke the series
    if df < sys.float_info.min:
        raise ValueError(f"{name} must not be subnormal, got {df}")
    return float(df)


def _check_x(x: float) -> float:
    """A CDF's x as a float, refused if NaN; beyond the float range (an int
    that float() cannot take) it is +-inf."""
    _number("x", x)
    if x != x:
        raise ValueError(f"x must be a number, got {x}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _budget(shape: float) -> int:
    # Near the mode the series terms shrink like exp(-i^2 / 2a) and the
    # continued fractions take O(sqrt(shape)) steps, so the budget grows
    # with sqrt(shape); 10 sqrt(a) series terms reach exp(-50)
    return _MAX_ITER + int(10.0 * math.sqrt(shape))


def _lentz(an: float, b: float, c: float, d: float) -> tuple[float, float]:
    """One modified-Lentz step of a continued fraction with partial
    numerator an and denominator b: the new C and 1/D, both kept off 0."""
    d = an * d + b
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = b + an / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    return c, 1.0 / d


# ---------------------------------------------------------------------------
# regularized incomplete gamma

def _gamma_p_series(a: float, x: float) -> float:
    # 1 + x/(a + 1) + x^2/((a + 1)(a + 2)) + ..., P(a, x) Gamma(a + 1) e^x / x^a
    ap = a
    term = total = 1.0
    for _ in range(_budget(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ArithmeticError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _gamma_q_contfrac(a: float, x: float) -> float:
    # modified Lentz evaluation of the upper-tail continued fraction
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _budget(a)):
        b += 2.0
        c, d = _lentz(-i * (i - a), b, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete gamma continued fraction failed to converge (a={a}, x={x})")


def _gamma_tails(a: float, x: float) -> tuple[float, float, float, float]:
    """P(a, x), Q(a, x) = 1 - P(a, x), their absolute error and x dP/dx, for
    x >= 0: the series gives P (at most 1) below x = a + 1 and the continued
    fraction Q above, and the other tail is 1 minus it. The series' front
    factor x^a e^-x / Gamma(a + 1) is x dP/dx over a: at tiny a, lgamma(a)
    ~ -log(a) would round the exponent at its size, and P near 1 with it."""
    if x == 0.0:
        return 0.0, 1.0, 0.0, 0.0
    if x == math.inf:
        return 1.0, 0.0, 0.0, 0.0
    series = x < a + 1.0
    log_x, lgamma_a = math.log(x), math.lgamma(a + 1.0 if series else a)
    front = math.exp(-x + a * log_x - lgamma_a)
    # each term of the exponent rounds at most _EPS of its size, and the
    # expansion stops at _EPS; 1 minus the tail has the same absolute error
    rho = _EPS * (1.0 + x + abs(a * log_x) + abs(lgamma_a))
    if series:
        lower = min(_gamma_p_series(a, x) * front, 1.0)
        return lower, 1.0 - lower, rho * lower, a * front
    upper = min(front * _gamma_q_contfrac(a, x), 1.0)
    return 1.0 - upper, upper, rho * upper, front


# ---------------------------------------------------------------------------
# regularized incomplete beta

def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) by Stirling's
    series, for x >= 1e3, where the terms past 1/(1260 x^5) are below 1e-24."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b).

    Where the larger shape is at least 1e3 and 1e3 times the smaller, the
    difference lgamma(a + b) - lgamma(big) of two values near big log big
    would lose their digits; there it is small log big + (a + b - 1/2)
    log1p(small/big) - small plus the difference of Stirling's series tails,
    the cancellation-free form of TOMS 708's algdiv (DiDonato & Morris 1992).
    Elsewhere it is the lgamma difference, negated exactly from the order
    lgamma(a + b) - lgamma(a) - lgamma(b) that the F thresholds' bits rest on.
    """
    small, big = min(a, b), max(a, b)
    if big >= 1e3 and small <= big / 1e3:
        gap = (small * math.log(big) + (a + b - 0.5) * math.log1p(small / big) - small
               + _stirling_tail(a + b) - _stirling_tail(big))
        return math.lgamma(small) - gap
    return math.lgamma(b) - (math.lgamma(a + b) - math.lgamma(a))


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _budget(max(a, b))):
        m2 = 2 * m
        c, d = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= d * c
        c, d = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge "
                          f"(a={a}, b={b}, x={x})")


def _beta_tails(a: float, b: float, x: float) -> tuple[float, float, float, float]:
    """I_x(a, b), 1 - I_x(a, b) = I_{1-x}(b, a), their absolute error and
    F dI/dF, for 0 <= x <= 1: the continued fraction gives the lower tail
    below x = (a + 1)/(a + b + 2) and the upper one above, and the other tail
    is 1 minus it, as in _gamma_tails. The front factor x^a (1 - x)^b / B(a, b)
    is F dI/dF in the F variate F = (b/a) x / (1 - x)."""
    if x <= 0.0:
        return 0.0, 1.0, 0.0, 0.0
    if x >= 1.0:
        return 1.0, 0.0, 0.0, 0.0
    log_beta, log_x, log1m_x = _log_beta(a, b), math.log(x), math.log1p(-x)
    front = math.exp(-log_beta + a * log_x + b * log1m_x)
    rho = _EPS * (1.0 + abs(log_beta) + abs(a * log_x) + abs(b * log1m_x))
    if x < (a + 1.0) / (a + b + 2.0):
        lower = min(front * _beta_contfrac(a, b, x) / a, 1.0)
        return lower, 1.0 - lower, rho * lower, front
    upper = min(front * _beta_contfrac(b, a, 1.0 - x) / b, 1.0)
    return 1.0 - upper, upper, rho * upper, front


# ---------------------------------------------------------------------------
# normal

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-_check_x(x) / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: +-sqrt(2t) at the least float t at which
    the one-df chi-square tail of |Z| reaches 2 min(p, 1 - p): Q(1/2, t)
    falls to it below 1/4, and P(1/2, t) rises to 1 minus it above."""
    p = _check_p(p)
    if p < sys.float_info.min:
        # a subnormal p has too few digits to bisect on: take Newton steps on
        # log Phi(x) = log p, with log Phi(x) = -x^2/2 - log(sqrt(2 pi) v) and its derivative
        # v = phi(x)/Phi(x) from Laplace's continued fraction, exact to 1e-16 at x < -37
        log_p = math.log(p)
        x = -math.sqrt(-2.0 * log_p)
        for _ in range(4):
            v = -x
            for n in range(20, 0, -1):
                v = n / v - x
            x -= (-0.5 * x * x - math.log(_SQRT_2PI * v) - log_p) / v
        return x
    if p == 0.5:
        return 0.0
    # 1 - p and 2q are exact, and so is 1 - 2q from q = 1/4 up (Sterbenz)
    two_q = 2.0 * min(p, 1.0 - p)
    upper = two_q < 0.5
    z = _solve(f"the normal quantile at p = {p}", lambda t: _gamma_tails(0.5, t), upper,
               two_q if upper else 1.0 - two_q, sys.float_info.max, lambda t: math.sqrt(2.0 * t))
    return z if p > 0.5 else -z


# ---------------------------------------------------------------------------
# bisection on the float grid, shared by every quantile

def _solve(what: str, tails, upper: bool, target: float, hi: float, quantile) -> float:
    """quantile(root) at the least float root in (0, hi] at which the computed
    tails(x) reach target: the lower tail rises to it, or the upper falls to
    it, at the root and not at 0; refused unless known to 1e-8.

    The non-negative floats are ordered by their bit patterns read as
    integers, so halving the integer bracket ends at two adjacent floats after
    at most 64 evaluations. An end whose tail is within its error of target
    blurs the root by (error - |tail - target|) / front, relative. A root at
    the least positive float lies anywhere in (0, root]: quantile(0) is kept
    where it and quantile(root) are both below the least normal float or inf."""
    ends, blur = [0, _BITS.unpack(_FLOAT.pack(hi))[0]], [0.0, 0.0]  # 0.0's bits are 0
    while ends[1] - ends[0] > 1:
        mid = (ends[0] + ends[1]) // 2
        lower, upper_tail, error, front = tails(_FLOAT.unpack(_BITS.pack(mid))[0])
        value = target - upper_tail if upper else lower - target
        end = int(value >= 0.0)
        ends[end], blur[end] = mid, (error - abs(value)) / front if error > abs(value) else 0.0
    root = _FLOAT.unpack(_BITS.pack(ends[1]))[0]
    if root > _LEAST:
        if max(blur) <= 1e-8:
            return quantile(root)
        why = "the CDF's rounding error there spans more than 1e-8 of it"
    else:
        bounds = quantile(0.0), quantile(root)
        if max(bounds) < sys.float_info.min or min(bounds) == math.inf:
            return bounds[0]
        why = "its root lies below the least positive float"
    raise ArithmeticError(f"{what} cannot be computed to 1e-8: {why}")


# ---------------------------------------------------------------------------
# chi-square

def chisq_cdf(x: float, df: float) -> float:
    df = _check_df(df)
    if (x := _check_x(x)) <= 0.0:
        return 0.0
    return _gamma_tails(0.5 * df, 0.5 * x)[0]


def chisq_quantile(p: float, df: float) -> float:
    """Inverse chi-square CDF: twice the least float t at which P(df/2, t)
    (Q above 1 - _P_LOW) reaches p."""
    what = f"the chi-square quantile at p = {p}, df = {df}"
    p = _check_p(p, what)
    half = 0.5 * _check_df(df)
    upper = p > 1.0 - _P_LOW
    return _solve(what, lambda t: _gamma_tails(half, t), upper, 1.0 - p if upper else p,
                  sys.float_info.max, lambda t: 2.0 * t)


# ---------------------------------------------------------------------------
# F

def f_cdf(x: float, df1: float, df2: float) -> float:
    df1, df2 = _check_df(df1, "df1"), _check_df(df2, "df2")
    if (x := _check_x(x)) <= 0.0:
        return 0.0
    # where df1 x overflows (x = inf too) the beta variate is 1 to double precision
    if (y := df1 * x) == math.inf:
        return 1.0
    return _beta_tails(0.5 * df1, 0.5 * df2, y / (y + df2))[0]


def _ratio(num: float, den: float) -> float:
    """num / den for num > 0, +inf where den rounds to 0 (at tiny df the beta
    variate can round to 0 or 1)."""
    return num / den if den > 0.0 else math.inf


def f_quantile(p: float, df1: float, df2: float) -> float:
    """Inverse F CDF: F at the least float root y of I_y(df1/2, df2/2) = p (1 - y near 1)."""
    what = f"the F quantile at p = {p}, df1 = {df1}, df2 = {df2}"
    p = _check_p(p, what)
    df1, df2 = _check_df(df1, "df1"), _check_df(df2, "df2")
    if p > 1.0 - _P_LOW:
        return _ratio(1.0, f_quantile(1.0 - p, df2, df1))
    a, b = 0.5 * df1, 0.5 * df2
    # above y = 1 - 1e-3 the beta variate's 1 - y loses its digits, so there
    # solve for z = 1 - y, matching p to the upper tail 1 - I_z(b, a) itself:
    # 1 - p would round away p's digits. The bootstrap thresholds never go
    # there: at df1 = df2 >= 1 and p <= 1 - _P_LOW, 1 - y >= 0.00145. Above
    # y = (a + 1)/(a + b + 2) I_y(a, b) is 1 minus the upper tail and can round
    # to 0; just below, where it is computed itself, it is no greater
    split = math.nextafter(min((a + 1.0) / (a + b + 2.0), 1.0 - 1e-3), 0.0)
    near_one = p > max(_beta_tails(a, b, split)[0], _beta_tails(a, b, 1.0 - 1e-3)[0])
    u, v, hi = (b, a, 1e-3) if near_one else (a, b, 1.0)

    def quantile(y: float) -> float:
        return _ratio(df2 * (1.0 - y), df1 * y) if near_one else _ratio(df2 * y, df1 * (1.0 - y))

    return _solve(what, lambda y: _beta_tails(u, v, y), near_one, p, hi, quantile)
