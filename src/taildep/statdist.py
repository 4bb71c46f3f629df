"""CDFs and quantile functions of the normal, chi-square and F distributions.

The six public functions are normal_cdf, normal_quantile, chisq_cdf,
chisq_quantile, f_cdf and f_quantile. Self-contained implementations
(series / continued-fraction incomplete gamma and beta with safeguarded
Newton inversion) make the decision thresholds used by the bootstrap tests
bit-reproducible across platforms. The quantiles aim at 1e-8 relative or
better in both tails: above p = 1 - 0.02425 each quantile is solved on its
upper tail at 1 - p. The CDFs meet only about 3e-8 near the mode at df near
_MAX_DF, where the front factor's exponent is summed from terms near 8e7
(f_cdf(1, 1e7, 1e7) = 0.5000000150; TOMS 708's brcomp and rcomp would mend
it); the quantiles still meet 1e-8 there. The incomplete gamma and beta
pick their expansion once, in _gamma_tails or _beta_tails, and return both
tails, so an inversion reads the tail it solves, never 1 minus the other.
The series and both continued fractions share one modified-Lentz step and
one iteration budget that grows with sqrt(df).

The domain is the bootstrap's: df in (0, _MAX_DF], with ValueError naming
the bound outside it. The tests take their thresholds at df = B - 1, and
TestConfig caps B at _MAX_DF. A quantile beyond the float range is +inf,
and one below the least positive float is 0.0.
"""

from __future__ import annotations

import math
import sys

_MAX_ITER = 1000
# the largest df that the functions accept
_MAX_DF = 1e7
_EPS = 1e-15
_FPMIN = 1e-300
_TINY = 5e-324
# _invert's bisection halves [lo, hi] this many times before it halves log(hi/lo)
_ARITHMETIC_STEPS = 100
_INVERT_STEPS = 400
# above 1 - _P_LOW a quantile is taken from the tail at 1 - p, which is exact
# there (Sterbenz): a CDF rounds near 1, and an inversion on it loses digits
_P_LOW = 0.02425
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# p and df are compared before float(), which overflows on an int above 1e308

def _check_p(p: float) -> float:
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return float(p)


def _check_df(df: float, name: str = "df") -> float:
    if not (0.0 < df <= _MAX_DF):
        raise ValueError(f"{name} must lie in (0, {_MAX_DF:g}], got {df}")
    return float(df)


def _check_x(x: float) -> float:
    """A CDF's x as a float, refused if NaN; beyond the float range (an int
    that float() cannot take) it is +-inf."""
    if x != x:
        raise ValueError(f"x must be a number, got {x}")
    if abs(x) > sys.float_info.max:
        return math.inf if x > 0 else -math.inf
    return float(x)


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
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_budget(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
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
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise ArithmeticError(
        f"incomplete gamma continued fraction failed to converge (a={a}, x={x})"
    )


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """P(a, x) and Q(a, x) = 1 - P(a, x), for x >= 0: the series gives P
    below x = a + 1 and the continued fraction Q above, and the other tail is
    1 minus it. A tail is at most 1: at tiny a the front factor, formed from
    lgamma(a) near -log(a), rounds one near 1 above it."""
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if x < a + 1.0:
        lower = min(_gamma_p_series(a, x), 1.0)
        return lower, 1.0 - lower
    upper = min(_gamma_q_contfrac(a, x), 1.0)
    return 1.0 - upper, upper


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
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def _beta_tails(a: float, b: float, x: float) -> tuple[float, float]:
    """I_x(a, b) and 1 - I_x(a, b) = I_{1-x}(b, a), for 0 <= x <= 1: the
    continued fraction gives the lower tail below x = (a + 1)/(a + b + 2)
    and the upper one above, and the other tail is 1 minus it; as in
    _gamma_tails, a tail is at most 1."""
    if x <= 0.0:
        return 0.0, 1.0
    if x >= 1.0:
        return 1.0, 0.0
    # x^a (1 - x)^b / B(a, b), the front factor of both continued fractions
    front = math.exp(-_log_beta(a, b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        lower = min(front * _beta_contfrac(a, b, x) / a, 1.0)
        return lower, 1.0 - lower
    upper = min(front * _beta_contfrac(b, a, 1.0 - x) / b, 1.0)
    return 1.0 - upper, upper


# ---------------------------------------------------------------------------
# normal

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-_check_x(x) / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to ~1e-15."""
    p = _check_p(p)
    if p > 1.0 - _P_LOW:
        return -normal_quantile(1.0 - p)
    # rational initial estimate (Acklam), then two Halley refinements
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    if p < sys.float_info.min:
        # a subnormal p has too few digits for Halley steps on normal_cdf, and
        # exp(x^2 / 2) overflows there: take Newton steps on log Phi(x) = log p,
        # with log Phi(x) = -x^2/2 - log(sqrt(2 pi) v) and its derivative
        # v = phi(x)/Phi(x) from Laplace's continued fraction, exact to 1e-16 at x < -37
        log_p = math.log(p)
        for _ in range(3):
            v = -x
            for n in range(20, 0, -1):
                v = n / v - x
            x -= (-0.5 * x * x - math.log(_SQRT_2PI * v) - log_p) / v
        return x
    for _ in range(2):
        e = normal_cdf(x) - p
        u = e * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


# ---------------------------------------------------------------------------
# safeguarded Newton inversion shared by chi-square and F

def _invert(excess, log_pdf, x0: float, lo: float, hi: float) -> float:
    """Solve excess(x) = 0 by Newton iteration bracketed by bisection.

    excess is cdf(x) - p, or (1 - p) - sf(x) in an upper tail; lo/hi must
    bracket the root (excess(lo) < 0 < excess(hi)); log_pdf is the log
    density of the distribution, the derivative of excess. After
    _ARITHMETIC_STEPS the bisection is geometric, so a root far below the
    bracket's scale (an F quantile of 1e-68 in [0, 1]) is reached in few
    steps. Raises ArithmeticError rather than return an unconverged x.
    """
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    for step in range(_INVERT_STEPS):
        f = excess(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        neg_log_pdf = -log_pdf(x)
        # a density below e^-700 would overflow the Newton step; lo fails the
        # bracket test below, so such a step bisects
        x_new = x - f * math.exp(neg_log_pdf) if neg_log_pdf < 700.0 else lo
        if not (lo < x_new < hi):
            if step < _ARITHMETIC_STEPS:
                x_new = 0.5 * (lo + hi)
            else:  # the geometric mean, with the least positive float for lo = 0
                x_new = math.sqrt(max(lo, _TINY)) * math.sqrt(hi)
        if abs(x_new - x) <= 1e-14 * max(abs(x), 1e-300):
            return x_new
        x = x_new
    raise ArithmeticError(f"quantile inversion failed to converge in [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# chi-square

def chisq_cdf(x: float, df: float) -> float:
    df = _check_df(df)
    if (x := _check_x(x)) <= 0.0:
        return 0.0
    return _gamma_tails(0.5 * df, 0.5 * x)[0]


def chisq_quantile(p: float, df: float) -> float:
    """Inverse chi-square CDF via Newton on the regularized lower
    incomplete gamma (the upper one above 1 - _P_LOW), started from the
    Wilson-Hilferty approximation."""
    p = _check_p(p)
    df = _check_df(df)
    half = 0.5 * df
    z = normal_quantile(p)
    t = 2.0 / (9.0 * df)
    # a base <= 0 is not cubed: near -2e149 at df = 1e-150, its cube overflows
    base = 1.0 - t + z * math.sqrt(t)
    x0 = df * base ** 3 if base > 0.0 else 0.0
    if x0 <= 0.0:
        # solve the series' leading term, P(h, x/2) ~ (x/2)^h / Gamma(h + 1) = p
        # with h = df/2; lgamma(h + 1) -> 0 as h -> 0, so the exponent stays finite
        x0 = max(2.0 * math.exp((math.log(p) + math.lgamma(half + 1.0)) / half), 1e-300)
    upper, q = p > 1.0 - _P_LOW, 1.0 - p

    def excess(x: float) -> float:
        lower_tail, upper_tail = _gamma_tails(half, 0.5 * x)
        return q - upper_tail if upper else lower_tail - p

    try:
        log_norm = half * math.log(2.0) + math.lgamma(half)

        def log_pdf(x: float) -> float:
            return (half - 1.0) * math.log(x) - 0.5 * x - log_norm

        hi = max(2.0 * x0, df + 20.0 * math.sqrt(2.0 * df))  # an upper bracket, expanded if needed
        while excess(hi) <= 0.0:
            hi *= 2.0
        return _invert(excess, log_pdf, x0, 0.0, hi)
    except ArithmeticError as exc:
        raise ArithmeticError(f"the chi-square quantile at p = {p}, df = {df} cannot be computed "
                              f"to 1e-8: {exc}") from None


# ---------------------------------------------------------------------------
# F

def f_cdf(x: float, df1: float, df2: float) -> float:
    df1 = _check_df(df1, "df1")
    df2 = _check_df(df2, "df2")
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
    """Inverse F CDF via inversion of the regularized incomplete beta."""
    p = _check_p(p)
    df1 = _check_df(df1, "df1")
    df2 = _check_df(df2, "df2")
    if p > 1.0 - _P_LOW:
        return _ratio(1.0, f_quantile(1.0 - p, df2, df1))
    a = 0.5 * df1
    b = 0.5 * df2
    # log B(a, b) only scales the Newton steps to the beta variate's root;
    # _log_beta's order would move the last bits of some equal-df thresholds
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # above y = 1 - 1e-3 the beta variate's 1 - y loses its digits, so there
    # solve for z = 1 - y, matching p to the upper tail 1 - I_z(b, a) itself:
    # 1 - p would round away p's digits. The bootstrap thresholds never go
    # there: at df1 = df2 >= 1 and p <= 1 - _P_LOW, 1 - y >= 0.00145
    near_one = p > _beta_tails(a, b, 1.0 - 1e-3)[0]
    u, v, hi = (b, a, 1e-3) if near_one else (a, b, 1.0)

    def excess(y: float) -> float:
        lower_tail, upper_tail = _beta_tails(u, v, y)
        return p - upper_tail if near_one else lower_tail - p

    def log_pdf(y: float) -> float:
        return (u - 1.0) * math.log(y) + (v - 1.0) * math.log1p(-y) - log_norm

    try:
        y = _invert(excess, log_pdf, u / (u + v), 0.0, hi)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"the F quantile at p = {p}, df1 = {df1}, df2 = {df2} cannot be computed to 1e-8: {exc}"
        ) from None
    return _ratio(df2 * (1.0 - y), df1 * y) if near_one else _ratio(df2 * y, df1 * (1.0 - y))
