"""Quantile functions for the normal, chi-square and F distributions.

Self-contained implementations (series / continued-fraction incomplete
gamma and beta with safeguarded Newton inversion) so that the decision
thresholds used by the bootstrap tests are bit-reproducible across
platforms. Accuracy target is 1e-8 relative or better.
"""

from __future__ import annotations

import math

_MAX_ITER = 1000
_EPS = 1e-15
_FPMIN = 1e-300
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return p


def _check_df(df: float, name: str = "df") -> float:
    df = float(df)
    if not (df > 0.0) or not math.isfinite(df):
        raise ValueError(f"{name} must be positive, got {df}")
    return df


# ---------------------------------------------------------------------------
# regularized incomplete gamma

def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
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
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise ArithmeticError(
        f"incomplete gamma continued fraction failed to converge (a={a}, x={x})"
    )


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


# ---------------------------------------------------------------------------
# regularized incomplete beta

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
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shapes must be positive, got a={a}, b={b}")
    if x <= 0.0:
        if x < 0.0:
            raise ValueError(f"argument must lie in [0, 1], got {x}")
        return 0.0
    if x >= 1.0:
        if x > 1.0:
            raise ValueError(f"argument must lie in [0, 1], got {x}")
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# normal

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-float(x) / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to ~1e-15."""
    p = _check_p(p)
    p_low = 0.02425
    if p > 1.0 - p_low:
        # 1 - p is exact (Sterbenz); Halley steps near a CDF of 1 lose digits
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
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    for _ in range(2):
        e = normal_cdf(x) - p
        u = e * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


# ---------------------------------------------------------------------------
# safeguarded Newton inversion shared by chi-square and F

def _invert(cdf, log_pdf, p: float, x0: float, lo: float, hi: float) -> float:
    """Solve cdf(x) = p by Newton iteration bracketed by bisection.

    lo/hi must bracket the root (cdf(lo) < p < cdf(hi)); log_pdf is the
    log density of the distribution.
    """
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        f = cdf(x) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        step = f * math.exp(-log_pdf(x))
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-14 * max(abs(x), 1e-300):
            return x_new
        x = x_new
    return x


# ---------------------------------------------------------------------------
# chi-square

def chisq_cdf(x: float, df: float) -> float:
    df = _check_df(df)
    if x <= 0.0:
        return 0.0
    return gamma_p(0.5 * df, 0.5 * x)


def chisq_quantile(p: float, df: float) -> float:
    """Inverse chi-square CDF via Newton on the regularized lower
    incomplete gamma, started from the Wilson-Hilferty approximation."""
    p = _check_p(p)
    df = _check_df(df)
    z = normal_quantile(p)
    t = 2.0 / (9.0 * df)
    x0 = df * (1.0 - t + z * math.sqrt(t)) ** 3
    if x0 <= 0.0:
        x0 = df * math.exp((math.log(p) + math.lgamma(0.5 * df) +
                            0.5 * df * math.log(2.0)) / (0.5 * df)) / 2.0
        x0 = max(x0, 1e-300)
    # expand an upper bracket if needed
    hi = max(2.0 * x0, df + 20.0 * math.sqrt(2.0 * df))
    while chisq_cdf(hi, df) <= p:
        hi *= 2.0
    half = 0.5 * df
    log_norm = half * math.log(2.0) + math.lgamma(half)

    def log_pdf(x: float) -> float:
        return (half - 1.0) * math.log(x) - 0.5 * x - log_norm

    return _invert(lambda x: chisq_cdf(x, df), log_pdf, p, x0, 0.0, hi)


# ---------------------------------------------------------------------------
# F

def f_cdf(x: float, df1: float, df2: float) -> float:
    df1 = _check_df(df1, "df1")
    df2 = _check_df(df2, "df2")
    if x <= 0.0:
        return 0.0
    return beta_inc(0.5 * df1, 0.5 * df2, df1 * x / (df1 * x + df2))


def f_quantile(p: float, df1: float, df2: float) -> float:
    """Inverse F CDF via inversion of the regularized incomplete beta."""
    p = _check_p(p)
    df1 = _check_df(df1, "df1")
    df2 = _check_df(df2, "df2")
    a = 0.5 * df1
    b = 0.5 * df2
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def log_pdf(y: float) -> float:
        return (a - 1.0) * math.log(y) + (b - 1.0) * math.log1p(-y) - log_norm

    y = _invert(lambda y: beta_inc(a, b, y), log_pdf, p, a / (a + b), 0.0, 1.0)
    return df2 * y / (df1 * (1.0 - y))
