"""Self-contained special-function kernel.

Log-gamma and its ratios, and Riemann zeta.  Everything here is built from
elementary functions only, so the rest of the package carries no numerical
dependencies beyond numpy array arithmetic.  Functions that feed
probability computations (log_gamma, log_gamma_ratio, riemann_zeta) are
tuned for absolute/relative accuracy near 1e-13 in their stated domains.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "log_gamma_ratio",
    "log_gamma_ratio_array",
    "riemann_zeta",
]


# Lanczos rational approximation, g = 607/128, 15 terms.  Relative error of
# the reconstructed Gamma is below 1e-14 over the positive reals, which puts
# log_gamma within a few ulp of correctly rounded.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_TWO_PI = 0.91893853320467274178

# Above this the Stirling route below takes over from the Lanczos sum.
_STIRLING_MIN = 256.0
# ln 2 = _LN2_HI + _LN2_LO with _LN2_HI = 22713 / 2^15, so e * _LN2_HI for
# any binary exponent e carries at most 26 significant bits.
_LN2_HI = 0.693145751953125
_LN2_LO = 1.4286068203094173e-06


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Uses the Lanczos expansion; arguments below 1/2 go through the
    reflection formula so small x stays fully accurate.  Absolute error is
    at or below 1e-12 wherever ln Gamma(x) itself is small enough for that
    to be representable; elsewhere the result is correct to a few ulp.
    From x = 256 on, the Stirling route is within one ulp.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x >= _STIRLING_MIN:
        return _log_gamma_stirling(x)
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    xm1 = x - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return (xm1 + 0.5) * math.log(t) - t + _HALF_LOG_TWO_PI + math.log(s)


def _log_gamma_stirling(x: float) -> float:
    """(x - 1/2) ln x - x + ln(2 pi)/2 + 1/(12x) - 1/(360x^3) + 1/(1260x^5).

    The Lanczos main term rounds ln(x + 4.2) and a product about 1.1 times
    ln Gamma(x) before cancelling it against x, which costs up to 3 ulp.
    Here ln x = e ln 2 + log1p(m - 1) with x = m 2^e, m in [sqrt(1/2),
    sqrt(2)); the dominant product x e _LN2_HI is formed exactly as the
    sum of two products that fit in 53 bits, and math.fsum adds every part with one
    rounding, so the rounded remainder (about x/13 at most) adds well
    under 0.1 ulp.  The series tail past 1/(1260x^5) is below 1e-20.
    """
    if x == math.inf:
        return math.inf
    m, e = math.frexp(x)
    if m < 0.7071067811865476:
        m *= 2.0
        e -= 1
    big = e * _LN2_HI
    # x = x_hi + x_lo exactly, x_hi with 26 significant bits, x_lo with 27
    x_lo = math.fmod(x, math.ldexp(1.0, math.frexp(x)[1] - 26))
    x_hi = x - x_lo
    r = 1.0 / (x * x)
    series = (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / x
    rest = (x - 0.5) * (math.log1p(m - 1.0) + e * _LN2_LO)
    return math.fsum((x_hi * big, x_lo * big, -0.5 * big, rest, -x, _HALF_LOG_TWO_PI, series))


# Bernoulli numbers B_2, B_4, ..., B_16 for Euler-Maclaurin / Stirling tails.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def log_gamma_ratio(m: float, p: float) -> float:
    """ln[Gamma(m - p) / Gamma(m)] for m >= 1, 0 < p < 1.

    For large m the two log-gamma values grow like m ln m and their float64
    difference would lose absolute precision, so beyond m = 30 the ratio is
    evaluated directly from the difference of Stirling series, keeping every
    intermediate O(1):

        ln Gamma(m-p) - ln Gamma(m)
            = (m - p - 1/2) log1p(-p/m) - p ln m + p + Bernoulli tail.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"log_gamma_ratio requires p in (0,1), got {p!r}")
    if not m - p > 0.0:
        raise ValueError(f"log_gamma_ratio requires m - p > 0, got m={m!r}, p={p!r}")
    if m < 30.0:
        return log_gamma(m - p) - log_gamma(m)
    return _stirling_ratio(float(m), p, math.log1p, math.log)


def log_gamma_ratio_array(m: np.ndarray, p: float) -> np.ndarray:
    """Array form of `log_gamma_ratio` for m >= 30, 0 < p < 1.

    The same Stirling difference, evaluated with numpy's log1p and log, so
    a value can differ from the scalar one by an ulp or two; the scalar
    stays the route for single values.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"log_gamma_ratio_array requires p in (0,1), got {p!r}")
    x = np.asarray(m, dtype=np.float64)
    if not (x >= 30.0).all():
        raise ValueError("log_gamma_ratio_array requires every m >= 30")
    return _stirling_ratio(x, p, np.log1p, np.log)


def _stirling_ratio(x, p, log1p, log):
    # ln Gamma(x - p) - ln Gamma(x) from the difference of Stirling series;
    # x is a float or an array, with the matching log1p and log
    d = (x - p - 0.5) * log1p(-p / x) - p * log(x) + p
    for k, b2k in enumerate(_BERNOULLI, start=1):
        d += b2k / ((2 * k) * (2 * k - 1)) * ((x - p) ** (1 - 2 * k) - x ** (1 - 2 * k))
    return d


def riemann_zeta(s: float, start: int = 1) -> float:
    """Riemann zeta on (0, 1) and (1, inf) by Euler-Maclaurin summation.

    Returns sum_{k>=start} k^-s (analytically continued below s = 1), so
    start = 2 gives zeta(s) - 1 without cancelling the leading 1; start must
    lie in 1..23.  Splits the Dirichlet series at N = 24 and corrects with
    eight Bernoulli terms; the standard remainder bound
    |R| <= |next term| (s+2M+1)/(s+1) is evaluated explicitly and must come
    in below 1e-13, otherwise a ValueError flags the argument as outside the
    certified region (does not happen for s in the stated domain).
    """
    if not s > 0.0:
        raise ValueError(f"riemann_zeta requires s > 0, got {s!r}")
    if s == 1.0:
        raise ValueError("riemann_zeta has a pole at s = 1")
    n_split = 24
    if not 1 <= start < n_split:
        raise ValueError(f"riemann_zeta requires start in 1..{n_split - 1}, got {start!r}")
    total = 0.0
    comp = 0.0
    for k in range(start, n_split):
        term = float(k) ** (-s)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    total += n_split ** (1.0 - s) / (s - 1.0) + 0.5 * n_split ** (-s)
    if n_split ** (-s) == 0.0:
        # every correction below is then exactly zero; stopping here also
        # keeps an overflowing Pochhammer product from turning it into NaN
        return total
    poch = s  # (s)_{2i-1} running product, starts at (s)_1
    fact = 2.0  # (2i)! running product
    for i, b2i in enumerate(_BERNOULLI, start=1):
        total += b2i / fact * poch * n_split ** (-s - 2 * i + 1)
        poch *= (s + 2 * i - 1) * (s + 2 * i)
        fact *= (2 * i + 1) * (2 * i + 2)
    # first omitted term uses B_18 = 43867/798
    m_used = len(_BERNOULLI)
    next_term = abs(43867.0 / 798.0 / fact * poch * n_split ** (-s - 2 * m_used - 1))
    remainder = next_term * (s + 2 * m_used + 1) / (s + 1.0)
    if remainder > 1e-13:
        raise ValueError(f"riemann_zeta remainder bound {remainder:.2e} too large at s={s!r}")
    return total

