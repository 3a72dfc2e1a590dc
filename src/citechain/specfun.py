"""Special functions the distribution code needs beyond the standard library.

The log-gamma ratio ln[Gamma(m - p) / Gamma(m)] and Riemann zeta.  Log-gamma
itself is `math.lgamma`; past m = 30 the ratio comes from the difference of
two Stirling series, which keeps its absolute accuracy where the two
log-gamma values would cancel.  Both functions feed probability computations
and are tuned for absolute/relative accuracy near 1e-13 in their stated
domains.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma_ratio",
    "riemann_zeta",
]


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


def log_gamma_ratio(m, p: float):
    """ln[Gamma(m - p) / Gamma(m)] for m >= 1, 0 < p < 1; m a float or an array.

    For large m the two log-gamma values grow like m ln m and their float64
    difference would lose absolute precision, so beyond m = 30 the ratio is
    evaluated directly from the difference of Stirling series, keeping every
    intermediate O(1):

        ln Gamma(m-p) - ln Gamma(m)
            = (m - p - 1/2) log1p(-p/m) - p ln m + p + Bernoulli tail.

    A float m below 30 takes `math.lgamma`.  An array takes only the
    Stirling route, so every m must be >= 30; with numpy's log1p and log an
    entry can differ from the float result by an ulp or two.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"log_gamma_ratio requires p in (0,1), got {p!r}")
    if isinstance(m, np.ndarray):
        if not (m >= 30.0).all():
            raise ValueError("log_gamma_ratio requires every array m >= 30")
        return _stirling_ratio(np.asarray(m, dtype=np.float64), p, np.log1p, np.log)
    if not m - p > 0.0:
        raise ValueError(f"log_gamma_ratio requires m - p > 0, got m={m!r}, p={p!r}")
    if m < 30.0:
        return math.lgamma(m - p) - math.lgamma(m)
    return _stirling_ratio(float(m), p, math.log1p, math.log)


def _stirling_ratio(x, p, log1p, log):
    # ln Gamma(x - p) - ln Gamma(x) from the difference of Stirling series;
    # x is a float or an array, with the matching log1p and log
    d = (x - p - 0.5) * log1p(-p / x) - p * log(x) + p
    for k, b2k in enumerate(_BERNOULLI, start=1):
        d += b2k / ((2 * k) * (2 * k - 1)) * ((x - p) ** (1 - 2 * k) - x ** (1 - 2 * k))
    return d


def riemann_zeta(s: float, start: int = 1) -> float:
    """Riemann zeta on (0, 1) and (1, inf) by Euler-Maclaurin summation.

    Returns sum_{k>=start} k^-s (analytically continued below s = 1) for
    any integer start >= 1, so start = 2 gives zeta(s) - 1 without
    cancelling the leading 1, and a large start gives the Hurwitz tail
    zeta(s, start).  The terms below N = max(24, start) are summed with
    math.fsum, and the rest is the Euler-Maclaurin tail at N with eight
    Bernoulli terms; the standard remainder bound
    |R| <= |next term| (s+2M+1)/(s+1) is evaluated explicitly and must come
    in below 1e-13, otherwise a ValueError flags the argument as outside the
    certified region (does not happen for s in the stated domain).
    """
    if not s > 0.0:
        raise ValueError(f"riemann_zeta requires s > 0, got {s!r}")
    if s == 1.0:
        raise ValueError("riemann_zeta has a pole at s = 1")
    if start < 1:
        raise ValueError(f"riemann_zeta requires start >= 1, got {start!r}")
    n_split = max(24, start)
    total = math.fsum(float(k) ** -s for k in range(start, n_split))
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

