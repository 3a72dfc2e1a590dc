"""Special functions the distribution code needs beyond the standard library.

The log-gamma ratio ln[Gamma(m - p) / Gamma(m)] and the power sum
sum_{k=start}^{stop} k^-s, which is Riemann zeta at stop = inf.  Log-gamma
itself is `math.lgamma`; past m = 30 the ratio comes from the difference of
two Stirling series, which keeps its absolute accuracy where the two
log-gamma values would cancel.  Both functions feed probability computations
and are tuned for absolute/relative accuracy near 1e-13 in their stated
domains.
"""

from __future__ import annotations

import itertools
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


def log_gamma_ratio(m: float, p: float) -> float:
    """ln[Gamma(m - p) / Gamma(m)] for m >= 1, 0 < p < 1.

    For large m the two log-gamma values grow like m ln m and their float64
    difference would lose absolute precision, so beyond m = 30 the ratio is
    evaluated directly from the difference of Stirling series, keeping every
    intermediate O(1):

        ln Gamma(m-p) - ln Gamma(m)
            = (m - p - 1/2) log1p(-p/m) - p ln m + p + Bernoulli tail.

    Below m = 30 it is the difference of two `math.lgamma` values.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"log_gamma_ratio requires p in (0,1), got {p!r}")
    if not m - p > 0.0:
        raise ValueError(f"log_gamma_ratio requires m - p > 0, got m={m!r}, p={p!r}")
    if m < 30.0:
        return math.lgamma(m - p) - math.lgamma(m)
    x = float(m)
    d = (x - p - 0.5) * math.log1p(-p / x) - p * math.log(x) + p
    for k, b2k in enumerate(_BERNOULLI, start=1):
        d += b2k / ((2 * k) * (2 * k - 1)) * ((x - p) ** (1 - 2 * k) - x ** (1 - 2 * k))
    return d


def riemann_zeta(s: float, start: int = 1, stop=math.inf):
    """The power sum sum_{k=start}^{stop} k^-s by Euler-Maclaurin summation.

    With stop = inf (the default) this is Riemann zeta on (0, 1) and
    (1, inf), analytically continued below s = 1; start = 2 gives
    zeta(s) - 1 without cancelling the leading 1, and a large start gives
    the Hurwitz tail zeta(s, start).  A finite stop, a float or an array,
    must be at least N = max(24, start); then any s > 0 is allowed, s = 1
    included, and an array stop gives an array of sums.

    The terms below N are summed with math.fsum.  The rest is the integral
    of x^-s from N to stop, N^(1-s) expm1((1-s) ln(stop/N)) / (1-s) (or
    ln(stop/N) at s = 1; N^(1-s) / (s-1) to infinity), the two half end
    terms and eight Bernoulli corrections, each the difference of its value
    at N and at stop (zero at stop = inf).  The standard remainder bound at
    N, |R| <= |next term| (s+2M+1)/(s+1), is evaluated explicitly and must
    come in below 1e-13, otherwise a ValueError flags the argument as
    outside the certified region (does not happen for s in the stated
    domain).
    """
    infinite = not isinstance(stop, np.ndarray) and stop == math.inf
    if not s > 0.0 or s == 1.0 and infinite:
        raise ValueError(f"riemann_zeta requires s > 0, and s != 1 if stop = inf; got {s!r}")
    n_split = max(24, start)
    if start < 1 or not (infinite or np.all(stop >= n_split)):
        raise ValueError("riemann_zeta requires 1 <= start and max(24, start) <= stop")
    # hoisted out of the loops below (an improper mass makes ~20 calls), and a
    # float, as an int s would raise on an int64 array stop
    minus_s = -float(s)
    total = math.fsum([k**minus_s for k in range(start, n_split)])
    c = 1.0 - s
    if infinite:
        integral = n_split**c / (s - 1.0)
    else:  # ln(stop / N), which is the integral at s = 1
        integral = np.log1p((stop - n_split) / n_split)
        integral = n_split**c * np.expm1(c * integral) / c if c else integral
    near, far = n_split**minus_s, stop**minus_s
    total += integral + 0.5 * near + 0.5 * far
    if near == 0.0:
        # every correction below is then exactly zero; stopping here also
        # keeps an overflowing Pochhammer product from turning it into NaN
        return total
    # running products (s)_{k-1} and k!, and the stop end's stop^(-s-k+1)
    poch, fact, far, shrink = s, 2.0, far / stop, stop**-2.0
    for k, b_k in zip(itertools.count(2, 2), _BERNOULLI):
        total += b_k / fact * poch * (n_split ** (minus_s - k + 1) - far)
        far *= shrink
        poch *= (s + k - 1) * (s + k)
        fact *= (k + 1) * (k + 2)
    # first omitted term uses B_18 = 43867/798; k = 16 is the last one used
    next_term = abs(43867.0 / 798.0 / fact * poch * n_split ** (minus_s - k - 1))
    remainder = next_term * (s + k + 1) / (s + 1.0)
    if remainder > 1e-13:
        raise ValueError(f"riemann_zeta remainder bound {remainder:.2e} too large at s={s!r}")
    return total

