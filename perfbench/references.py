"""Reference values for every law the benchmark checks, computed apart from
citechain.

Nothing here imports citechain.  Each law is evaluated by a route other than
the program's own: extended-precision prefix sums for the trial-chain
tails, mpmath's zeta for the improper mass, `math.lgamma` for the
growing chain, the three-term recurrence of the author generating function in
mpmath, and `statistics` for the listing report.  Log probabilities are the
common currency; `-inf` means an exact zero.
"""

from __future__ import annotations

import math
import statistics

import mpmath
import numpy as np

# -- trial chain: success probability p / k^gamma at trial k -----------------

if np.finfo(np.longdouble).eps > 1e-18:
    raise ImportError("the references need an extended-precision numpy.longdouble")


def log_tail_table(p: float, gamma: float, m_max: int) -> np.ndarray:
    """ln P{X >= m} = sum_{k<m} ln(1 - p/k^gamma) for m = 1..m_max.

    The terms and their running sum are formed in extended precision
    (64-bit mantissa), so every entry is within a rounding of the exact
    value at m = 1e6; math.fsum and mpmath agree with it in the tests.
    The gamma = 1 closed form Gamma(m-p)/(Gamma(m) Gamma(1-p)) is not used
    through scipy: `poch(m, -p)` was measured 1.3e-11 off in log at m = 8430,
    and a difference of two `gammaln` values loses about 4e-9 at m = 1e6.
    """
    if gamma == 0.0:
        return np.arange(m_max, dtype=np.float64) * math.log1p(-p)
    k = np.arange(1, m_max, dtype=np.longdouble)
    terms = np.log1p(-np.longdouble(p) * k ** -np.longdouble(gamma))
    return np.concatenate(([0.0], np.cumsum(terms).astype(np.float64)))


def trial_log_pmf(p: float, gamma: float, log_tail_n: float, n: int) -> float:
    """ln P{X = n} = ln P{X >= n} + ln(p / n^gamma)."""
    return log_tail_n + math.log(p) - gamma * math.log(n)


def improper_mass(p: float, gamma: float, dps: int = 30) -> float:
    """P{X = inf} = prod_k (1 - p/k^gamma) for gamma > 1, in mpmath.

    The k = 1 factor is taken exactly and the rest expanded:
    -ln prod = -ln(1-p) + sum_j (p^j / j)(zeta(gamma j) - 1).  Successive
    terms shrink by at least p 2^-gamma < 1/2, so the series converges for
    every p < 1.
    """
    if not gamma > 1.0:
        return 0.0
    with mpmath.workdps(dps):
        p_ = mpmath.mpf(p)
        g = mpmath.mpf(gamma)
        total = -mpmath.log1p(-p_)
        eps = mpmath.mpf(10) ** (-dps)
        j = 1
        while True:
            term = p_**j / j * (mpmath.zeta(g * j) - 1)
            total += term
            if term < eps * total:
                break
            j += 1
        return float(mpmath.exp(-total))


def log_shape(p: float, gamma: float, n: int) -> float:
    """Log of the shape that pmf(n)/shape(n) tends to a constant against:
    p / (n^(p+1) Gamma(1-p)) at gamma = 1, p / n^gamma above 1, and below 1
    (with 1/gamma not an integer)
    (p / n^gamma) exp{-sum_{j <= floor(1/gamma)} (p^j/j) n^(1-gamma j)/(1-gamma j)}.
    """
    if gamma == 1.0:
        return math.log(p) - (p + 1.0) * math.log(n) - math.lgamma(1.0 - p)
    if gamma > 1.0:
        return math.log(p) - gamma * math.log(n)
    inv = 1.0 / gamma
    if abs(inv - round(inv)) < 1e-6:
        raise ValueError("no reference shape near an integer 1/gamma")
    total = 0.0
    for j in range(1, math.floor(inv) + 1):
        total += p**j / j * n ** (1.0 - gamma * j) / (1.0 - gamma * j)
    return math.log(p) - gamma * math.log(n) - total


# -- growing chain: success probability 1 - q / k^gamma ----------------------


def growing_log_tail(q: float, gamma: float, m) -> np.ndarray:
    """ln P{X >= m} = (m-1) ln q - gamma ln Gamma(m), by math.lgamma."""
    ms = np.atleast_1d(np.asarray(m, dtype=np.int64))
    return np.array([(k - 1) * math.log(q) - gamma * math.lgamma(k) for k in ms])


def growing_log_pmf(q: float, gamma: float, n) -> np.ndarray:
    """ln P{X = n} = ln P{X >= n} + ln(1 - q/n^gamma)."""
    ns = np.atleast_1d(np.asarray(n, dtype=np.int64))
    tails = growing_log_tail(q, gamma, ns)
    return tails + np.log(-np.expm1(math.log(q) - gamma * np.log(ns.astype(float))))


# -- h-index law --------------------------------------------------------------


def hirsch_log_pmf(p: float, q: float, h) -> np.ndarray:
    """ln P{H = h}: ln q at h = 0, else ln(1 - nu) + h ln nu with
    nu = (1-q)A / (q + (1-q)A) and A the gamma = 1 tail at h.
    """
    hs = np.atleast_1d(np.asarray(h, dtype=np.int64))
    out = np.full(hs.shape, math.log(q))
    pos = hs >= 1
    log_a = log_tail_table(p, 1.0, max(1, int(hs.max(initial=1))))[hs[pos] - 1]
    log_w = math.log1p(-q) + log_a
    log_denom = np.logaddexp(math.log(q), log_w)
    out[pos] = math.log(q) - log_denom + hs[pos] * (log_w - log_denom)
    return out


def hirsch_deficit(p: float, q: float, h_max: int | None = None) -> float:
    """1 - q - sum_{h=1}^{h_max} P{H = h}; h_max None sums to convergence.

    The limit is the probability that a draw matches no h in the closed
    form's event, which is what the paper-mode sampler reports as no_match.
    """
    upto = h_max if h_max is not None else 20_000
    probs = np.exp(hirsch_log_pmf(p, q, np.arange(1, upto + 1)))
    return 1.0 - q - math.fsum(probs)


# -- compound author law ------------------------------------------------------


def author_pmf(p: float, q: float, s_max: int, dps: int = 30) -> np.ndarray:
    """P{S = s}, s = 0..s_max, from F(z) = (1-z)^p (1-beta z)^-p, beta = 1-q.

    F solves (1-z)(1-beta z) F' = -pq F, which gives the recurrence
    (n+1) f_{n+1} = ((1+beta) n - pq) f_n - beta (n-1) f_{n-1} with f_0 = 1,
    f_1 = -pq; then P{S=0} = 1 - (1-q)^p and P{S=s} = -(1-q)^p f_s.  Run in
    mpmath at `dps` digits, so float rounding of the recurrence never shows.
    """
    with mpmath.workdps(dps):
        p_ = mpmath.mpf(p)
        q_ = mpmath.mpf(q)
        beta = 1 - q_
        pq = p_ * q_
        c = beta**p_
        out = np.empty(s_max + 1)
        out[0] = float(1 - c)
        f_prev, f = mpmath.mpf(1), -pq
        for n in range(1, s_max + 1):
            out[n] = float(-c * f)
            f_prev, f = f, (((1 + beta) * n - pq) * f - beta * (n - 1) * f_prev) / (n + 1)
        return out


def author_pgf(p: float, q: float, z: float) -> float:
    """R(z) = 1 - (1-q)^p (1-z)^p (1 - (1-q) z)^-p."""
    return 1.0 - math.exp(
        p * math.log1p(-q) + p * math.log1p(-z) - p * math.log1p(-(1.0 - q) * z)
    )


# -- listing report -----------------------------------------------------------


def listing_report(rows: list[tuple[int, int, int, int]]) -> dict:
    """kappa = N/h^2 per record, h mean and sample sd, Pearson r of
    (total, h) and of (h, max-cited), and the two kappa counts."""
    totals = [r[1] for r in rows]
    hs = [r[2] for r in rows]
    maxes = [r[3] for r in rows]
    kappas = [t / h**2 for t, h in zip(totals, hs)]
    return {
        "kappa": kappas,
        "h_mean": statistics.mean(hs),
        "h_sample_sd": statistics.stdev(hs),
        "rho1": statistics.correlation(totals, hs),
        "rho2": statistics.correlation(hs, maxes),
        "kappa_le_5_count": sum(1 for k in kappas if k <= 5.0),
        "kappa_5_6_count": sum(1 for k in kappas if 5.0 < k < 6.0),
    }
