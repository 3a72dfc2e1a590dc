"""Compound citation model for a single author.

An author writes X papers, where X follows the heavy-tailed trial chain at
gamma = 1 with parameter p (tail exponent p, infinite mean).  Each paper
independently collects a geometric number of citations with parameter q,
supported on {0, 1, 2, ...}.  The author's citation count is the sum
S = sum_{i<=X} C_i, a compound of X geometric variables.

Its probability generating function is

    R(z) = 1 - (1-q)^p (1-z)^p (1 - (1-q) z)^(-p),

obtained by composing the chain pgf 1 - (1-z)^p with the geometric pgf
q / (1 - (1-q) z).  Its coefficients come from one route, the convolution
of the two binomial series (`author_pmf_series`); the tests check it against
a terminating-2F1 closed form and a numeric pgf composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trial_chain
from ._cache import GrowOnlyCache
from .tables import PmfTable

__all__ = [
    "AuthorParams",
    "author_pmf",
    "author_pmf_series",
    "author_pmf_table",
    "laplace_tail_asym",
    "laplace_tail_exact",
    "sample_citations",
]

# `author_pmf_series` drops the b coefficients from the first one below this
_B_FLOOR = 1e-300


@dataclass(frozen=True)
class AuthorParams:
    """p: paper-count tail exponent (0 < p < 1); q: citation geometric parameter."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q!r}")


def author_pmf_series(params: AuthorParams, s_max: int) -> np.ndarray:
    """Coefficients [z^s] R(z) for s = 0..s_max via stable convolution.

    (1-z)^p has coefficients a_0 = 1, a_{s+1} = a_s (s - p)/(s + 1) (all
    non-positive past a_0), and (1 - (1-q)z)^(-p) has positive coefficients
    b_0 = 1, b_{s+1} = b_s (p + s)(1 - q)/(s + 1).  Their Cauchy product has
    one sign flip and no cancellation growth in s.  It does cancel as
    q -> 0, where (1-z)^p (1-z)^(-p) = 1: at s = 1 the product is
    -p + p(1-q) = -pq, so a coefficient past s = 0 carries a relative error
    of up to about eps/q (at p = 0.5, s = 1: 1.1e-13 at q = 1e-4 and 5.0e-9
    at q = 1e-8).  P{S = 0} = 1 - (1-q)^p is taken in closed form.

    The b series stops before the first b_K below 1e-300, so the product
    costs O(s_max K), with K about 690 / -ln(1-q).  Since
    b_{k+1}/b_k < 1-q and |a_s| <= 1, the dropped terms move each
    coefficient by less than b_K/q < 1e-300/q in absolute terms.

    The product runs through BLAS, which OpenBLAS splits across its threads
    once a dot product passes 10,000 terms: at q below about 0.067 with
    s_max above 10,000, the last bits of the result follow the host's BLAS
    thread count.  The CLI pins one thread, so its bytes do not.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max!r}")
    p, q = params.p, params.q
    # both recurrences run on Python floats: numpy scalar indexing would
    # double the cost for the same bits
    a = [1.0]
    for s in range(s_max):
        a.append(a[s] * (s - p) / (s + 1))
    b = [1.0]
    for s in range(s_max):
        b_next = b[s] * (p + s) * (1.0 - q) / (s + 1)
        if b_next < _B_FLOOR:
            break
        b.append(b_next)
    conv = np.convolve(a, b)[: s_max + 1]
    out = -((1.0 - q) ** p) * conv
    out[0] = -math.expm1(p * math.log1p(-q))
    return out


def _grow_series(params: AuthorParams, entry: tuple | None, s: int) -> tuple[np.ndarray]:
    # a series' last coefficient can differ from the same entry of a longer
    # series in its last bits, so the cache never keeps it
    size = entry[0].size if entry else 0
    series = author_pmf_series(params, max(s + 1, 2 * size))[:-1]
    series.flags.writeable = False
    return (series,)


_series = GrowOnlyCache(_grow_series)


def author_pmf(params: AuthorParams, s: int) -> float:
    """P{S = s}: probability the author accumulates exactly s citations,
    entry s of `author_pmf_series`.

    The series is cached per (p, q), grow-only, for the 32 most recently
    used authors, as the trial chain's survival prefix is.  A query past
    its end rebuilds it to s_max = max(s + 1, twice its length) and keeps
    entries 0..s_max - 1, so a walk over s = 0..N rebuilds it about log2 N
    times and costs O(N K) in all (K as in `author_pmf_series`); a query
    inside it takes no lock and no array work.  Entry s is the same in
    every series that reaches past s, and the cache never keeps a series'
    last coefficient, so the value does not depend on the order of calls.
    That last coefficient can differ from it in the last bits (at a few
    s <= 10, up to 8e-16 relative), so `author_pmf(s)` may differ there
    from `author_pmf_series(params, s)[s]`.
    `cache_info()` and `cache_clear()` work as for `functools.lru_cache`.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s!r}")
    return _series.value((AuthorParams, params.p, params.q), s)


author_pmf.cache_info = _series.info
author_pmf.cache_clear = _series.clear


def author_pmf_table(params: AuthorParams, s_max: int) -> PmfTable:
    """Table of ln P{S = s}, s = 0..s_max, tail by complement."""
    probs = author_pmf_series(params, s_max)
    log_probs = np.log(probs, out=np.full(s_max + 1, -np.inf), where=probs > 0.0)
    total = float(math.fsum(probs))
    log_tail = math.log1p(-total) if total < 1.0 else -math.inf
    return PmfTable(start=0, log_probs=log_probs, log_tail=log_tail)


def laplace_tail_exact(params: AuthorParams, t: float) -> float:
    """1 - E[exp(-t S)] = (1-q)^p (1 - e^-t)^p (q - (1-q)(e^-t - 1))^(-p)."""
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t!r}")
    p, q = params.p, params.q
    one_minus_et = -math.expm1(-t)  # 1 - e^-t, accurate for small t
    return math.exp(
        p * math.log1p(-q)
        + p * math.log(one_minus_et)
        - p * math.log(q + (1.0 - q) * one_minus_et)
    )


def laplace_tail_asym(params: AuthorParams, t: float) -> float:
    """Leading small-t behavior ((1-q)/q)^p t^p of `laplace_tail_exact`."""
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t!r}")
    p, q = params.p, params.q
    return ((1.0 - q) / q) ** p * t**p


def sample_citations(
    params: AuthorParams,
    rng: np.random.Generator,
    n: int,
    cap: int = trial_chain.DEFAULT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """n author draws of (paper count X, citation total S).

    X is drawn from the gamma = 1 trial chain by `trial_chain.sample_many`
    (inverse transform, one uniform per draw); S is the sum of X iid
    geometric({0,1,...}, q) citation counts, drawn as a negative binomial
    with X successes (the exact law of that sum).  Chains censored at `cap`
    papers raise, since S would be undefined.
    """
    papers, censored = trial_chain.sample_many(
        trial_chain.TrialChainParams(params.p, 1.0), rng, n, cap=cap
    )
    if censored.any():
        raise RuntimeError(
            f"{int(censored.sum())} of {n} chains exceeded cap={cap} papers"
        )
    # sum of X geometrics on {0,1,...} with parameter q == NegBin(X, q)
    citations = rng.negative_binomial(papers, params.q)
    return papers, citations
