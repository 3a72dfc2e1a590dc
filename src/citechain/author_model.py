"""Compound citation model for a single author.

An author writes X papers, where X follows the heavy-tailed trial chain at
gamma = 1 with parameter p (tail exponent p, infinite mean).  Each paper
independently collects a geometric number of citations with parameter q,
supported on {0, 1, 2, ...}.  The author's citation count is the sum
S = sum_{i<=X} C_i, a compound of X geometric variables.

Its probability generating function is

    R(z) = 1 - (1-q)^p (1-z)^p (1 - (1-q) z)^(-p),

obtained by composing the chain pgf 1 - (1-z)^p with the geometric pgf
q / (1 - (1-q) z).  Coefficients come from either a terminating
hypergeometric closed form (fast, mildly unstable at large s) or a direct
convolution of the two binomial series (stable at any s); both routes are
exposed and cross-checked in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun, trial_chain
from .tables import PmfTable

__all__ = [
    "AuthorParams",
    "author_log_pmf",
    "author_pmf",
    "author_pmf_series",
    "author_pmf_table",
    "laplace_tail_asym",
    "laplace_tail_exact",
    "paper_count_params",
    "sample_citations",
]

_STRATEGY_SWITCH_S = 150
_CROSSCHECK_REL_TOL = 1e-8


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


def paper_count_params(params: AuthorParams) -> trial_chain.TrialChainParams:
    """The paper-count law is the gamma = 1 trial chain with parameter p."""
    return trial_chain.TrialChainParams(p=params.p, gamma=1.0)


def _pmf_hyp(params: AuthorParams, s: int) -> float:
    """Closed form: P{S=s} for s >= 1 via a terminating 2F1 sum.

    P{S=s} = (1-q)^p (-1)^(s+1) C(p, s) 2F1(p, -s; 1+p-s; 1-q)
    where C(p, s) is the generalized binomial coefficient.  The 2F1 argument
    c = 1+p-s is a negative non-integer for s >= 2, so the terminating sum
    is well defined but alternates; beyond s of a few hundred, cancellation
    makes this route lose digits (see `author_pmf`).
    """
    p, q = params.p, params.q
    sign = -1.0 if s % 2 == 0 else 1.0
    return (
        (1.0 - q) ** p
        * sign
        * specfun.gen_binomial(p, s)
        * specfun.hyp2f1_terminating(p, s, 1.0 + p - s, 1.0 - q)
    )


def author_pmf_series(params: AuthorParams, s_max: int) -> np.ndarray:
    """Coefficients [z^s] R(z) for s = 0..s_max via stable convolution.

    (1-z)^p has coefficients a_0 = 1, a_{s+1} = a_s (s - p)/(s + 1) (all
    non-positive past a_0), and (1 - (1-q)z)^(-p) has positive coefficients
    b_0 = 1, b_{s+1} = b_s (p + s)(1 - q)/(s + 1).  Their Cauchy product has
    one sign flip and no cancellation growth, so this route stays accurate
    at arbitrary s.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max!r}")
    p, q = params.p, params.q
    a = np.empty(s_max + 1)
    b = np.empty(s_max + 1)
    a[0] = 1.0
    b[0] = 1.0
    for s in range(s_max):
        a[s + 1] = a[s] * (s - p) / (s + 1)
        b[s + 1] = b[s] * (p + s) * (1.0 - q) / (s + 1)
    conv = np.convolve(a, b)[: s_max + 1]
    out = -((1.0 - q) ** p) * conv
    out[0] += 1.0
    return out


def author_pmf(params: AuthorParams, s: int, strategy: str = "auto") -> float:
    """P{S = s}: probability the author accumulates exactly s citations.

    strategy: "auto" picks the closed hypergeometric form for small s and
    the convolution series beyond s = 150; "hyp" and "series" force a route.
    Under "auto" at large s both routes are computed and compared, and a
    NumericalInstabilityWarning reports any relative disagreement beyond
    1e-8 (the series value is returned).
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s!r}")
    if strategy not in ("auto", "hyp", "series"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if s == 0:
        # author has at least one paper, so s = 0 means every paper drew
        # zero citations: R(0) = 1 - (1-q)^p
        return -math.expm1(params.p * math.log1p(-params.q))
    if strategy == "hyp":
        return _pmf_hyp(params, s)
    if strategy == "series":
        return float(author_pmf_series(params, s)[s])
    if s <= _STRATEGY_SWITCH_S:
        return _pmf_hyp(params, s)
    series_val = float(author_pmf_series(params, s)[s])
    hyp_val = _pmf_hyp(params, s)
    denom = max(abs(series_val), abs(hyp_val), 1e-300)
    rel = abs(series_val - hyp_val) / denom
    if rel > _CROSSCHECK_REL_TOL:
        warnings.warn(
            f"closed-form and series evaluations of pmf({s}) disagree by "
            f"{rel:.3e} relative; returning the series value",
            specfun.NumericalInstabilityWarning,
            stacklevel=2,
        )
    return series_val


def author_log_pmf(params: AuthorParams, s: int) -> float:
    value = author_pmf(params, s)
    if value <= 0.0:
        raise ValueError(f"pmf({s}) evaluated non-positive ({value!r}); out of range")
    return math.log(value)


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
