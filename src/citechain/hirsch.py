"""Analytic distribution of the h-index under the chain citation model.

Model: an author has L papers with P{L = l} = q (1-q)^l (geometric on
{0, 1, ...}), and each paper independently accumulates citations with the
heavy-tailed trial-chain law at gamma = 1 and parameter p, so a paper has
at least h >= 1 citations with probability A(h) = Gamma(h-p) / (Gamma(h)
Gamma(1-p)), read in log form from its survival prefix.  The index H is
the largest h such that at least h papers have h or more citations each.

Conditioning on L and summing the binomial count of qualifying papers
gives the closed form

    P{H = h} = (1 - nu(h)) nu(h)^h,   nu(h) = (1-q) A(h) / (q + (1-q) A(h))

for h >= 1, with P{H = 0} = q (an author with any paper has at least one
citation on it, so H = 0 happens exactly when L = 0).  The closed form
describes the event "exactly h of the L papers have >= h citations"; the
simulator evaluates both that event and the true index definition so the
two can be compared empirically.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import trial_chain

__all__ = [
    "HirschMode",
    "HirschParams",
    "at_least_prob",
    "hirsch_pmf",
    "hirsch_pmf_table",
    "log_hirsch_pmf",
    "log_tail_diagnostic",
    "normalization_deficit",
    "simulate_hirsch_many",
]


@dataclass(frozen=True)
class HirschParams:
    """p: citation-tail exponent per paper; q: paper-count geometric parameter."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q!r}")


class HirschMode(enum.Enum):
    """Which index event a simulation draw reports.

    PAPER_EVENT: the closed form's event, "exactly h papers have >= h
    citations"; a draw may match no h at all (reported as None / invalid).
    TRUE_H: the standard definition, max h with at least h papers having
    >= h citations; always defined.
    """

    PAPER_EVENT = "paper_event"
    TRUE_H = "true_h"


# paper counts past this are truncated in `simulate_hirsch_many`; never
# binds in practice
_PAPER_CAP = 100_000


def at_least_prob(p: float, h: int) -> float:
    """A(h) = P{a paper has >= h citations}; A(0) = 1, A(1) = 1."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h!r}")
    if h == 0:
        return 1.0
    return trial_chain.sibuya_tail_closed(p, h)


def hirsch_pmf(params: HirschParams, h: int) -> float:
    """P{H = h}: exactly q at h = 0, else exp(`log_hirsch_pmf`)."""
    log_prob = log_hirsch_pmf(params, h)
    return params.q if h == 0 else math.exp(log_prob)


def log_hirsch_pmf(params: HirschParams, h: int) -> float:
    """ln P{H = h}, stable where nu^h underflows (h in the thousands).

    Bit-identical to entry h of `hirsch_pmf_table`; costs one O(h) scan per p.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h!r}")
    if h == 0:
        return math.log(params.q)
    log_a = trial_chain.log_tail(trial_chain.TrialChainParams(params.p, 1.0), h)
    return float(_log_hirsch_terms(params.q, log_a, h))


def _log_hirsch_terms(q: float, log_a, h):
    # ln(1 - nu) + h ln nu for h >= 1 from ln A(h), by numpy on an array or a
    # scalar alike.  With l = log1p(e^-|r|), ln(1 - nu) = -max(r, 0) - l and
    # ln nu = min(r, 0) - l: only e^-|r| is formed, so no q in (0, 1) overflows.
    r = np.log1p(-q) - np.log(q) + log_a
    l = np.log1p(np.exp(-np.abs(r)))
    r_pos = (r + np.abs(r)) / 2.0  # max(r, 0), exact
    return -r_pos - l + h * ((r - r_pos) - l)


def log_tail_diagnostic(
    params: HirschParams, h_grid: tuple[int, ...] | list[int]
) -> list[tuple[int, float]]:
    """(h, ln P{H = h} / (h ln h)) over the grid; the ratio tends to -p.

    The limit is approached logarithmically slowly: the ratio is
    -p + ln(c)/ln(h) + o(1) with c = (1-q)/(q Gamma(1-p)), so even h = 1e4
    sits visibly short of -p.  Evaluated in log space throughout since the
    pmf itself underflows long before the grid gets interesting.
    """
    out = []
    for h in h_grid:
        if h < 2:
            raise ValueError(f"diagnostic needs h >= 2, got {h!r}")
        out.append((int(h), log_hirsch_pmf(params, h) / (h * math.log(h))))
    return out


def hirsch_pmf_table(params: HirschParams, h_max: int) -> tuple[np.ndarray, float]:
    """(ln P{H = h} for h = 0..h_max, normalization_deficit(params, h_max)).

    One array pass over ln A(1..h_max) from the survival prefix.  The
    deficit is one `math.fsum` of the exponentiated entries, which are
    `hirsch_pmf` bit for bit.
    """
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max!r}")
    q = params.q
    log_a = trial_chain.tail_table(trial_chain.TrialChainParams(params.p, 1.0), h_max)
    h = np.arange(1, h_max + 1, dtype=np.float64)
    log_probs = np.concatenate(([math.log(q)], _log_hirsch_terms(q, log_a, h)))
    deficit = 1.0 - q - math.fsum(map(math.exp, log_probs[1:].tolist()))
    return log_probs, deficit


def normalization_deficit(params: HirschParams, h_max: int) -> float:
    """1 - q - sum_{h=1}^{h_max} P{H = h}, as `hirsch_pmf_table` forms it.

    The closed form's h-dependent nu means the pmf need not sum to 1; the
    residual converges to the probability that no h matches the closed
    form's event.  Reported as a diagnostic, not asserted to vanish.
    """
    return hirsch_pmf_table(params, h_max)[1]


def simulate_hirsch_many(
    params: HirschParams,
    rng: np.random.Generator,
    n: int,
    mode: HirschMode = HirschMode.PAPER_EVENT,
    citation_cap: int = trial_chain.DEFAULT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """n draws of the index: sample L, per-paper citations, resolve h.

    Returns (h, valid).  In TRUE_H mode every draw is valid; in PAPER_EVENT
    mode valid[i] is False where draw i matched no h (h[i] is then the true
    index of that draw, provided for diagnostics but not part of the event
    distribution).  Truncations (paper counts beyond `_PAPER_CAP`, citation
    chains censored at `citation_cap`) are flagged with a UserWarning when
    they could touch the resolved values.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if citation_cap < 1:
        raise ValueError(f"citation_cap must be >= 1, got {citation_cap!r}")
    lengths = rng.geometric(params.q, size=n).astype(np.int64) - 1
    if (lengths > _PAPER_CAP).any():
        warnings.warn(
            f"{int((lengths > _PAPER_CAP).sum())} draws hit the paper cap "
            f"{_PAPER_CAP}; their indices may be affected",
            UserWarning,
            stacklevel=2,
        )
        lengths = np.minimum(lengths, _PAPER_CAP)
    total = int(lengths.sum())
    author = np.repeat(np.arange(n, dtype=np.int64), lengths)
    cits, censored = trial_chain.sample_many(
        trial_chain.TrialChainParams(params.p, 1.0), rng, total, cap=citation_cap
    )
    # a censored chain has at least cap citations; the cap value keeps every
    # comparison against h < cap exact
    cits = np.where(censored, citation_cap, cits)
    # author is non-decreasing and the primary key, so author[order] is author
    sorted_cits = cits[np.lexsort((-cits, author))]
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if n else np.empty(0, int)
    rank = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    qualifies = sorted_cits >= rank + 1
    true_h = np.bincount(author[qualifies], minlength=n)
    if (true_h >= citation_cap).any():
        warnings.warn(
            "some resolved indices reach the citation cap; values are lower "
            "bounds",
            UserWarning,
            stacklevel=2,
        )
    if mode is HirschMode.TRUE_H:
        return true_h, np.ones(n, dtype=bool)
    at_level = np.bincount(author[cits >= true_h[author]], minlength=n)
    return true_h, at_level == true_h
