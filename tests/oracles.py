"""Independent reference routes that only the tests use.

- `author_pmf_closed`: P{S = s} of the compound author law through its
  terminating-2F1 closed form, an evaluation route independent of the
  convolution series in `citechain.author_model`.
- `resolve`: the h-index of one author's citation counts by sorting, the
  definition that the vectorized `hirsch.simulate_hirsch_many` implements
  with segment ranks.
"""

from __future__ import annotations

import numpy as np


def gen_binomial(a: float, s: int) -> float:
    """Generalized binomial coefficient C(a, s) = a(a-1)...(a-s+1)/s!."""
    out = 1.0
    for i in range(s):
        out *= (a - i) / (i + 1.0)
    return out


def hyp2f1_terminating(a: float, s: int, c: float, x: float) -> float:
    """sum_{m=0}^{s} (a)_m (-s)_m / ((c)_m m!) x^m, Kahan-compensated."""
    total = comp = 0.0
    term = 1.0
    for m in range(s + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m < s:
            term *= (a + m) * (m - s) / ((c + m) * (m + 1.0)) * x
    return total


def author_pmf_closed(p: float, q: float, s: int) -> float:
    """P{S = s} = (1-q)^p (-1)^(s+1) C(p, s) 2F1(p, -s; 1+p-s; 1-q), s >= 1.

    The 2F1 parameter c = 1+p-s is a negative non-integer for s >= 2, so the
    sum terminates without a pole but alternates.
    """
    sign = -1.0 if s % 2 == 0 else 1.0
    return (1.0 - q) ** p * sign * gen_binomial(p, s) * hyp2f1_terminating(p, s, 1.0 + p - s, 1.0 - q)


def resolve(counts: np.ndarray) -> tuple[int, bool]:
    """(true_h, paper_event_matches) from one author's citation counts.

    true_h = max{j >= 0 : at least j counts are >= j}; the closed-form
    event matches iff the count of papers at >= true_h citations is exactly
    true_h (G(h) - h strictly decreases in h, so no other h can match).
    """
    desc = np.sort(counts)[::-1]
    true_h = int(np.count_nonzero(desc >= np.arange(1, desc.size + 1)))
    g = int(np.count_nonzero(counts >= true_h))
    return true_h, g == true_h
