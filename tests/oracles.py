"""Independent reference routes that only the tests use.

- `author_pmf_closed`: P{S = s} of the compound author law through its
  terminating-2F1 closed form, an evaluation route independent of the
  convolution series in `citechain.author_model`.
- `hirsch_pmf_direct`: P{H = h} by explicit summation over the paper count,
  the sum that `citechain.hirsch`'s closed form evaluates as a geometric
  series.
- `resolve`: the h-index of one author's citation counts by sorting, the
  definition that the vectorized `hirsch.simulate_hirsch_many` implements
  with segment ranks.
- `render_json`, `render_csv`: a CLI result printed with one
  `json.dumps(indent=2)` call over per-cell Python values, or one
  `csv.writer` over per-cell text, the bytes that the CLI's block-streamed
  column writer must reproduce.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from citechain import cli, hirsch


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


def hirsch_pmf_direct(params: hirsch.HirschParams, h: int, l_max: int) -> float:
    """P{H = h} = sum_{l >= h} q (1-q)^l C(l, h) A(h)^h (1 - A(h))^(l-h),
    truncated at l_max."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h!r}")
    if l_max < h:
        return 0.0
    q = params.q
    a = hirsch.at_least_prob(params.p, h)
    return math.fsum(
        q * (1.0 - q) ** l * math.comb(l, h) * a**h * (1.0 - a) ** (l - h)
        for l in range(h, l_max + 1)
    )


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


def _log_json(log_value: float):
    if log_value == -math.inf:
        return 0.0
    if log_value < -700.0 or log_value > 709.0:
        return {"log_value": log_value}
    return math.exp(log_value)


def _log_csv(log_value: float) -> str:
    if log_value == -math.inf:
        return "0.0"
    if log_value < -700.0 or log_value > 709.0:
        return f"log:{log_value!r}"
    return repr(math.exp(log_value))


def _cells(column, log_cell, missing_cell, plain_cell) -> list:
    values = column.values.tolist()
    cells = [log_cell(v) if column.logs else plain_cell(v) for v in values]
    if column.missing is not None:
        cells = [missing_cell(column.stand_in) if m else c
                 for c, m in zip(cells, column.missing.tolist())]
    return cells


def render_json(result) -> str:
    payload = dict(result.extra)
    for key, column in result.columns.items():
        payload[key] = _cells(column, _log_json, lambda s: s.json_value, lambda v: v)
    for key, value in result.trailing.items():
        payload[key] = _log_json(value) if isinstance(value, cli._Log) else value
    envelope = {"command": result.command, "params": result.params,
                "payload": payload, "diagnostics": result.diagnostics}
    return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_csv(result) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(result.header)
    columns = [_cells(c, _log_csv, lambda s: s.csv_text, c.csv_cell)
               for c in result.columns.values()]
    writer.writerows(zip(result.index, *columns))
    for key, value in result.trailing.items():
        if isinstance(value, cli._Log):
            value = _log_csv(value)
        elif isinstance(value, cli._Rounded):
            value = f"{value:.2f}"
        writer.writerow((key, value))
    return out.getvalue()
