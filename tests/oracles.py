"""Independent reference routes that only the tests use.

- `author_pmf_closed`: P{S = s} of the compound author law through its
  terminating-2F1 closed form, an evaluation route independent of the
  convolution series in `citechain.author_model`.
- `conditional_law_mp`: P{X < inf} and the conditional tail
  P{X > n | X < inf} of an improper chain to about 40 digits with mpmath,
  from Hurwitz zeta values, the reference for the float route in
  `citechain.trial_chain`.
- `compose_pgf`: coefficients of the composed generating function
  outer(inner(z)), the numeric route to the same compound law.
- `hirsch_pmf_direct`: P{H = h} by explicit summation over the paper count,
  the sum that `citechain.hirsch`'s closed form evaluates as a geometric
  series.
- `neumaier_prefix`: the survival prefix by Neumaier's compensated loop,
  one term at a time, which `trial_chain._extend_prefix` runs as one numpy
  pass per block and must match bit for bit.
- `nu`: the success ratio of that geometric series in linear space, from
  the closed Sibuya tail; `citechain.hirsch` forms its logs from the
  survival prefix instead.
- `resolve`: the h-index of one author's citation counts by sorting, the
  definition that the vectorized `hirsch.simulate_hirsch_many` implements
  with segment ranks.
- `sample`: one trial-chain draw by literal Bernoulli trials, the law that
  `trial_chain.sample_many` draws by inverse transform.
- `log_asym_shape_printed`: the fractional-regime large-n shape with the
  exponent sign as printed (flipped), which fails to stabilize.
- `render_json`, `render_csv`: a CLI result printed with one
  `json.dumps(indent=2)` call over per-cell Python values, or one
  `csv.writer` over per-cell text, the bytes that the CLI's block-streamed
  column writer must reproduce.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

from citechain import cli, hirsch, trial_chain


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


def conditional_law_mp(p: float, gamma: float, n: int) -> tuple[float, float]:
    """(P{X < inf}, P{X > n | X < inf}) for p / k^gamma with gamma > 1, at 50 digits.

    ln P{X = inf | X > m} = sum_{k>m} ln(1 - p k^-gamma) takes 20 factors
    directly and the rest from -sum_j (p^j / j) zeta(gamma j, m + 21); then
    P{X > n} = P{X = inf} / P{X = inf | X > n}.  Needs mpmath.
    """
    import mpmath

    with mpmath.workdps(50):
        pm, g = mpmath.mpf(p), mpmath.mpf(gamma)

        def log_mass_past(m):
            total = mpmath.fsum(mpmath.log1p(-pm * mpmath.mpf(k) ** -g)
                                for k in range(m + 1, m + 21))
            for j in itertools.count(1):
                term = pm**j / j * mpmath.zeta(g * j, m + 21)
                total -= term
                if term < mpmath.mpf(10) ** -50 * abs(total):
                    return total

        log_all, log_past = log_mass_past(0), log_mass_past(n)
        finite = -mpmath.expm1(log_all)
        tail = mpmath.exp(log_all - log_past) * -mpmath.expm1(log_past) / finite
        return float(finite), float(tail)


def compose_pgf(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) through z^order, by Horner's rule.

    Every coefficient of `outer` enters, so it is treated as a polynomial;
    `inner` must carry at least order + 1 coefficients and a constant term
    in [0, 1).
    """
    if not 0.0 <= inner[0] < 1.0:
        raise ValueError("compose_pgf requires inner constant term in [0, 1)")
    if order >= len(inner):
        raise ValueError(f"order overflow: requested {order}, inner has {len(inner)} coefficients")
    out = np.zeros(order + 1)
    for c in outer[::-1]:
        out = np.convolve(out, inner[: order + 1])[: order + 1]
        out[0] += c
    return out


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


def neumaier_prefix(log_failures: np.ndarray) -> np.ndarray:
    """S[0..n] with S[0] = 0 and S[j] the Neumaier-compensated sum of the
    first j log failures (Neumaier, ZAMM 54, 1974), one term at a time."""
    s = c = 0.0
    out = [0.0]
    for x in log_failures.tolist():
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out.append(s + c)
    return np.array(out)


def nu(params: hirsch.HirschParams, h: int) -> float:
    """(1-q)A(h) / (q + (1-q)A(h)), the success ratio of the conditional geometric."""
    weighted = (1.0 - params.q) * hirsch.at_least_prob(params.p, h)
    return weighted / (params.q + weighted)


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


def sample(params: trial_chain.TrialChainParams, rng: np.random.Generator, cap: int):
    """One draw: run Bernoulli(p/k^gamma) trials until the first success.

    Returns the first successful trial index, or None if none of the first
    `cap` trials succeeds.
    """
    for k in range(1, cap + 1):
        if rng.random() < params.p / k**params.gamma:
            return k
    return None


def log_asym_shape_printed(params: trial_chain.TrialChainParams, n: int) -> float:
    """`trial_chain.log_asym_pmf_shape` for 0 < gamma < 1 with the sign of the
    exponent sum flipped to +, as printed:

        ln p - power ln n + sum_{j=1}^{J} (p^j/j) n^(1-gamma j)/(1-gamma j),

    where power = gamma + p^K/K and J = K - 1 if 1/gamma is an integer K,
    and power = gamma and J = floor(1/gamma) otherwise.
    """
    p, gamma = params.p, params.gamma
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"fractional regime needs 0 < gamma < 1, got {gamma!r}")
    inv = 1.0 / gamma
    j_int = round(inv)
    if abs(inv - j_int) <= 1e-9:
        power, terms = gamma + p**j_int / j_int, j_int - 1
    else:
        power, terms = gamma, math.floor(inv)
    ex = sum(p**j / j * n ** (1.0 - gamma * j) / (1.0 - gamma * j) for j in range(1, terms + 1))
    return math.log(p) - power * math.log(n) + ex


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


def _plain_csv(csv_format):
    if csv_format is None:
        return lambda v: v
    return lambda v: csv_format % v


def render_json(result) -> str:
    payload = dict(result.extra)
    for key, column in result.columns.items():
        payload[key] = _cells(column, _log_json, lambda s: s.json_value, lambda v: v)
    for key, value in result.trailing.items():
        if isinstance(value, cli._Column):
            (value,) = _cells(value, _log_json, None, lambda v: v)
        payload[key] = value
    envelope = {"command": result.command, "params": result.params,
                "payload": payload, "diagnostics": result.diagnostics}
    return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_csv(result) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(result.header)
    columns = [_cells(c, _log_csv, lambda s: s.csv_text, _plain_csv(c.csv_format))
               for c in result.columns.values()]
    writer.writerows(zip(result.index, *columns))
    for key, value in result.trailing.items():
        if isinstance(value, cli._Column):
            (value,) = _cells(value, _log_csv, None, _plain_csv(value.csv_format))
        writer.writerow((key, value))
    return out.getvalue()
