"""Output checks: strict parsing, properties, and comparison with `references`.

Every check raises `CheckError` on a wrong output and otherwise returns the
number of numeric values the output carries (the `items` of the run).
Comparisons are made on natural logs of probabilities, with tolerances set
from float64 rounding of the quantity checked; the worst error seen is kept
in `Checker.worst` for the result file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

import references as ref

# |ln value - ln reference| allowed, as a share of max(1, |ln reference|)
LOG_RTOL = 1e-11
# |sum(pmf) + tail - 1| and other absolute identities on probabilities
SUM_ATOL = 1e-12
# chi-square and binomial checks reject a correct sampler this rarely
ALPHA = 1e-7
Z_BOUND = 5.33  # two-sided normal quantile for ALPHA
MIN_EXPECTED = 10.0
# the CLI prints probabilities below exp(-700) as {"log_value": L}
LOG_FLOOR = -700.0
# the spacing of the subnormal grid, and the absolute slack allowed on a
# value in it: a program value formed as a difference of two exp() results
# and the reference's own exp() each carry about one step of rounding
SUBNORMAL_STEP = 5e-324
SUBNORMAL_ATOL = 4 * SUBNORMAL_STEP


class CheckError(Exception):
    """The program's output is wrong."""


def parse_json_strict(text: str):
    """json.loads that rejects the bare NaN / Infinity tokens."""

    def reject(token):
        raise CheckError(f"invalid JSON token {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _linear_logs(values: np.ndarray, what: str) -> np.ndarray:
    """ln of printed probabilities; 0.0 is an exact zero."""
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise CheckError(f"{what}: a probability outside [0, 1]")
    with np.errstate(divide="ignore"):
        logs = np.log(values)
    if (logs[values > 0.0] < LOG_FLOOR - 1e-9).any():
        raise CheckError(f"{what}: a probability below exp({LOG_FLOOR}) printed as a float")
    return logs


def _floor_logs(values: np.ndarray, what: str) -> np.ndarray:
    if not (values < LOG_FLOOR).all():
        raise CheckError(f"{what}: a log_value above the {LOG_FLOOR} floor")
    return values


def _json_logs(entries, what: str) -> np.ndarray:
    """ln of JSON probabilities: floats, or {"log_value": L} below the floor."""
    try:
        return _linear_logs(np.array(entries, dtype=np.float64), what)
    except (TypeError, ValueError):
        pass
    is_obj = np.array([type(e) is dict for e in entries])
    out = np.empty(len(entries))
    try:
        objs = [entries[i] for i in np.flatnonzero(is_obj)]
        if any(set(e) != {"log_value"} for e in objs):
            raise CheckError(f"{what}: a probability object other than {{'log_value': L}}")
        out[is_obj] = _floor_logs(np.array([e["log_value"] for e in objs], dtype=np.float64), what)
        out[~is_obj] = _linear_logs(
            np.array([entries[i] for i in np.flatnonzero(~is_obj)], dtype=np.float64), what)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: a probability that is not a number") from None
    return out


def _csv_logs(cells: list[str], what: str) -> np.ndarray:
    """ln of CSV probabilities: floats, or `log:L` cells below the floor."""
    try:
        return _linear_logs(np.array([float(c) for c in cells]), what)
    except ValueError:
        pass
    is_log = np.array([c.startswith("log:") for c in cells], dtype=bool)
    out = np.empty(len(cells))
    try:
        out[is_log] = _floor_logs(
            np.array([float(c[4:]) for c in cells if c.startswith("log:")]), what)
        out[~is_log] = _linear_logs(
            np.array([float(c) for c in cells if not c.startswith("log:")]), what)
    except ValueError:
        raise CheckError(f"{what}: a CSV cell that is not a probability") from None
    return out


def _csv_columns(text: str, header: tuple[str, ...]) -> list[list[str]]:
    """Columns of the program's CSV below its header.  The program quotes
    nothing (every cell is a number, an index or a `log:` value), so a quote
    is a format error and the cells split on commas and newlines."""
    if '"' in text:
        raise CheckError("CSV output with quoted cells")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(header):
        raise CheckError(f"CSV header {lines[:1]!r}, expected {header!r}")
    body = lines[1:]
    cells = ",".join(body).split(",") if body else []
    width = len(header)
    if len(cells) != width * len(body):
        raise CheckError(f"CSV rows must have {width} cells")
    return [cells[i::width] for i in range(width)]


def _indexed_logs(columns, start: int, count: int, what: str) -> np.ndarray:
    """ln probabilities of rows start..start+count-1, which lead the table."""
    index, values = columns
    if index[:count] != [str(i) for i in range(start, start + count)]:
        raise CheckError(f"{what}: CSV rows are not indexed {start}..{start + count - 1}")
    return _csv_logs(values[:count], what)


def _envelope(text: str, command: str) -> dict:
    doc = parse_json_strict(text)
    if not isinstance(doc, dict) or set(doc) != {"command", "params", "payload", "diagnostics"}:
        raise CheckError("output is not a citechain JSON envelope")
    if doc["command"] != command:
        raise CheckError(f"command {doc['command']!r}, expected {command!r}")
    return doc["payload"]


def _logs(entries, count: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != count:
        raise CheckError(f"{what}: expected a list of {count} probabilities")
    return _json_logs(entries, what)


def _json_log(entry, what: str) -> float:
    return float(_json_logs([entry], what)[0])


def _close_logs(got, want, what: str, rtol: float = LOG_RTOL) -> float:
    """Both arrays of logs agree; -inf only against -inf.  Returns the worst
    scaled error."""
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    want = np.atleast_1d(np.asarray(want, dtype=np.float64))
    if got.shape != want.shape:
        raise CheckError(f"{what}: {got.size} values, expected {want.size}")
    if np.isnan(got).any():
        raise CheckError(f"{what}: NaN")
    zero = np.isneginf(want)
    if not np.array_equal(np.isneginf(got), zero):
        i = int(np.flatnonzero(np.isneginf(got) != zero)[0])
        raise CheckError(f"{what}[{i}] = {got[i]!r}, reference {want[i]!r}")
    if zero.all():
        return 0.0
    err = np.abs(got[~zero] - want[~zero]) / np.maximum(1.0, np.abs(want[~zero]))
    worst = int(np.argmax(err))
    if err[worst] > rtol:
        i = int(np.flatnonzero(~zero)[worst])
        raise CheckError(
            f"{what}[{i}]: ln value {got[i]!r}, reference {want[i]!r} "
            f"(scaled error {err[worst]:.3e} > {rtol:.0e})"
        )
    return float(err[worst])


def _close_probs(got, want_log, what: str, rtol: float = LOG_RTOL) -> float:
    """Linear probabilities against reference logs: relative error as in
    `_close_logs`, plus a few subnormal steps absolute, because a value near
    or past the float range is rounded to the subnormal grid or to 0."""
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    want_log = np.atleast_1d(np.asarray(want_log, dtype=np.float64))
    if got.shape != want_log.shape:
        raise CheckError(f"{what}: {got.size} values, expected {want_log.size}")
    want = np.exp(want_log)
    scale = np.maximum(1.0, np.abs(want_log))
    scale[np.isneginf(want_log)] = 1.0
    err = np.abs(got - want)
    allowed = rtol * scale * want + SUBNORMAL_ATOL
    bad = ~(err <= allowed)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{what}[{i}] = {got[i]!r}, reference exp({want_log[i]!r})")
    normal = want >= np.finfo(np.float64).tiny
    if not normal.any():
        return 0.0
    return float((err[normal] / (scale[normal] * want[normal])).max())


def _close_deep_logs(got, want, what: str) -> float:
    """Logs of table entries whose reference lies below exp(LOG_FLOOR).

    A printed {"log_value": L} is compared in log space, like any entry.
    Only where exp(L) is a subnormal float, as a difference of two
    subnormal numbers gives, may it instead be off by SUBNORMAL_ATOL in
    linear terms.  A printed 0.0 (ln = -inf) passes only where the
    reference itself is within SUBNORMAL_ATOL of 0."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    linear = np.exp(got)
    subnormal = (linear < np.finfo(np.float64).tiny) & ((linear > 0.0) | np.isneginf(got))
    _close_probs(linear[subnormal], want[subnormal], what)
    return _close_logs(got[~subnormal], want[~subnormal], what) if (~subnormal).any() else 0.0


def _close(got: float, want: float, what: str, atol: float) -> float:
    if not isinstance(got, (int, float)) or not abs(got - want) <= atol:
        raise CheckError(f"{what} = {got!r}, reference {want!r} (atol {atol:.0e})")
    return abs(got - want)


def _chi_square(probs, counts, what: str, separate_last: bool = False) -> float:
    """Pearson chi-square of counts against cell probabilities, with
    adjacent cells merged until each expects MIN_EXPECTED draws.  With
    `separate_last`, the last cell (censored draws) is never merged into the
    finite ones when it expects enough draws on its own."""
    probs = np.asarray(probs, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what}: cell probabilities sum to {probs.sum()!r}")
    last = separate_last and probs[-1] * n >= MIN_EXPECTED
    merged_p, merged_c = [], []
    acc_p = acc_c = 0.0
    for p_i, c_i in zip(probs[:-1] if last else probs, counts[:-1] if last else counts):
        acc_p += p_i
        acc_c += c_i
        if acc_p * n >= MIN_EXPECTED:
            merged_p.append(acc_p)
            merged_c.append(acc_c)
            acc_p = acc_c = 0.0
    if merged_p:
        merged_p[-1] += acc_p
        merged_c[-1] += acc_c
    else:
        merged_p, merged_c = [acc_p], [acc_c]
    if last:
        merged_p.append(probs[-1])
        merged_c.append(counts[-1])
    expected = np.array(merged_p) * n
    observed = np.array(merged_c)
    impossible = (expected == 0.0) & (observed > 0)
    if impossible.any():
        raise CheckError(f"{what}: draws in a cell of probability 0")
    keep = expected > 0.0
    stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    df = int(keep.sum()) - 1
    if df < 1:
        return 1.0
    pvalue = float(stats.chi2.sf(stat, df))
    if pvalue < ALPHA:
        raise CheckError(
            f"{what}: chi-square {stat:.1f} on {df} df, p-value {pvalue:.2e} < {ALPHA:.0e}"
        )
    return pvalue


def _binomial(k: int, n: int, prob: float, what: str) -> float:
    sd = math.sqrt(n * prob * (1.0 - prob))
    dev = abs(k - n * prob)
    if dev > Z_BOUND * sd + 1.0:
        raise CheckError(
            f"{what}: {k} of {n}, reference share {prob:.6g} "
            f"(|dev| {dev:.1f} > {Z_BOUND} sd {sd:.1f})"
        )
    return dev / max(sd, 1e-300)


# -- failures the benchmark keeps on purpose ---------------------------------

def known_fault(check: dict, message: str) -> str | None:
    """The name of the known fault behind a failed operation, if it is one.

    author-sample-cap: `author_model.sample_citations` raises as soon as any
    paper-count chain is censored at the cap.  improper-mass-series:
    `trial_chain.improper_mass` gives up after 10,000 series terms when
    p >= 0.997, and `conditional_pmf` with it.
    """
    if check["kind"] == "sample_author" and "chains exceeded cap=" in message:
        return "author-sample-cap"
    if (
        check["kind"] in ("improper_mass", "conditional_pmf")
        and check["p"] >= 0.997
        and check["gamma"] > 1.0
        and message.startswith("RuntimeError")
        and "failed to converge" in message
    ):
        return "improper-mass-series"
    return None


@dataclass
class Checker:
    """Checks outputs, caching the references each check needs."""

    listing: list | None = None
    worst: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _note_worst(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))

    def _tails(self, p: float, gamma: float, m_max: int) -> np.ndarray:
        """Reference ln P{X >= m} for m = 1..(at least) m_max."""
        key = ("tails", p, gamma)
        have = self._cache.get(key)
        if have is None or have.size < m_max:
            size = max(m_max, 1024, 2 * (have.size if have is not None else 0))
            self._cache[key] = ref.log_tail_table(p, gamma, size)
        return self._cache[key]

    def _improper(self, p: float, gamma: float) -> float:
        return self._memo(("improper", p, gamma), lambda: ref.improper_mass(p, gamma))

    def _author(self, p: float, q: float, s_max: int) -> np.ndarray:
        key = ("author", p, q)
        have = self._cache.get(key)
        if have is None or have.size <= s_max:
            self._cache[key] = ref.author_pmf(p, q, s_max)
        return self._cache[key][: s_max + 1]

    # -- CLI outputs ---------------------------------------------------------

    def cli(self, check: dict, stdout: str) -> int:
        return getattr(self, "_cli_" + check["kind"])(check, stdout)

    def _cli_tail(self, c, out) -> int:
        p, gamma, m_max = c["p"], c["gamma"], c["m_max"]
        if c["format"] == "json":
            payload = _envelope(out, "tail")
            if payload.get("start") != 1:
                raise CheckError("tail table must start at m = 1")
            logs = _logs(payload["tails"], m_max, "tail")
        else:
            columns = _csv_columns(out, ("m", "tail"))
            if len(columns[0]) != m_max:
                raise CheckError(f"{len(columns[0])} CSV rows, expected {m_max}")
            logs = _indexed_logs(columns, 1, m_max, "tail")
        if logs[0] != 0.0:
            raise CheckError(f"tail(1) = exp({logs[0]!r}), expected 1")
        if not (np.diff(logs) <= 0.0).all():
            i = int(np.flatnonzero(np.diff(logs) > 0.0)[0])
            raise CheckError(f"tail increases from m = {i + 1} to {i + 2}")
        m = np.arange(1, m_max + 1, dtype=np.float64)
        self._note_worst("tail", _close_logs(logs, self._tails(p, gamma, m_max)[:m_max], "tail"))
        # tail(m) - tail(m+1) = pmf(m) = tail(m) p / m^gamma, on every m
        t = np.exp(logs)
        gap = (t[:-1] - t[1:]) - t[:-1] * (p * m[:-1] ** -gamma)
        bad = np.abs(gap) > 1e-12 * t[:-1]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise CheckError(f"tail({i + 1}) - tail({i + 2}) differs from pmf({i + 1})")
        return m_max

    def _cli_pmf(self, c, out) -> int:
        p, gamma, n_max = c["p"], c["gamma"], c["n_max"]
        payload = _envelope(out, "pmf")
        logs = _logs(payload["probabilities"], n_max, "pmf")
        log_tail = _json_log(payload["tail"], "pmf tail")
        self._check_sums_to_one(logs, log_tail, "pmf")
        tails = self._tails(p, gamma, n_max + 1)
        n = np.arange(1, n_max + 1, dtype=np.float64)
        want = tails[:n_max] + math.log(p) - gamma * np.log(n)
        want_tail = tails[n_max]
        if c["conditional"]:
            mass = self._improper(p, gamma)
            want = want - math.log1p(-mass)
            want_tail = math.log((math.exp(want_tail) - mass) / (1.0 - mass))
        self._note_worst("pmf", _close_logs(logs, want, "pmf"))
        # the conditional tail is a difference of two numbers near the improper
        # mass, so it is compared absolutely
        _close(math.exp(log_tail), math.exp(want_tail), "pmf tail", SUM_ATOL)
        return n_max + 1

    def _check_sums_to_one(self, logs, log_tail, what):
        total = math.fsum(np.exp(logs)) + math.exp(log_tail)
        self._note_worst("sum_to_one", abs(total - 1.0))
        if abs(total - 1.0) > SUM_ATOL:
            raise CheckError(f"{what}: sum(pmf) + tail = {total!r}")

    def _cli_growing(self, c, out) -> int:
        q, gamma, n_max = c["q"], c["gamma"], c["n_max"]
        payload = _envelope(out, "growing-pmf")
        logs = _logs(payload["probabilities"], n_max, "growing-pmf")
        log_tail = _json_log(payload["tail"], "growing-pmf tail")
        self._check_sums_to_one(logs, log_tail, "growing-pmf")
        want = ref.growing_log_pmf(q, gamma, np.arange(1, n_max + 1))
        # Past exp(-700) the program forms each pmf as a difference of two
        # tails that are subnormal or have left the float range, and prints
        # 0.0 below the subnormal range, where the README's policy asks for
        # {"log_value": L} (a known fault, counted in the notes).
        deep = want < LOG_FLOOR
        self._note_worst("growing", _close_logs(logs[~deep], want[~deep], "growing-pmf"))
        self._note_worst("growing", _close_deep_logs(logs[deep], want[deep], "growing-pmf"))
        self.notes["growing_pmf_zero_below_floor"] = int(np.isneginf(logs[deep]).sum())
        want_tail = ref.growing_log_tail(q, gamma, n_max + 1)[0]
        self._note_worst("growing", _close_logs([log_tail], [want_tail], "growing tail"))
        return n_max + 1

    def _cli_hirsch(self, c, out) -> int:
        p, q, h_max = c["p"], c["q"], c["h_max"]
        if c["format"] == "json":
            payload = _envelope(out, "hirsch-pmf")
            if payload.get("start") != 0:
                raise CheckError("hirsch table must start at h = 0")
            logs = _logs(payload["probabilities"], h_max + 1, "hirsch-pmf")
            deficit = payload["normalization_deficit"]
        else:
            columns = _csv_columns(out, ("h", "probability"))
            if len(columns[0]) != h_max + 2 or columns[0][-1] != "normalization_deficit":
                raise CheckError("hirsch CSV must end with the normalization_deficit row")
            logs = _indexed_logs(columns, 0, h_max + 1, "hirsch-pmf")
            deficit = float(columns[1][-1])
        want = self._memo(("hirsch", p, q, h_max),
                          lambda: ref.hirsch_log_pmf(p, q, np.arange(h_max + 1)))
        self._note_worst("hirsch", _close_logs(logs, want, "hirsch-pmf"))
        want_deficit = self._memo(("deficit", p, q, h_max),
                                  lambda: ref.hirsch_deficit(p, q, h_max))
        _close(deficit, want_deficit, "normalization_deficit", SUM_ATOL)
        return h_max + 2

    def _cli_author(self, c, out) -> int:
        p, q, s_max = c["p"], c["q"], c["s_max"]
        payload = _envelope(out, "author-pmf")
        logs = _logs(payload["probabilities"], s_max + 1, "author-pmf")
        log_tail = _json_log(payload["tail"], "author-pmf tail")
        want = self._author(p, q, s_max)
        self._note_worst("author", _close_logs(logs, np.log(want), "author-pmf"))
        _close(math.exp(log_tail), max(0.0, 1.0 - math.fsum(want)), "author tail", SUM_ATOL)
        # generating function: sum_s P(s) z^s against R(z), within the
        # truncation bound z^(s_max+1) P{S > s_max}
        probs = np.exp(logs)
        for z in (0.3, 0.7, 0.95):
            partial = math.fsum(probs * z ** np.arange(s_max + 1))
            bound = z ** (s_max + 1) * math.exp(log_tail)
            if not -1e-13 <= ref.author_pgf(p, q, z) - partial <= bound + 1e-13:
                raise CheckError(f"author-pmf generating function at z = {z} off by "
                                 f"{ref.author_pgf(p, q, z) - partial!r}")
        return s_max + 2

    def _cli_analyze(self, c, out) -> int:
        payload = _envelope(out, "analyze")
        want = self._memo(("listing",), lambda: ref.listing_report(self.listing))
        if len(payload["kappa"]) != len(want["kappa"]):
            raise CheckError("analyze: wrong number of kappa values")
        for i, (got, exp) in enumerate(zip(payload["kappa"], want["kappa"])):
            _close(got, exp, f"kappa[{i}]", 1e-12 * exp)
        for key in ("h_mean", "h_sample_sd", "rho1", "rho2"):
            _close(payload[key], want[key], key, 1e-12 * max(1.0, abs(want[key])))
        for key in ("kappa_le_5_count", "kappa_5_6_count"):
            if payload[key] != want[key]:
                raise CheckError(f"{key} = {payload[key]!r}, reference {want[key]!r}")
        return len(want["kappa"]) + 6

    def _cli_cli_improper_mass(self, c, out) -> int:
        payload = _envelope(out, "improper-mass")
        return self._call_improper_mass(c, payload["improper_mass"])

    def _cli_asym(self, c, out) -> int:
        payload = _envelope(out, "asym")
        if payload["grid"] != c["grid"]:
            raise CheckError(f"asym grid {payload['grid']!r}, expected {c['grid']!r}")
        for got, log_ratio in zip(payload["ratios"], payload["log_ratios"]):
            _close(got, math.exp(log_ratio), "asym ratio", 1e-12 * math.exp(log_ratio))
        return len(c["grid"]) + self._call_estimate_constant(
            c, [payload["constant"], payload["spread"], *payload["log_ratios"]])

    def _trial_cells(self, p, gamma, cap) -> tuple[np.ndarray, np.ndarray]:
        """Cell edges 1 = e_0 < ... < e_k = cap + 1 and the probability of
        each cell [e_i, e_i+1), with the censored cell {X > cap} last."""
        def build():
            edges = list(range(1, 31))
            x = 30.0
            while x < cap:
                x *= 1.25
                edges.append(min(int(x), cap))
            edges = np.array(sorted(set(edges)) + [cap + 1])
            t = np.exp(self._tails(p, gamma, cap + 1)[edges - 1])
            return edges, np.append(t[:-1] - t[1:], t[-1])
        return self._memo(("cells", p, gamma, cap), build)

    def _cli_sample_trial(self, c, out) -> int:
        p, gamma, count, cap = c["p"], c["gamma"], c["count"], c["cap"]
        payload = _envelope(out, "sample")
        values = payload["values"]
        if not isinstance(values, list) or len(values) != count:
            raise CheckError(f"expected {count} draws")
        draws = np.array([cap + 1 if v == {"censored_at": cap} else v for v in values])
        if draws.dtype.kind != "i" or draws.min() < 1 or draws.max() > cap + 1:
            raise CheckError("draws must be integers in 1..cap or censored markers")
        censored = int((draws == cap + 1).sum())
        if payload["censored_count"] != censored:
            raise CheckError("censored_count does not match the censored draws")
        edges, probs = self._trial_cells(p, gamma, cap)
        counts = np.bincount(np.searchsorted(edges, draws, side="right") - 1,
                             minlength=len(edges))
        what = f"trial sampler (p={p}, gamma={gamma})"
        self._note_worst("chi2_min_pvalue_inv",
                         1.0 / _chi_square(probs, counts, what, separate_last=True))
        if gamma > 1.0:
            # censored share against P{X > cap}: the improper mass plus the
            # finite tail past the cap
            self._binomial_note(censored, count, probs[-1], what + " censored share")
        return count

    def _binomial_note(self, k, n, prob, what):
        self._note_worst("binomial_z", _binomial(k, n, prob, what))

    def _cli_sample_hirsch(self, c, out) -> int:
        p, q, count = c["p"], c["q"], c["count"]
        payload = _envelope(out, "sample")
        h = payload["h"]
        if not isinstance(h, list) or len(h) != count:
            raise CheckError(f"expected {count} draws")
        no_match = sum(1 for v in h if v is None)
        if payload["no_match_count"] != no_match:
            raise CheckError("no_match_count does not match the None draws")
        values = np.array([v for v in h if v is not None])
        if values.size and (values.dtype.kind != "i" or values.min() < 0):
            raise CheckError("h draws must be integers >= 0")
        what = f"hirsch sampler ({c['mode']} mode)"
        if c["mode"] == "true":
            if no_match:
                raise CheckError("true-h mode reported no_match draws")
            # H = 0 exactly when the author has no paper
            self._binomial_note(int((values == 0).sum()), count, q, what + " share of h = 0")
            return count
        top = 200
        cell_p = np.exp(ref.hirsch_log_pmf(p, q, np.arange(top + 1)))
        deficit = self._memo(("deficit", p, q, None), lambda: ref.hirsch_deficit(p, q))
        rest = 1.0 - cell_p.sum() - deficit
        probs = np.append(cell_p, [max(rest, 0.0), deficit])
        counts = np.append(np.bincount(np.minimum(values, top + 1), minlength=top + 2),
                           no_match)
        self._note_worst("chi2_min_pvalue_inv", 1.0 / _chi_square(
            probs / probs.sum(), counts, what, separate_last=True))
        self._binomial_note(no_match, count, deficit, what + " no_match share")
        return count

    def _cli_sample_author(self, c, out) -> int:
        p, q, count, cap = c["p"], c["q"], c["count"], c["cap"]
        payload = _envelope(out, "sample")
        papers = np.array(payload["papers"])
        cites = np.array(payload["citations"])
        if papers.shape != (count,) or cites.shape != (count,):
            raise CheckError(f"expected {count} papers and citations")
        if papers.dtype.kind != "i" or papers.min() < 1 or cites.min() < 0:
            raise CheckError("paper counts must be >= 1 and citations >= 0")
        capped = np.minimum(papers, cap + 1)
        edges, probs = self._trial_cells(p, 1.0, cap)
        counts = np.bincount(np.searchsorted(edges, capped, side="right") - 1,
                             minlength=len(edges))
        self._note_worst("chi2_min_pvalue_inv", 1.0 / _chi_square(probs, counts, "author papers"))
        # given the papers, the citation total is NegBin(sum X, q)
        x = float(papers.sum())
        mean = x * (1.0 - q) / q
        sd = math.sqrt(x * (1.0 - q)) / q
        if abs(float(cites.sum()) - mean) > Z_BOUND * sd:
            raise CheckError(f"sum S / sum X = {cites.sum() / x!r}, expected {(1 - q) / q!r}")
        return 2 * count

    # -- library calls -------------------------------------------------------

    def call(self, check: dict, result) -> int:
        return getattr(self, "_call_" + check["kind"])(check, result)

    def _trial_log_pmf(self, p, gamma, n) -> float:
        return ref.trial_log_pmf(p, gamma, self._tails(p, gamma, n)[n - 1], n)

    def _call_trial(self, c, result) -> int:
        p, gamma, n, func = c["p"], c["gamma"], c["n"], c["func"]
        if func == "tail":
            want = self._tails(p, gamma, n)[n - 1]
        else:
            want = self._trial_log_pmf(p, gamma, n)
        what = f"{func}(p={p}, gamma={gamma}, n={n})"
        if func == "log_pmf":
            self._note_worst("trial", _close_logs([_number(result, what)], [want], what))
        else:
            self._prob(result, want, what, "trial")
        return 1

    def _prob(self, result, want_log: float, what: str, group: str) -> None:
        if not isinstance(result, float) or not 0.0 <= result <= 1.0:
            raise CheckError(f"{what} = {result!r} is not a probability")
        self._note_worst(group, _close_probs([result], [want_log], what))

    def _call_improper_mass(self, c, result) -> int:
        want = self._improper(c["p"], c["gamma"])
        self._prob(result, math.log(want), f"improper_mass(p={c['p']}, gamma={c['gamma']})",
                   "improper")
        return 1

    def _call_conditional_pmf(self, c, result) -> int:
        p, gamma, n = c["p"], c["gamma"], c["n"]
        want = self._trial_log_pmf(p, gamma, n) - math.log1p(-self._improper(p, gamma))
        self._prob(result, want, f"conditional_pmf(p={p}, gamma={gamma}, n={n})", "improper")
        return 1

    def _call_estimate_constant(self, c, result) -> int:
        p, gamma, grid = c["p"], c["gamma"], c["grid"]
        what = f"estimate_constant(p={p}, gamma={gamma})"
        if not isinstance(result, list) or len(result) != 2 + len(grid):
            raise CheckError(f"{what} returned {result!r}")
        constant, spread, *log_ratios = result
        shift = math.log1p(-self._improper(p, gamma)) if gamma > 1.0 else 0.0
        want = [self._trial_log_pmf(p, gamma, n) - shift - ref.log_shape(p, gamma, n)
                for n in grid]
        for got, exp in zip(log_ratios, want):
            self._note_worst("asym", _close(got, exp, what + " log ratio", 1e-9))
        top = want[len(want) // 2 :]
        _close(constant, math.exp(want[-1]), what + " constant", 1e-9 * math.exp(want[-1]))
        _close(spread, math.expm1(max(top) - min(top)), what + " spread", 1e-9)
        return 2 + len(log_ratios)

    def _call_sibuya(self, c, result) -> int:
        self._prob(result, self._tails(c["p"], 1.0, c["m"])[c["m"] - 1],
                   f"sibuya_tail_closed(p={c['p']}, m={c['m']})", "sibuya")
        return 1

    def _call_hirsch(self, c, result) -> int:
        p, q, h, func = c["p"], c["q"], c["h"], c["func"]
        want = float(ref.hirsch_log_pmf(p, q, h)[0])
        what = f"{func}(p={p}, q={q}, h={h})"
        if func == "log_hirsch_pmf":
            self._note_worst("hirsch", _close_logs([_number(result, what)], [want], what))
        else:
            self._prob(result, want, what, "hirsch")
        return 1

    def _call_author_pmf(self, c, result) -> int:
        p, q, s = c["p"], c["q"], c["s"]
        want = self._author(p, q, max(s, 400))[s]
        self._prob(result, math.log(want), f"author_pmf(p={p}, q={q}, s={s})", "author")
        return 1

    def _call_growing_pmf(self, c, result) -> int:
        q, gamma, n = c["q"], c["gamma"], c["n"]
        want = float(ref.growing_log_pmf(q, gamma, n)[0])
        self._prob(result, want, f"growing_pmf(q={q}, gamma={gamma}, n={n})", "growing")
        return 1


def _number(value, what: str) -> float:
    if not isinstance(value, float) or math.isnan(value):
        raise CheckError(f"{what} = {value!r} is not a number")
    return value
