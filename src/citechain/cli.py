"""Command-line surface for distribution evaluation, sampling, and reports.

JSON mode (default) prints a single envelope object

    {"command": ..., "params": ..., "payload": ..., "diagnostics": ...}

with diagnostics carrying captured warnings, censoring fractions, and the
seed-to-stream derivation used for sampling.  CSV mode prints the tabular
core of the payload with a header row; warnings then go to standard error.

Each subcommand computes its values once, in no particular format, and only
the format asked for is rendered.  Values held as natural logs that a float
cannot represent (log below -700 or above 709) are emitted structurally:
{"log_value": L} objects in JSON and `log:L` cells in CSV.  JSON output is
strict: a NaN or infinity exits 1 instead of printing an invalid token.
Table columns are written a block of `_BLOCK` cells at a time, in the exact
bytes of `json.dumps(indent=2)` or `csv.writer`: each block's cells are
formed, printed and joined into lines or rows in one pass.  Every check runs
before the first byte, so an error leaves stdout empty.  Every number in a
column or a trailing value is a `_Column` printed by one printer,
`_numbers`: orjson's shortest round-trip digits (Ryu), which are repr's, in
repr's layout; only the analyze table's two-decimal CSV cells are formatted
apart.  No CSV cell needs quoting, so each CSV row is its cells joined by
commas.

Exit codes: 0 success, 2 usage error (bad flags), 1 domain or validation
error (out-of-range parameters, malformed input files).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from collections.abc import Iterator

import numpy as np
import orjson

from . import author_model, hirsch, scientometrics, streams, trial_chain

__all__ = ["main", "run"]

# exp underflows below the floor and overflows above the ceiling
_LOG_FLOOR = -700.0
_LOG_CEIL = 709.0
# cells formed, printed and joined at a time: memory stays O(block), not
# O(column), and a block cut into one str object per cell stays small
_BLOCK = 1 << 12
# a column's stand-in in the JSON envelope: argv cannot carry a NUL, so no
# echoed string renders as a slot, and the payload, where slots sit, is last
_SLOT = re.compile(r'"\\u0000(\d+)\\u0000"')
_NOT_JSON = "Out of range float values are not JSON compliant"
_NUMPY = orjson.OPT_SERIALIZE_NUMPY


class _Missing:
    """A draw without a value, and what each format prints in its place
    (a text without a comma)."""

    def __init__(self, json_value, csv_text: str):
        self.json_value = json_value
        self.csv_text = csv_text


def _dumps(values: np.ndarray) -> str:
    """orjson's cells of a float64 or int64 array, comma-separated."""
    return orjson.dumps(values, option=_NUMPY).decode()[1:-1]


def _small(values: np.ndarray) -> str:
    """1e-9 <= |x| < 1e-5: orjson prints 1.5e-6, repr 1.5e-06."""
    return _dumps(values).replace("e-", "e-0")


def _positional(values: np.ndarray) -> str:
    """1e-5 <= |x| < 1e-4: orjson prints 0.000015, repr 1.5e-05.

    orjson prints |x| as "0.0000" and k digits; the cells of each k are
    rewritten together, and the signs are put back last."""
    size = np.abs(values)
    text = np.frombuffer(orjson.dumps(size, option=_NUMPY), np.uint8)
    # each cell ends at "," or "]" and holds "0.0000" and its digits
    digits = np.diff(np.flatnonzero((text == ord(",")) | (text == ord("]"))), prepend=0) - 7
    cells = np.empty(len(values), dtype=object)
    # the lengths present: np.unique would import numpy.ma, 1 MB and 10 ms
    for k in np.flatnonzero(np.bincount(digits)).tolist():
        where = np.flatnonzero(digits == k)
        cells[where] = _exponent_form(size[where], k).split(",")
    neg = np.flatnonzero(np.signbit(values))
    if neg.size:
        cells[neg] = ("-" + ",-".join(cells[neg])).split(",")
    return ",".join(cells)


_EXPONENT = np.frombuffer(b"e-05,", np.uint8)


def _exponent_form(size: np.ndarray, k: int) -> str:
    """The cells D.DDDe-05 of values in [1e-5, 1e-4) with k digits each,
    comma-separated: one byte matrix whose columns are moved at once."""
    text = orjson.dumps(size, option=_NUMPY)[1:-1] + b","
    digit = np.frombuffer(text, np.uint8).reshape(-1, k + 7)[:, 6:-1]
    out = np.empty((len(size), k + 5 + (k > 1)), np.uint8)
    out[:, 0] = digit[:, 0]
    out[:, 1] = ord(".")
    out[:, 2:k + 1] = digit[:, 1:]
    # "e-05," overwrites the point where there is one digit
    out[:, -5:] = _EXPONENT
    return out.ravel()[:-1].tobytes().decode()


def _large(values: np.ndarray) -> str:
    """|x| >= 1e16: orjson prints 1.5e16, repr 1.5e+16."""
    return _dumps(values).replace("e", "e+")


# orjson lays out |x| as repr does below 1e-9 and in [1e-4, 1e16); each
# band between and beyond these edges has its own rule
_EDGES = np.array([1e-9, 1e-5, 1e-4, 1e16])
_BANDS = (_dumps, _small, _positional, _dumps, _large)


def _numbers(values: np.ndarray) -> str:
    """The one printer: each value of a non-empty, finite float64 array as
    repr prints it, or of an int64 array as str does, comma-separated.

    orjson prints the same shortest round-trip digits as repr, and the same
    layout outside three bands of |x|.  Where all values lie in one band
    they are printed by the band's rule at once; otherwise each band is
    printed apart and its cells are put in place."""
    if values.dtype.kind != "f":
        return _dumps(values)
    band = np.searchsorted(_EDGES, np.abs(values), side="right")
    if (band == band[0]).all():
        return _BANDS[band[0]](values)
    cells = np.empty(len(values), dtype=object)
    for b in np.flatnonzero(np.bincount(band)).tolist():
        where = band == b
        cells[where] = _BANDS[b](values[where]).split(",")
    return ",".join(cells)


class _Column:
    """A column of numbers, whose cells are formed a block at a time.

    Log columns hold natural logs and print exp(L) where a float holds it,
    0.0 at -inf, and {"log_value": L} / `log:L` below -700 or above 709.
    Where `missing` is set a cell prints `stand_in` instead of its value.
    Every number is printed by `_numbers`, except that CSV prints a column
    with a `csv_format` through that %-format.  A NaN, or an infinity other
    than a log's -inf, is rejected here, before any output: `_numbers`
    never sees one.  The check is one or two whole-column reductions (a
    NaN makes max and min NaN), and `values` is kept as given where it is
    already a contiguous float64 or int64 array, a read-only view included,
    so a column costs no memory beyond its values.
    """

    def __init__(self, values, logs=False, missing=None, stand_in=None, csv_format=None):
        values = np.asarray(values)
        dtype = np.float64 if values.dtype.kind == "f" else np.int64
        self.values = v = np.ascontiguousarray(values, dtype=dtype)
        self.logs = logs
        self.missing = missing
        self.stand_in = stand_in
        self.csv_format = csv_format
        if dtype is np.float64 and len(v) and not (
            v.max() < np.inf and (logs or v.min() > -np.inf)
        ):
            raise ValueError(_NOT_JSON)

    def __len__(self) -> int:
        return len(self.values)

    def cells(self, lo: int, hi: int, json_indent: str | None = None) -> str:
        """The text of cells lo..hi-1, comma-separated (no cell holds a
        comma): CSV, or JSON for cells on lines indented by `json_indent`."""
        v = self.values[lo:hi]
        if json_indent is None and self.csv_format:
            return ",".join(np.char.mod(self.csv_format, v).tolist())
        apart = None
        if self.logs:
            form = ((v < _LOG_FLOOR) & (v > -np.inf)) | (v > _LOG_CEIL)
            if form.any():
                apart = form, _log_form(v[form], json_indent)
                v = v[~form]
            # math.exp per cell: numpy's exp differs in the last bit on 4.6% of them
            v = np.fromiter(map(math.exp, v.tolist()), np.float64, len(v))
        elif self.missing is not None and self.missing[lo:hi].any():
            missing = self.missing[lo:hi]
            text = self.stand_in.csv_text
            if json_indent is not None:
                text = json.dumps(self.stand_in.json_value, indent=2)
                text = text.replace("\n", "\n" + json_indent)
            apart = missing, text
            v = v[~missing]
        if apart is None:
            return _numbers(v)
        where, text = apart
        cells = np.empty(len(where), dtype=object)
        cells[where] = text
        if len(v):
            cells[~where] = _numbers(v).split(",")
        return ",".join(cells)


def _log_form(logs: np.ndarray, json_indent: str | None) -> list[str]:
    """The cells {"log_value": L} (JSON) or `log:L` (CSV) of some logs."""
    if json_indent is None:
        head, tail = "log:", ""
    else:
        head, tail = f'{{\n{json_indent}  "log_value": ', f"\n{json_indent}}}"
    return (head + _numbers(logs).replace(",", tail + "," + head) + tail).split(",")


def _scalar(value):
    """A trailing value, with a plain number made a column of one cell."""
    return _Column([value]) if isinstance(value, (int, float)) else value


class _Result:
    """One subcommand's values, computed once and rendered in one format.

    CSV prints `header`, one row per `index` label with the `columns` beside
    it, then a (name, value) row per `trailing` entry.  JSON prints the
    columns, the trailing values and the JSON-only `extra` values as payload
    keys.  `index` is a range of row numbers or a list of labels.  A
    trailing value is a number, a text, or a one-cell `_Column` where it is
    printed as a log or to two CSV decimals.
    """

    def __init__(self, command, params, header, index=(), columns=None,
                 trailing=None, extra=None, diagnostics=None):
        self.command = command
        self.params = params
        self.header = header
        self.index = index
        self.columns = columns or {}
        self.trailing = trailing or {}
        self.extra = extra or {}
        self.diagnostics = diagnostics or {"warnings": []}


def _table(command, params, index, start, log_values,
           key="probabilities", header="probability", **trailing) -> _Result:
    """A table subcommand: one column of logs numbered from `start`, then
    the `trailing` rows."""
    return _Result(
        command, params, (index, header), range(start, start + len(log_values)),
        {key: _Column(log_values, logs=True)}, trailing, {"start": start},
    )


def _render_json(result: _Result) -> Iterator[str]:
    """The envelope's text, as `json.dumps(indent=2)` prints it, with each
    column streamed a block at a time into its slot."""
    slots = []

    def slot(column, scalar=False):
        slots.append((column, scalar))
        return f"\x00{len(slots) - 1}\x00"

    payload = dict(result.extra)
    for key, column in result.columns.items():
        payload[key] = slot(column)
    for key, value in result.trailing.items():
        value = _scalar(value)
        payload[key] = slot(value, True) if isinstance(value, _Column) else value
    envelope = {
        "command": result.command,
        "params": result.params,
        "payload": payload,
        "diagnostics": result.diagnostics,
    }
    pieces = _SLOT.split(json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False))
    return _json_text(pieces, slots)


def _json_text(pieces: list[str], slots: list) -> Iterator[str]:
    for i, piece in enumerate(pieces):
        if i % 2 == 0:
            yield piece
            continue
        line = pieces[i - 1].rpartition("\n")[2]
        indent = line[: len(line) - len(line.lstrip(" "))]
        column, scalar = slots[int(piece)]
        if scalar:
            yield column.cells(0, 1, indent)
        elif not len(column):
            yield "[]"
        else:
            item = indent + "  "
            sep = ",\n" + item
            yield "[\n" + item
            for lo in range(0, len(column), _BLOCK):
                if lo:
                    yield sep
                yield column.cells(lo, min(lo + _BLOCK, len(column)), item).replace(",", sep)
            yield "\n" + indent + "]"
    yield "\n"


def _csv_value(value):
    value = _scalar(value)
    return value.cells(0, 1) if isinstance(value, _Column) else value


def _render_csv(result: _Result) -> Iterator[str]:
    """The header, the columns' rows a block at a time, then the trailing
    rows."""
    tail = "".join(f"{key},{_csv_value(value)}\n" for key, value in result.trailing.items())
    return _csv_text(result, ",".join(result.header) + "\n", tail)


def _csv_text(result: _Result, head: str, tail: str) -> Iterator[str]:
    yield head
    width = 2 + 2 * len(result.columns)
    for lo in range(0, len(result.index), _BLOCK):
        labels = result.index[lo:lo + _BLOCK]
        rows = len(labels)
        if isinstance(labels, range):
            labels = _numbers(np.arange(labels.start, labels.stop)).split(",")
        # each cell is followed by a comma, the last in a row by a newline
        parts = [","] * (width * rows)
        parts[width - 1::width] = ["\n"] * rows
        parts[::width] = labels
        for j, column in enumerate(result.columns.values(), 1):
            parts[2 * j::width] = column.cells(lo, lo + rows).split(",")
        yield "".join(parts)
    yield tail


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--grid must be comma-separated integers, got {text!r}") from None


def _cmd_pmf(a) -> _Result:
    params = trial_chain.TrialChainParams(a.p, a.gamma)
    if a.conditional and a.gamma <= 1.0:
        raise ValueError("--conditional requires gamma > 1 (improper regime)")
    table = (trial_chain.conditional_pmf_table if a.conditional else trial_chain.pmf_table)(
        params, a.n_max)
    return _table(
        "pmf",
        {"p": a.p, "gamma": a.gamma, "n_max": a.n_max, "conditional": bool(a.conditional)},
        "n", 1, table.log_probs, tail=_Column([table.log_tail], logs=True),
    )


def _cmd_tail(a) -> _Result:
    params = trial_chain.TrialChainParams(a.p, a.gamma)
    log_tails = trial_chain.tail_table(params, a.m_max)
    return _table(
        "tail", {"p": a.p, "gamma": a.gamma, "m_max": a.m_max},
        "m", 1, log_tails, key="tails", header="tail",
    )


def _cmd_improper_mass(a) -> _Result:
    params = trial_chain.TrialChainParams(a.p, a.gamma)
    return _Result(
        "improper-mass", {"p": a.p, "gamma": a.gamma}, ("quantity", "value"),
        trailing={"improper_mass": trial_chain.improper_mass(params)},
    )


def _cmd_asym(a) -> _Result:
    params = trial_chain.TrialChainParams(a.p, a.gamma)
    grid = _parse_grid(a.grid)
    estimate = trial_chain.estimate_constant(params, grid)
    log_ratios = estimate.log_ratios
    # ratio and constant come from the logs: near 1/gamma = 3 they overflow
    return _Result(
        "asym", {"p": a.p, "gamma": a.gamma, "grid": list(grid)}, ("n", "ratio"),
        [str(n) for n in grid],
        {"ratios": _Column(log_ratios, logs=True)},
        trailing={
            "constant": _Column([log_ratios[-1]], logs=True),
            "spread": estimate.spread,
            "regime": estimate.regime.value,
        },
        extra={"grid": list(grid), "log_ratios": list(log_ratios)},
    )


def _cmd_growing_pmf(a) -> _Result:
    params = trial_chain.GrowingChainParams(a.q, a.gamma)
    table = trial_chain.pmf_table(params, a.n_max)
    return _table(
        "growing-pmf", {"q": a.q, "gamma": a.gamma, "n_max": a.n_max},
        "n", 1, table.log_probs, tail=_Column([table.log_tail], logs=True),
    )


def _cmd_author_pmf(a) -> _Result:
    params = author_model.AuthorParams(a.p, a.q)
    table = author_model.author_pmf_table(params, a.s_max)
    return _table(
        "author-pmf", {"p": a.p, "q": a.q, "s_max": a.s_max, "method": a.method},
        "s", 0, table.log_probs, tail=_Column([table.log_tail], logs=True),
    )


def _cmd_hirsch_pmf(a) -> _Result:
    params = hirsch.HirschParams(a.p, a.q)
    log_probs, deficit = hirsch.hirsch_pmf_table(params, a.h_max)
    return _table(
        "hirsch-pmf", {"p": a.p, "q": a.q, "h_max": a.h_max}, "h", 0, log_probs,
        normalization_deficit=deficit,
    )


def _sample_diagnostics(a, extra=None) -> dict:
    d = {
        "warnings": [],
        "stream_derivation": (
            f"numpy SeedSequence({a.seed}).spawn(1)[0] -> PCG64; one child "
            "stream per command invocation, consumed in draw order"
        ),
    }
    if extra:
        d.update(extra)
    return d


def _cmd_sample(a) -> _Result:
    if a.count < 1:
        raise ValueError(f"--count must be >= 1, got {a.count}")
    rng = streams.derive_streams(a.seed, 1)[0]
    base_params = {
        "model": a.model,
        "p": a.p,
        "q": a.q,
        "gamma": a.gamma,
        "count": a.count,
        "seed": a.seed,
        "cap": a.cap,
    }
    if a.model == "trial":
        if a.q is not None:
            raise ValueError("--model trial takes no --q")
        params = trial_chain.TrialChainParams(a.p, a.gamma)
        values, censored = trial_chain.sample_many(params, rng, a.count, cap=a.cap)
        stand_in = _Missing({"censored_at": a.cap}, "censored")
        return _Result(
            "sample", base_params, ("index", "value"), range(a.count),
            {"values": _Column(values, missing=censored, stand_in=stand_in)},
            extra={"censored_count": int(censored.sum())},
            diagnostics=_sample_diagnostics(a, {"censoring_fraction": float(censored.mean())}),
        )
    if a.gamma != 1.0:
        raise ValueError(f"--model {a.model} fixes gamma = 1; got --gamma {a.gamma}")
    if a.q is None:
        raise ValueError(f"--model {a.model} requires --q")
    if a.model == "author":
        params = author_model.AuthorParams(a.p, a.q)
        papers, citations = author_model.sample_citations(params, rng, a.count, cap=a.cap)
        return _Result(
            "sample", base_params, ("index", "papers", "citations"), range(a.count),
            {"papers": _Column(papers), "citations": _Column(citations)},
            diagnostics=_sample_diagnostics(a),
        )
    # hirsch
    mode = hirsch.HirschMode.PAPER_EVENT if a.hirsch_mode == "paper" else hirsch.HirschMode.TRUE_H
    h, valid = hirsch.simulate_hirsch_many(
        hirsch.HirschParams(a.p, a.q), rng, a.count, mode=mode, citation_cap=a.cap
    )
    base_params["hirsch_mode"] = a.hirsch_mode
    no_match = _Missing(None, "no_match")
    return _Result(
        "sample", base_params, ("index", "h"), range(a.count),
        {"h": _Column(h, missing=~valid, stand_in=no_match)},
        extra={"no_match_count": int((~valid).sum())},
        diagnostics=_sample_diagnostics(a),
    )


def _cmd_analyze(a) -> _Result:
    source = a.fixture if a.fixture else a.input
    rep = scientometrics.report(scientometrics.load_dataset(source))
    return _Result(
        "analyze", {"source": str(source)}, ("field", "value"),
        [f"kappa_{i}" for i in range(1, len(rep.kappa) + 1)],
        {"kappa": _Column(rep.kappa, csv_format="%.2f")},
        trailing={
            "h_mean": rep.h_mean,
            "h_sample_sd": _Column([rep.h_sample_sd], csv_format="%.2f"),
            "rho1": rep.rho1,
            "rho2": rep.rho2,
            "kappa_le_5_count": rep.kappa_le_5_count,
            "kappa_5_6_count": rep.kappa_5_6_count,
        },
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default="json", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citechain",
        description="Trial-chain distributions, citation models, and table analytics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("pmf", help="trial-chain pmf table")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--conditional", action="store_true",
                   help="condition on finiteness (gamma > 1 only)")
    _add_common(s)
    s.set_defaults(func=_cmd_pmf)

    s = subs.add_parser("tail", help="trial-chain tail probabilities")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--m-max", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_tail)

    s = subs.add_parser("improper-mass", help="never-success probability")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_improper_mass)

    s = subs.add_parser("asym", help="large-n shape ratios and constant estimate")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--grid", type=str, required=True,
                   help="comma-separated increasing n values, e.g. 1000,3000,10000")
    _add_common(s)
    s.set_defaults(func=_cmd_asym)

    s = subs.add_parser("growing-pmf", help="growing-chain pmf table")
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--n-max", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_growing_pmf)

    s = subs.add_parser("author-pmf", help="compound citation pmf table")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--s-max", type=int, required=True)
    s.add_argument("--method", choices=("hyp", "oracle"), default="oracle",
                   help="accepted for compatibility and echoed in params; "
                        "both values print the convolution series")
    _add_common(s)
    s.set_defaults(func=_cmd_author_pmf)

    s = subs.add_parser("hirsch-pmf", help="h-index pmf table with deficit")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--h-max", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=_cmd_hirsch_pmf)

    s = subs.add_parser("sample", help="seeded Monte Carlo draws")
    s.add_argument("--model", choices=("trial", "author", "hirsch"), required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, default=None)
    s.add_argument("--gamma", type=float, default=1.0)
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--cap", type=int, default=trial_chain.DEFAULT_CAP,
                   help="trial censoring cap per chain")
    s.add_argument("--hirsch-mode", choices=("paper", "true"), default="paper")
    _add_common(s)
    s.set_defaults(func=_cmd_sample)

    s = subs.add_parser("analyze", help="citation-table report")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=str, help="CSV file path")
    group.add_argument("--fixture", choices=scientometrics.FIXTURE_NAMES)
    _add_common(s)
    s.set_defaults(func=_cmd_analyze)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute, print the envelope; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = args.func(args)
        result.diagnostics["warnings"] += [str(w.message) for w in caught]
        chunks = (_render_json if args.format == "json" else _render_csv)(result)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    sys.stdout.writelines(chunks)
    if args.format == "csv":
        for message in result.diagnostics["warnings"]:
            print(f"warning: {message}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())
