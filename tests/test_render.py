"""The CLI's block-streamed column writer against the one-call renderings.

`oracles.render_json` prints a result with one `json.dumps(indent=2)` call
over per-cell Python values, and `oracles.render_csv` with one `csv.writer`
over per-cell text; the writer forms, prints and joins cells a block at a
time and must print the same bytes at every column length around the block
size.  The length sweeps shrink the block to B cells, so that they stay
fast; the stdout and memory tests run at the real block size.

The printer, `cli._numbers`, is held to `float.__repr__` and `str` cell for
cell over every binade, the edges of orjson's layout bands and a million
random bit patterns: an orjson build that lays out a number differently
fails here, not in the golden bytes.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from citechain import cli, trial_chain
from texts import assert_same_text

B = 16
LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 7]
# the edges of orjson's layout bands, where the printer fixes its layout
BAND_EDGES = [1e-9, 1e-5, 1e-4, 1e16, 1e100]
# the edges of the log-form rule, ordinary values, and values whose exp lies
# in each layout band or on its edges
EDGES = [
    -math.inf, -700.0, math.nextafter(-700.0, 0.0), math.nextafter(-700.0, -math.inf),
    -745.5, -1e5, 709.0, math.nextafter(709.0, math.inf), 709.9, 1e4,
    0.0, -1e-300, -0.5, -1.0, -37.25, -699.9,
    math.log(1e-9), -15.0, math.log(1e-5), -10.5, math.log(5e-5), math.log(1e-4),
    math.log(1e16), 40.0, 300.0,
]


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK", B)


def _binades() -> list[float]:
    """1.0, 1.5 and the largest mantissa of every binade, subnormal ones too."""
    out = []
    for e in range(-1074, 1024):
        out += [math.ldexp(1.0, e), math.ldexp(1.5, e), math.ldexp(2.0 - 2.0**-52, e)]
    return [x for x in out if x != 0.0]


def _band_edges() -> list[float]:
    out = []
    for edge in BAND_EDGES:
        below = above = edge
        for _ in range(20):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
        out.append(edge)
    return out


def _random_floats(n: int, seed: int) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def _assert_printed_as_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for lo in range(0, len(values), 1 << 16):
        block = values[lo:lo + (1 << 16)]
        expected = list(map(float.__repr__, block.tolist()))
        got = cli._numbers(block).split(",")
        assert len(got) == len(expected)
        wrong = [(e, g) for e, g in zip(expected, got) if e != g]
        assert not wrong, wrong[:5]


def test_printer_matches_repr_on_every_binade_and_band_edge():
    special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    finite = _binades() + _band_edges() + special
    _assert_printed_as_repr(finite + [-x for x in finite])


def test_printer_matches_repr_on_random_bit_patterns():
    x = _random_floats(1_100_000, 16)
    assert len(x) > 1_000_000
    _assert_printed_as_repr(x)


@pytest.mark.parametrize("lo, hi", [(1e-12, 1e-9), (1e-9, 1e-5), (1e-5, 1e-4), (1e-4, 1e16),
                                    (1e16, 1e300)])
def test_printer_matches_repr_inside_each_band(lo, hi):
    # a whole array in one band takes the band's one-call path
    rng = np.random.default_rng(abs(int(math.log10(lo))))
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), 70_000))
    x = x[(x >= lo) & (x < hi)]
    # short digit strings, as exact decimals have
    x[::5] = np.round(x[::5], 12 - int(math.log10(lo)))
    x = x[(x >= lo) & (x < hi)]
    _assert_printed_as_repr(x)
    _assert_printed_as_repr(-x)
    _assert_printed_as_repr(np.where(rng.random(len(x)) < 0.5, x, -x))


def test_printer_matches_str_on_integers():
    rng = np.random.default_rng(17)
    edges = [0, 1, -1, 2**63 - 1, -(2**63)]
    edges += [s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)
              if -(2**63) <= s * (10**k + d) < 2**63]
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(-(2**63), 2**63 - 1, 200_000, dtype=np.int64),
                             rng.integers(-1000, 1000, 1000)])
    assert cli._numbers(values).split(",") == list(map(str, values.tolist()))


def test_float_column_with_every_band(small_block):
    values = np.array(_band_edges() + [-x for x in _band_edges()] + [0.0, 3.25, -1e-300])
    result = cli._Result("x", {}, ("i", "v"), range(len(values)), {"v": cli._Column(values)},
                         trailing={"big": 2e16, "small": -1.5e-5, "count": 7})
    assert_same_text(_json(result), oracles.render_json(result))
    assert_same_text(_csv(result), oracles.render_csv(result))


def _logs(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    logs = rng.uniform(-800.0, 720.0, n)
    logs[::3] = np.resize(EDGES, logs[::3].size)
    # one edge value on each side of every block boundary
    for lo in range(B, n, B):
        logs[lo - 1], logs[lo] = -math.inf, math.nextafter(-700.0, -math.inf)
    return logs


def _json(result) -> str:
    return "".join(cli._render_json(result))


def _csv(result) -> str:
    return "".join(cli._render_csv(result))


@pytest.mark.parametrize("n", LENGTHS)
def test_log_table_matches_one_call_rendering(n, small_block):
    logs = _logs(n)
    result = cli._table("tail", {"n": n}, "m", 1, logs, tail=cli._Column([-750.25], logs=True))
    assert_same_text(_json(result), oracles.render_json(result))
    assert_same_text(_csv(result), oracles.render_csv(result))


@pytest.mark.parametrize("n", [1, B + 1, 3 * B + 7])
def test_sample_columns_with_stand_ins(n, small_block):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 10**6, n)
    censored = rng.random(n) < 0.3
    censored[-1] = True
    trial = cli._Result(
        "sample", {"count": n}, ("index", "value"), range(n),
        {"values": cli._Column(values, missing=censored,
                               stand_in=cli._Missing({"censored_at": 50}, "censored"))},
        extra={"censored_count": int(censored.sum())},
    )
    hirsch = cli._Result(
        "sample", {"count": n}, ("index", "h"), range(n),
        {"h": cli._Column(values, missing=~censored, stand_in=cli._Missing(None, "no_match"))},
    )
    author = cli._Result(
        "sample", {"count": n}, ("index", "papers", "citations"), range(n),
        {"papers": cli._Column(values), "citations": cli._Column(values[::-1])},
    )
    for result in (trial, hirsch, author):
        assert_same_text(_json(result), oracles.render_json(result))
        assert_same_text(_csv(result), oracles.render_csv(result))


def test_rounded_column_and_labels():
    kappa = [3.14159, 5.0, 6.005, 12.5]
    result = cli._Result(
        "analyze", {"source": "x"}, ("field", "value"),
        [f"kappa_{i}" for i in range(1, 5)],
        {"kappa": cli._Column(kappa, csv_format="%.2f")},
        trailing={"h_sample_sd": cli._Column([2.345678], csv_format="%.2f"), "rho1": 0.5},
    )
    assert_same_text(_json(result), oracles.render_json(result))
    assert_same_text(_csv(result), oracles.render_csv(result))


@pytest.fixture
def finite_printer(monkeypatch):
    """The printer, failing the test if it is ever handed a non-finite
    value: orjson would print it as null."""
    real = cli._numbers

    def numbers(values):
        assert values.dtype.kind != "f" or np.isfinite(values).all(), values
        return real(values)

    monkeypatch.setattr(cli, "_numbers", numbers)


def _exits_before_output(capsys, argv) -> None:
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: Out of range float values are not JSON compliant\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_column_exits_before_output(monkeypatch, capsys, finite_printer, fmt, bad):
    def table(params, m_max):
        logs = np.linspace(-1.0, -2000.0, m_max)
        logs[-1] = bad
        return logs

    monkeypatch.setattr(cli.trial_chain, "tail_table", table)
    _exits_before_output(capsys, ["tail", "--p", "0.5", "--gamma", "1", "--m-max",
                                  str(cli._BLOCK + 3), "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_trailing_log_exits_before_output(monkeypatch, capsys, finite_printer,
                                                     fmt, bad):
    real = trial_chain.pmf_table

    def table(params, n_max):
        t = real(params, n_max)
        return type(t)(start=t.start, log_probs=t.log_probs, log_tail=bad)

    monkeypatch.setattr(cli.trial_chain, "pmf_table", table)
    _exits_before_output(capsys, ["pmf", "--p", "0.5", "--gamma", "1", "--n-max", "5",
                                  "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_trailing_value_exits_before_output(monkeypatch, capsys, finite_printer,
                                                       fmt, bad):
    monkeypatch.setattr(cli.trial_chain, "improper_mass", lambda params: bad)
    _exits_before_output(capsys, ["improper-mass", "--p", "0.5", "--gamma", "2",
                                  "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_float_column_exits_before_output(monkeypatch, capsys, finite_printer, fmt):
    real = cli.scientometrics.report

    def report(dataset):
        rep = real(dataset)
        return type(rep)(**{**vars(rep), "kappa": rep.kappa[:-1] + (math.nan,)})

    monkeypatch.setattr(cli.scientometrics, "report", report)
    _exits_before_output(capsys, ["analyze", "--fixture", "physics", "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_sample_column_exits_before_output(monkeypatch, capsys, finite_printer, fmt):
    def sample_many(params, rng, count, cap):
        values = np.arange(1.0, count + 1.0)
        values[1] = math.nan
        censored = np.zeros(count, dtype=bool)
        censored[0] = True
        return values, censored

    monkeypatch.setattr(cli.trial_chain, "sample_many", sample_many)
    _exits_before_output(capsys, ["sample", "--model", "trial", "--p", "0.5", "--count", "5",
                                  "--seed", "1", "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_in_the_first_cell_of_a_log_column_exits_before_output(monkeypatch, capsys,
                                                                   finite_printer, fmt):
    # the whole-column reductions see a bad first cell, before any block
    def table(params, m_max):
        logs = np.linspace(-1.0, -2000.0, m_max)
        logs[0] = math.nan
        return logs

    monkeypatch.setattr(cli.trial_chain, "tail_table", table)
    _exits_before_output(capsys, ["tail", "--p", "0.5", "--gamma", "1", "--m-max",
                                  str(3 * cli._BLOCK + 1), "--format", fmt])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_minus_infinity_in_a_float_column_exits_before_output(monkeypatch, capsys,
                                                              finite_printer, fmt):
    real = cli.scientometrics.report

    def report(dataset):
        rep = real(dataset)
        return type(rep)(**{**vars(rep), "kappa": (-math.inf,) + rep.kappa[1:]})

    monkeypatch.setattr(cli.scientometrics, "report", report)
    _exits_before_output(capsys, ["analyze", "--fixture", "physics", "--format", fmt])


def _peak_bytes(write) -> int:
    """The peak traced memory of writing all chunks of `write()`, one at a time."""
    tracemalloc.start()
    try:
        for _ in write():
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _band_heavy_tail(cells: int):
    logs = trial_chain.tail_table(trial_chain.TrialChainParams(0.8, 1.0), cells)
    return logs, cli._table("tail", {}, "m", 1, logs, key="tails", header="tail")


def test_block_memory_stays_below_the_repr_writer():
    # a column where most cells print in the 1e-5 <= x < 1e-4 band, against
    # the writer this printer replaced: math.exp, float.__repr__ and a join
    # per block of 2^16 cells, with an f-string per CSV row
    logs, result = _band_heavy_tail(1 << 16)
    x = np.exp(logs)
    assert ((x >= 1e-5) & (x < 1e-4)).mean() > 0.7

    def repr_cells():
        return list(map(float.__repr__, map(math.exp, logs.tolist())))

    def repr_json():
        yield ",\n    ".join(repr_cells())

    def repr_csv():
        yield "\n".join([f"{m},{cell}" for m, cell in zip(range(1, len(logs) + 1),
                                                           repr_cells())]) + "\n"

    margin = 512 * 1024
    assert _peak_bytes(lambda: cli._render_json(result)) <= _peak_bytes(repr_json) + margin
    assert _peak_bytes(lambda: cli._render_csv(result)) <= _peak_bytes(repr_csv) + margin


@pytest.mark.parametrize("render", [cli._render_json, cli._render_csv])
def test_block_memory_does_not_grow_with_the_column(render):
    # the writer holds one block at a time: four times the cells, whose
    # longer digit strings reach into the next band, peak no higher than
    # 128 KB more (a second copy of the column's values alone is 2 MB)
    short, long = _band_heavy_tail(1 << 16)[1], _band_heavy_tail(1 << 18)[1]
    assert _peak_bytes(lambda: render(long)) <= _peak_bytes(lambda: render(short)) + 128 * 1024


class _Sink:
    """A stdout that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def writelines(self, lines):
        for _ in lines:
            pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("p, gamma", [("0.5", "0.7"), ("0.95", "1")])
def test_tail_run_peaks_at_its_scan_plus_a_block(monkeypatch, fmt, p, gamma):
    # the printed column is the cached scan, 8 bytes per cell; the scan's
    # scratch, the column checks and the writer each hold a block at most
    cells = 1 << 18
    monkeypatch.setattr(sys, "stdout", _Sink())
    trial_chain._log_survival_prefix.cache_clear()
    tracemalloc.start()
    try:
        argv = ["tail", "--p", p, "--gamma", gamma, "--m-max", str(cells), "--format", fmt]
        assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        trial_chain._log_survival_prefix.cache_clear()
    assert peak <= 8 * cells + 2 * 2**20


N = 3 * cli._BLOCK + 7


@pytest.mark.parametrize("argv, size", [
    # every band but the largest
    (["tail", "--p", "0.5", "--gamma", "0.7", "--m-max"], N),
    # cells >= 1e-4, then the positional band, then the 1e-9 <= x < 1e-5 one
    (["tail", "--p", "0.95", "--gamma", "1", "--m-max"], N),
    # log form from n = 150 on
    (["growing-pmf", "--q", "0.5", "--gamma", "1", "--n-max"], N),
    # log form from h = 213 on; h runs from 0
    (["hirsch-pmf", "--p", "0.5", "--q", "0.5", "--h-max"], N - 1),
], ids=["tail-mixed", "tail-bands", "growing-pmf", "hirsch-pmf"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_streams_through_current_stdout(capsys, argv, size, fmt):
    argv = argv + [str(size), "--format", fmt]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    args = cli._build_parser().parse_args(argv)
    result = args.func(args)
    assert [len(column) for column in result.columns.values()] == [N]
    render = oracles.render_json if fmt == "json" else oracles.render_csv
    assert_same_text(out, render(result))
