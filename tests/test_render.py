"""The CLI's block-streamed column writer against the one-call renderings.

`oracles.render_json` prints a result with one `json.dumps(indent=2)` call
over per-cell Python values, and `oracles.render_csv` with one `csv.writer`
over per-cell text; the writer forms cells a block at a time and must print
the same bytes at every column length around the block size.  The length
sweeps shrink the block to B cells, so that they stay fast; the stdout test
runs at the real block size.
"""

import math

import numpy as np
import pytest

import oracles
from citechain import cli, trial_chain

B = 16
LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 7]
# the edges of the log-form rule, and ordinary values
EDGES = [
    -math.inf, -700.0, math.nextafter(-700.0, 0.0), math.nextafter(-700.0, -math.inf),
    -745.5, -1e5, 709.0, math.nextafter(709.0, math.inf), 709.9, 1e4,
    0.0, -1e-300, -0.5, -1.0, -37.25, -699.9,
]


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK", B)


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
    result = cli._table("tail", {"n": n}, "m", 1, logs, tail=cli._Log(-750.25))
    assert _json(result) == oracles.render_json(result)
    assert _csv(result) == oracles.render_csv(result)


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
        assert _json(result) == oracles.render_json(result)
        assert _csv(result) == oracles.render_csv(result)


def test_rounded_column_and_labels():
    kappa = [3.14159, 5.0, 6.005, 12.5]
    result = cli._Result(
        "analyze", {"source": "x"}, ("field", "value"),
        [f"kappa_{i}" for i in range(1, 5)],
        {"kappa": cli._Column(kappa, csv_cell="{:.2f}".format)},
        trailing={"h_sample_sd": cli._Rounded(2.345678), "rho1": 0.5},
    )
    assert _json(result) == oracles.render_json(result)
    assert _csv(result) == oracles.render_csv(result)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_column_exits_before_output(monkeypatch, capsys, fmt, bad):
    def table(params, m_max):
        logs = np.linspace(-1.0, -2000.0, m_max)
        logs[-1] = bad
        return logs

    monkeypatch.setattr(cli.trial_chain, "tail_table", table)
    code = cli.run(["tail", "--p", "0.5", "--gamma", "1", "--m-max", str(cli._BLOCK + 3),
                    "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: Out of range float values are not JSON compliant\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_trailing_log_exits_before_output(monkeypatch, capsys, fmt, bad):
    real = trial_chain.pmf_table

    def table(params, n_max):
        t = real(params, n_max)
        return type(t)(start=t.start, log_probs=t.log_probs, log_tail=bad)

    monkeypatch.setattr(cli.trial_chain, "pmf_table", table)
    code = cli.run(["pmf", "--p", "0.5", "--gamma", "1", "--n-max", "5", "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: Out of range float values are not JSON compliant\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_streams_through_current_stdout(capsys, fmt):
    argv = ["tail", "--p", "0.5", "--gamma", "0.7", "--m-max", str(cli._BLOCK + 2),
            "--format", fmt]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    result = cli._cmd_tail(cli._build_parser().parse_args(argv))
    render = oracles.render_json if fmt == "json" else oracles.render_csv
    assert out == render(result)
