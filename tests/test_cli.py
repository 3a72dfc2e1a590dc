"""Command-line surface: envelopes, renderings, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import oracles
from citechain import cli, streams


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnvelope:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--p", "0.5", "--gamma", "1", "--n-max", "5")
        assert code == 0
        parsed = json.loads(out)
        assert set(parsed) == {"command", "params", "payload", "diagnostics"}
        # re-emitting under the documented encoder settings reproduces the
        # output byte for byte
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.rstrip("\n")

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--p", "0.5", "--gamma", "1", "--n-max", "3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,probability"


class TestPmfCommand:
    def test_geometric_values(self, capsys):
        env = run_json(capsys, "pmf", "--p", "0.5", "--gamma", "0", "--n-max", "3")
        assert env["payload"]["probabilities"] == pytest.approx([0.5, 0.25, 0.125])
        assert env["payload"]["start"] == 1
        assert env["payload"]["tail"] == pytest.approx(0.125)

    def test_conditional_requires_improper(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--p", "0.5", "--gamma", "1", "--n-max", "3", "--conditional"
        )
        assert code == 1
        assert "error:" in err and "gamma > 1" in err

    def test_conditional_normalizes(self, capsys):
        env = run_json(
            capsys, "pmf", "--p", "0.5", "--gamma", "2", "--n-max", "2000", "--conditional"
        )
        p = env["payload"]
        assert sum(p["probabilities"]) + p["tail"] == pytest.approx(1.0, abs=1e-9)
        assert p["probabilities"][0] == pytest.approx(0.5 / (1.0 - 0.3581877860132440177))

    def test_conditional_tail_cell_against_mpmath(self, capsys):
        # the tail lies 16 orders below the improper mass: a difference of
        # two numbers near that mass would leave it 39% off
        pytest.importorskip("mpmath")
        code, out, err = run_cli(
            capsys, "pmf", "--p", "0.5", "--gamma", "4", "--n-max", "100000", "--conditional",
            "--format", "csv",
        )
        assert (code, err) == (0, "")
        label, cell = out.splitlines()[-1].split(",")
        _, want = oracles.conditional_law_mp(0.5, 4.0, 10**5)
        assert label == "tail" and float(cell) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            # the improper mass rounds to 1.0, so ln(1 - mass) must come from its log
            ("--p", "1e-300", "--gamma", "2", "--n-max", "3"),
            # 1 - P{X = inf | X > 100} underflows; the tail prints 0.0
            ("--p", "0.5", "--gamma", "200", "--n-max", "100"),
        ],
    )
    def test_conditional_extremes(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, "pmf", *argv, "--conditional", "--format", fmt)
        assert (code, err) == (0, "")
        assert "nan" not in out.lower() and "inf" not in out.lower()

    def test_deep_cell_emitted_in_log_form(self, capsys):
        env = run_json(capsys, "pmf", "--p", "0.999", "--gamma", "0", "--n-max", "200")
        deep = env["payload"]["probabilities"][-1]
        assert isinstance(deep, dict) and set(deep) == {"log_value"}
        expected = math.log(0.999) + 199 * math.log(0.001)
        assert deep["log_value"] == pytest.approx(expected, rel=1e-12)

    def test_deep_cell_csv_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--p", "0.999", "--gamma", "0", "--n-max", "200",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[200].startswith("200,log:-")


class TestTailCommand:
    def test_sibuya_values(self, capsys):
        env = run_json(capsys, "tail", "--p", "0.5", "--gamma", "1", "--m-max", "4")
        assert env["payload"]["tails"] == pytest.approx([1.0, 0.5, 0.375, 0.3125])

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail", "--p", "0.5", "--gamma", "1", "--m-max", "2", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[1] == "1,1.0"
        assert lines[2] == "2,0.5"


class TestImproperMass:
    def test_value(self, capsys):
        env = run_json(capsys, "improper-mass", "--p", "0.5", "--gamma", "2")
        assert env["payload"]["improper_mass"] == pytest.approx(
            0.3581877860132440177, abs=5e-15
        )

    def test_proper_regime_zero(self, capsys):
        env = run_json(capsys, "improper-mass", "--p", "0.5", "--gamma", "1")
        assert env["payload"]["improper_mass"] == 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("improper-mass", "--p", "0.999", "--gamma", "1.5"),
            ("pmf", "--p", "0.997", "--gamma", "3", "--n-max", "5", "--conditional"),
        ],
    )
    def test_p_near_one(self, capsys, argv, fmt):
        # the series once gave up after 10,000 terms here
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out


class TestAsymCommand:
    def test_payload(self, capsys):
        env = run_json(
            capsys, "asym", "--p", "0.5", "--gamma", "0.7", "--grid", "1000,3000,10000"
        )
        p = env["payload"]
        assert p["constant"] == pytest.approx(2.4914506268324415, rel=1e-6)
        assert p["spread"] < 0.02
        assert p["regime"] == "fractional_non_integer"
        assert len(p["ratios"]) == 3

    def test_overflowing_ratios_print_in_log_form(self, capsys):
        # near 1/gamma = 3 the non-integer branch's 1/(1 - 3 gamma) term puts
        # the log ratios far above the float range
        argv = ("asym", "--p", "0.5", "--gamma", "0.333333", "--grid", "1000,3000,10000")
        p = run_json(capsys, *argv)["payload"]
        assert min(p["log_ratios"]) > 709.0
        assert p["ratios"] == [{"log_value": lr} for lr in p["log_ratios"]]
        assert p["constant"] == {"log_value": p["log_ratios"][-1]}
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert rows["constant"] == f"log:{p['log_ratios'][-1]!r}"
        assert rows["10000"] == rows["constant"]

    @pytest.mark.parametrize("grid, message", [
        ("10000,10", "increasing"),
        ("1000,1000,1000", "increasing"),
        ("1,1000,10000", "increasing"),
        ("a,b,c", "comma-separated"),
    ])
    def test_bad_grid(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "asym", "--p", "0.5", "--gamma", "0.7", "--grid", grid)
        assert (code, out) == (1, "")
        assert message in err


class TestGrowingPmf:
    def test_values(self, capsys):
        env = run_json(capsys, "growing-pmf", "--q", "0.5", "--gamma", "1", "--n-max", "5")
        probs = env["payload"]["probabilities"]
        assert probs[0] == 0.5
        assert sum(probs) + env["payload"]["tail"] == pytest.approx(1.0, abs=1e-12)

    def test_deep_tail_log_form(self, capsys):
        env = run_json(capsys, "growing-pmf", "--q", "0.5", "--gamma", "1", "--n-max", "200")
        tail = env["payload"]["tail"]
        assert isinstance(tail, dict) and tail["log_value"] < -900.0
        code, out, _ = run_cli(
            capsys, "growing-pmf", "--q", "0.5", "--gamma", "1", "--n-max", "200",
            "--format", "csv",
        )
        assert out.splitlines()[-1].startswith("tail,log:-")


class TestAuthorPmf:
    ARGV = ("author-pmf", "--p", "0.5", "--q", "0.5", "--s-max", "40")

    def test_methods_agree(self, capsys):
        # --method is kept for compatibility: both values print the series
        oracle = run_json(capsys, *self.ARGV)
        hyp = run_json(capsys, *self.ARGV, "--method", "hyp")
        assert hyp["payload"] == oracle["payload"]
        assert hyp["params"]["method"] == "hyp"
        assert oracle["params"]["method"] == "oracle"
        assert oracle["payload"]["probabilities"][0] == pytest.approx(1.0 - math.sqrt(0.5))
        _, oracle_csv, _ = run_cli(capsys, *self.ARGV, "--format", "csv")
        _, hyp_csv, _ = run_cli(capsys, *self.ARGV, "--method", "hyp", "--format", "csv")
        assert hyp_csv == oracle_csv

    @pytest.mark.parametrize("method", ["hyp", "oracle"])
    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
    def test_negative_s_max_exits_1(self, capsys, method, fmt):
        code, out, err = run_cli(
            capsys, "author-pmf", "--p", "0.5", "--q", "0.5", "--s-max", "-1",
            "--method", method, *fmt,
        )
        assert code == 1
        assert out == ""
        assert err == "error: s_max must be >= 0, got -1\n"

    def test_tail_complement(self, capsys):
        env = run_json(capsys, "author-pmf", "--p", "0.5", "--q", "0.5", "--s-max", "100")
        p = env["payload"]
        assert p["start"] == 0
        assert sum(p["probabilities"]) + p["tail"] == pytest.approx(1.0, abs=1e-12)


class TestHirschPmf:
    def test_payload(self, capsys):
        env = run_json(capsys, "hirsch-pmf", "--p", "0.5", "--q", "0.5", "--h-max", "50")
        p = env["payload"]
        assert p["probabilities"][0] == 0.5
        assert p["probabilities"][1] == pytest.approx(0.25)
        assert p["probabilities"][2] == pytest.approx(2.0 / 27.0)
        assert p["normalization_deficit"] == pytest.approx(0.1583116636661382, abs=1e-12)

    def test_csv_has_deficit_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "hirsch-pmf", "--p", "0.5", "--q", "0.5", "--h-max", "3",
            "--format", "csv",
        )
        assert out.splitlines()[-1].startswith("normalization_deficit,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_h_max_zero_exits_1(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "hirsch-pmf", "--p", "0.5", "--q", "0.5", "--h-max", "0", "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert err == "error: h_max must be >= 1, got 0\n"


class TestSampleCommand:
    def test_trial_deterministic_in_process(self, capsys):
        argv = ("sample", "--model", "trial", "--p", "0.5", "--gamma", "1",
                "--count", "10", "--seed", "42")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_trial_draws_do_not_depend_on_count(self, capsys):
        argv = ("sample", "--model", "trial", "--p", "0.5", "--gamma", "1", "--seed", "1")
        ten = run_json(capsys, *argv, "--count", "10")["payload"]["values"]
        eleven = run_json(capsys, *argv, "--count", "11")["payload"]["values"]
        assert eleven[:10] == ten

    def test_trial_payload_and_derivation(self, capsys):
        env = run_json(
            capsys, "sample", "--model", "trial", "--p", "0.5", "--gamma", "1",
            "--count", "10", "--seed", "42",
        )
        assert len(env["payload"]["values"]) == 10
        assert "SeedSequence(42)" in env["diagnostics"]["stream_derivation"]
        assert "censoring_fraction" in env["diagnostics"]

    def test_trial_censoring_payload(self, capsys):
        # gamma > 1 with a tiny cap guarantees censored chains
        env = run_json(
            capsys, "sample", "--model", "trial", "--p", "0.5", "--gamma", "2",
            "--count", "40", "--seed", "7", "--cap", "3",
        )
        values = env["payload"]["values"]
        censored = [v for v in values if isinstance(v, dict)]
        assert censored and all(v == {"censored_at": 3} for v in censored)
        frac = env["diagnostics"]["censoring_fraction"]
        assert frac == pytest.approx(len(censored) / 40)
        assert env["payload"]["censored_count"] == len(censored)

    def test_author_requires_q(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--model", "author", "--p", "0.5",
            "--count", "5", "--seed", "1",
        )
        assert code == 1 and "requires --q" in err

    def test_author_fixes_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--model", "author", "--p", "0.5", "--q", "0.5",
            "--gamma", "0.5", "--count", "5", "--seed", "1",
        )
        assert code == 1 and "gamma" in err

    def test_author_payload(self, capsys):
        env = run_json(
            capsys, "sample", "--model", "author", "--p", "0.5", "--q", "0.5",
            "--count", "20", "--seed", "42",
        )
        papers = env["payload"]["papers"]
        citations = env["payload"]["citations"]
        assert len(papers) == len(citations) == 20
        assert min(papers) >= 1 and min(citations) >= 0

    def test_hirsch_modes(self, capsys):
        env = run_json(
            capsys, "sample", "--model", "hirsch", "--p", "0.5", "--q", "0.5",
            "--count", "60", "--seed", "11", "--cap", "100000",
        )
        h = env["payload"]["h"]
        assert len(h) == 60
        assert env["payload"]["no_match_count"] == sum(1 for v in h if v is None)
        assert env["payload"]["no_match_count"] > 0  # ~16% of draws at these params
        env = run_json(
            capsys, "sample", "--model", "hirsch", "--p", "0.5", "--q", "0.5",
            "--count", "60", "--seed", "11", "--cap", "100000",
            "--hirsch-mode", "true",
        )
        assert env["payload"]["no_match_count"] == 0
        assert all(isinstance(v, int) for v in env["payload"]["h"])

    def test_count_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--model", "trial", "--p", "0.5", "--gamma", "1",
            "--count", "0", "--seed", "1",
        )
        assert code == 1 and "count" in err
        with pytest.raises(ValueError, match="count must be >= 0"):
            streams.derive_streams(1, -1)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("q", ["0.5", "nan"])
    def test_trial_rejects_q(self, capsys, q, fmt):
        code, out, err = run_cli(
            capsys, "sample", "--model", "trial", "--p", "0.5", "--q", q,
            "--count", "3", "--seed", "1", "--format", fmt,
        )
        assert (code, out, err) == (1, "", "error: --model trial takes no --q\n")


class TestAnalyzeCommand:
    def test_physics_json(self, capsys):
        env = run_json(capsys, "analyze", "--fixture", "physics")
        p = env["payload"]
        assert p["rho1"] == pytest.approx(0.35735, abs=1e-4)
        assert p["rho2"] == pytest.approx(-0.57292, abs=1e-4)
        assert p["h_mean"] == pytest.approx(198.2, abs=0.05)
        assert p["kappa_le_5_count"] == 1
        assert p["kappa_5_6_count"] == 6
        assert len(p["kappa"]) == 10

    def test_physics_csv_rounding(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--fixture", "physics", "--format", "csv")
        cells = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert cells["kappa_5"] == "4.88"
        assert cells["h_sample_sd"] == "21.73"
        # full ratio 5.5051 presents as 5.51 under plain 2 dp rounding
        assert cells["kappa_9"] == "5.51"
        assert cells["kappa_le_5_count"] == "1"

    def test_csv_input_file(self, capsys, tmp_path):
        path = tmp_path / "listing.csv"
        path.write_text(
            "rank,total_citations,h_index,max_paper_citations\n"
            "1,400,10,100\n2,90,3,40\n",
            encoding="utf-8",
        )
        env = run_json(capsys, "analyze", "--input", str(path))
        assert env["payload"]["kappa"] == [4.0, 10.0]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "/no/such/file.csv")
        assert code == 1 and "error:" in err

    def test_fixture_and_input_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "analyze", "--fixture", "physics", "--input", "x.csv"
        )
        assert code == 2


class TestExitCodes:
    def test_out_of_range_parameter(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--p", "1.5", "--gamma", "1", "--n-max", "3")
        assert code == 1
        assert err.startswith("error:")

    def test_negative_gamma(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--p", "0.5", "--gamma", "-1", "--n-max", "3")
        assert code == 1

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "pmf", "--p", "0.5")[0] == 2  # missing required
        assert run_cli(capsys, "pmf", "--p", "x", "--gamma", "1", "--n-max", "3")[0] == 2
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys)[0] == 2
        assert run_cli(
            capsys, "pmf", "--p", "0.5", "--gamma", "1", "--n-max", "3",
            "--format", "xml",
        )[0] == 2


class TestStrictJson:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command,param", [("pmf", "--p"), ("growing-pmf", "--q")])
    def test_infinite_gamma_rejected(self, capsys, command, param, fmt):
        code, out, err = run_cli(
            capsys, command, param, "0.5", "--gamma", "inf", "--n-max", "3", "--format", fmt
        )
        assert (code, out) == (1, "")
        assert err == "error: gamma must be finite, got inf\n"

    def test_non_finite_value_exits_1(self, capsys, monkeypatch):
        # no documented input reaches a NaN any more; a patched kernel stands
        # in for one, to show that strict rendering turns it into exit 1
        monkeypatch.setattr(cli.trial_chain, "improper_mass", lambda params: math.nan)
        code, out, err = run_cli(capsys, "improper-mass", "--p", "0.5", "--gamma", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")


class TestMemoryError:
    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB")])
    def test_exits_1_with_message(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.trial_chain, "sample_many", fail)
        code, out, err = run_cli(
            capsys, "sample", "--model", "trial", "--p", "0.5", "--gamma", "0.5",
            "--count", "3", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {str(exc) or 'out of memory'}\n"


class TestSubprocess:
    def test_module_entry_point_byte_identical(self):
        argv = [
            sys.executable, "-m", "citechain", "sample", "--model", "trial",
            "--p", "0.5", "--gamma", "1", "--count", "10", "--seed", "42",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["command"] == "sample"

    def test_console_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "citechain", "pmf", "--p", "2", "--gamma", "1",
             "--n-max", "3"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_bytes_do_not_follow_blas_threads(self):
        # at q = 0.05 the author series' dot products pass 10,000 terms past
        # s = 10,000, where a multi-threaded OpenBLAS splits them and rounds
        # differently; the entry pins one thread whatever the environment says
        argv = [
            sys.executable, "-m", "citechain", "author-pmf", "--p", "0.5", "--q", "0.05",
            "--s-max", "20000", "--format", "csv",
        ]
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        outs = [
            subprocess.run(argv, capture_output=True, check=True, env=run_env).stdout
            for run_env in (
                dict(env, OPENBLAS_NUM_THREADS="1"), dict(env, OPENBLAS_NUM_THREADS="2"), env
            )
        ]
        assert outs[1] == outs[0]
        assert outs[2] == outs[0]
