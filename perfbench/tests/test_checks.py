"""Every output check accepts the program's output and rejects a perturbed one.

Correct outputs come from citechain itself at small sizes; the perturbations
are the smallest that a check must see (one value off by a relative 1e-9,
a bare NaN token, a shifted sample).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks
import references as ref
from checks import CheckError, Checker


def _perturb_json(text: str, path: list, index: int, factor: float = 1 + 1e-9) -> str:
    doc = json.loads(text)
    node = doc
    for key in path:
        node = node[key]
    value = node[index]
    if isinstance(value, dict):
        node[index] = {"log_value": value["log_value"] * factor}
    else:
        node[index] = value * factor
    return json.dumps(doc)


def _perturb_csv(text: str, row: int, factor: float = 1 + 1e-9) -> str:
    lines = text.split("\n")
    index, cell = lines[row].split(",")
    if cell.startswith("log:"):
        cell = f"log:{float(cell[4:]) * factor!r}"
    else:
        cell = repr(float(cell) * factor)
    lines[row] = f"{index},{cell}"
    return "\n".join(lines)


def _accepts_and_rejects(check, good, bad_outputs):
    Checker(listing=LISTING).cli(check, good)
    for bad in bad_outputs:
        with pytest.raises(CheckError):
            Checker(listing=LISTING).cli(check, bad)


LISTING = [(1, 448557, 270, 28303), (2, 162457, 98, 44406), (3, 159123, 147, 26929),
           (4, 138820, 64, 110393), (5, 101662, 59, 35640)]


def test_strict_json_rejects_nan_and_infinity():
    assert checks.parse_json_strict('{"a": [0.5]}') == {"a": [0.5]}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(CheckError):
            checks.parse_json_strict('{"a": [%s]}' % token)


@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_tail_json(run_cli, gamma):
    good = run_cli("tail", "--p", 0.4, "--gamma", gamma, "--m-max", 3000)
    check = {"kind": "tail", "p": 0.4, "gamma": gamma, "m_max": 3000, "format": "json"}
    nan = good.replace(json.dumps(json.loads(good)["payload"]["tails"][7]), "NaN", 1)
    _accepts_and_rejects(check, good, [
        _perturb_json(good, ["payload", "tails"], 2000),
        _perturb_json(good, ["payload", "tails"], 0),
        nan,
    ])


def test_tail_csv(run_cli):
    good = run_cli("tail", "--p", 0.4, "--gamma", 0.7, "--m-max", 3000, "--format", "csv")
    check = {"kind": "tail", "p": 0.4, "gamma": 0.7, "m_max": 3000, "format": "csv"}
    lines = good.split("\n")
    swapped = "\n".join(lines[:5] + [lines[6], lines[5]] + lines[7:])
    _accepts_and_rejects(check, good, [_perturb_csv(good, 2500), swapped, good.replace("m,tail", "n,tail")])


@pytest.mark.parametrize("gamma,conditional", [(0.7, False), (2.0, True)])
def test_pmf(run_cli, gamma, conditional):
    argv = ["pmf", "--p", 0.45, "--gamma", gamma, "--n-max", 2000]
    good = run_cli(*argv, *(["--conditional"] if conditional else []))
    check = {"kind": "pmf", "p": 0.45, "gamma": gamma, "n_max": 2000, "conditional": conditional}
    doc = json.loads(good)
    doc["payload"]["tail"] = doc["payload"]["tail"] * (1 + 1e-6)
    _accepts_and_rejects(check, good, [
        _perturb_json(good, ["payload", "probabilities"], 1500),
        json.dumps(doc),
    ])


def test_growing(run_cli):
    good = run_cli("growing-pmf", "--q", 0.5, "--gamma", 1.2, "--n-max", 400)
    check = {"kind": "growing", "q": 0.5, "gamma": 1.2, "n_max": 400}
    want = ref.growing_log_pmf(0.5, 1.2, np.arange(1, 401))

    def with_entry(index, value):
        doc = json.loads(good)
        doc["payload"]["probabilities"][index] = value
        return json.dumps(doc)

    # an entry the program prints as a log_value inside the float range
    printed = int(np.flatnonzero((want < checks.LOG_FLOOR) & (want > -720.0))[0])
    assert isinstance(json.loads(good)["payload"]["probabilities"][printed], dict)
    _accepts_and_rejects(check, good, [
        _perturb_json(good, ["payload", "probabilities"], 20),
        with_entry(399, 1e-200),  # far above its true value, which underflows
        # a log_value far below the subnormal range is held to the log tolerance
        with_entry(399, {"log_value": float(want[399]) + 300.0}),
        with_entry(399, {"log_value": float(want[399]) * (1 + 1e-9)}),
        # 0.0 only where the reference is itself within a few subnormal steps of 0
        with_entry(printed, 0.0),
        with_entry(printed, {"log_value": float(want[printed]) * (1 + 1e-9)}),
    ])
    # a log_value that is exact where the program prints 0.0 is accepted
    Checker().cli(check, with_entry(399, {"log_value": float(want[399])}))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hirsch(run_cli, fmt):
    good = run_cli("hirsch-pmf", "--p", 0.5, "--q", 0.4, "--h-max", 3000, "--format", fmt)
    check = {"kind": "hirsch", "p": 0.5, "q": 0.4, "h_max": 3000, "format": fmt}
    if fmt == "json":
        bad_value = _perturb_json(good, ["payload", "probabilities"], 2500)
        doc = json.loads(good)
        doc["payload"]["normalization_deficit"] *= 1.001
        bad_deficit = json.dumps(doc)
    else:
        bad_value = _perturb_csv(good, 2501)
        lines = good.rstrip("\n").split("\n")
        name, value = lines[-1].split(",")
        bad_deficit = "\n".join(lines[:-1] + [f"{name},{float(value) * 1.001!r}"]) + "\n"
    _accepts_and_rejects(check, good, [bad_value, bad_deficit])


@pytest.mark.parametrize("method", ["oracle", "hyp"])
def test_author(run_cli, method):
    good = run_cli("author-pmf", "--p", 0.3, "--q", 0.6, "--s-max", 300, "--method", method)
    check = {"kind": "author", "p": 0.3, "q": 0.6, "s_max": 300}
    _accepts_and_rejects(check, good, [_perturb_json(good, ["payload", "probabilities"], 250)])


def test_analyze(run_cli, tmp_path):
    path = tmp_path / "listing.csv"
    path.write_text("rank,total_citations,h_index,max_paper_citations\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in LISTING))
    good = run_cli("analyze", "--input", path)
    doc = json.loads(good)
    doc["payload"]["rho2"] += 1e-9
    _accepts_and_rejects({"kind": "analyze"}, good, [
        _perturb_json(good, ["payload", "kappa"], 3), json.dumps(doc)])


def _trial_sample(run_cli, p, gamma, count, cap):
    good = run_cli("sample", "--model", "trial", "--p", p, "--gamma", gamma,
                   "--count", count, "--cap", cap, "--seed", 11)
    check = {"kind": "sample_trial", "p": p, "gamma": gamma, "count": count, "cap": cap}
    return good, check


@pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0])
def test_trial_sampler(run_cli, gamma):
    good, check = _trial_sample(run_cli, 0.5, gamma, 20000, 100_000)
    doc = json.loads(good)
    values = doc["payload"]["values"]
    for i in range(0, len(values), 10):  # 10% of draws moved to 2
        values[i] = 2
    _accepts_and_rejects(check, good, [json.dumps(doc)])
    with pytest.raises(CheckError):
        Checker().cli(dict(check, p=0.55), good)


def test_censored_share(run_cli):
    good, check = _trial_sample(run_cli, 0.6, 2.0, 20000, 1000)
    doc = json.loads(good)
    values = doc["payload"]["values"]
    moved = 0
    for i, v in enumerate(values):  # 300 censored chains reported as finite
        if isinstance(v, dict) and moved < 300:
            values[i] = 1000
            moved += 1
    doc["payload"]["censored_count"] -= moved
    _accepts_and_rejects(check, good, [json.dumps(doc)])


@pytest.mark.parametrize("mode", ["paper", "true"])
def test_hirsch_sampler(run_cli, mode):
    good = run_cli("sample", "--model", "hirsch", "--p", 0.5, "--q", 0.5,
                   "--count", 20000, "--seed", 5, "--hirsch-mode", mode)
    check = {"kind": "sample_hirsch", "p": 0.5, "q": 0.5, "count": 20000, "mode": mode}
    doc = json.loads(good)
    h = doc["payload"]["h"]
    flipped = 0
    for i, v in enumerate(h):  # 400 authors with no paper given h = 1
        if v == 0 and flipped < 400:
            h[i] = 1
            flipped += 1
    _accepts_and_rejects(check, good, [json.dumps(doc)])


def _author_output(papers, cites):
    return json.dumps({"command": "sample", "params": {}, "diagnostics": {},
                       "payload": {"papers": papers.tolist(), "citations": cites.tolist()}})


def test_author_sampler():
    """The program cannot produce this output at scale yet; draw it from the
    reference law instead."""
    p, q, count, cap = 0.5, 0.5, 10_000, 1_000_000
    rng = np.random.default_rng(3)
    tails = np.exp(ref.log_tail_table(p, 1.0, cap + 1))
    u = rng.random(count)
    papers = np.minimum(np.searchsorted(-tails, -u, side="left"), cap)
    papers = np.maximum(papers, 1)
    cites = rng.negative_binomial(papers, q)
    check = {"kind": "sample_author", "p": p, "q": q, "count": count, "cap": cap}
    Checker().cli(check, _author_output(papers, cites))
    with pytest.raises(CheckError):
        Checker().cli(check, _author_output(papers, cites * 2))
    with pytest.raises(CheckError):
        Checker().cli(check, _author_output(np.ones(count, dtype=np.int64), cites))


def test_known_faults():
    author = {"kind": "sample_author"}
    assert checks.known_fault(author, "error: 7 of 10000 chains exceeded cap=1000000 papers")
    assert checks.known_fault(author, "error: something else") is None
    mass = {"kind": "improper_mass", "p": 0.999, "gamma": 1.5}
    message = "RuntimeError: improper_mass series failed to converge"
    assert checks.known_fault(mass, message)
    assert checks.known_fault(dict(mass, p=0.9), message) is None


def _api_cases():
    from citechain import author_model, hirsch, trial_chain

    tc = trial_chain.TrialChainParams
    est = trial_chain.estimate_constant(tc(0.5, 0.7))
    return [
        ({"kind": "trial", "func": "pmf", "p": 0.4, "gamma": 0.7, "n": 700},
         trial_chain.pmf(tc(0.4, 0.7), 700)),
        ({"kind": "trial", "func": "tail", "p": 0.4, "gamma": 1.0, "n": 900},
         trial_chain.tail(tc(0.4, 1.0), 900)),
        ({"kind": "trial", "func": "log_pmf", "p": 0.4, "gamma": 1.5, "n": 50},
         trial_chain.log_pmf(tc(0.4, 1.5), 50)),
        ({"kind": "trial", "func": "pmf", "p": 0.3, "gamma": 0.0, "n": 40},
         trial_chain.pmf(tc(0.3, 0.0), 40)),
        ({"kind": "improper_mass", "p": 0.7, "gamma": 1.2},
         trial_chain.improper_mass(tc(0.7, 1.2))),
        ({"kind": "conditional_pmf", "p": 0.5, "gamma": 2.0, "n": 7},
         trial_chain.conditional_pmf(tc(0.5, 2.0), 7)),
        ({"kind": "estimate_constant", "p": 0.5, "gamma": 0.7, "grid": [1000, 3000, 10000]},
         [est.constant, est.spread, *est.log_ratios]),
        ({"kind": "sibuya", "p": 0.3, "m": 123456}, trial_chain.sibuya_tail_closed(0.3, 123456)),
        ({"kind": "hirsch", "func": "hirsch_pmf", "p": 0.5, "q": 0.4, "h": 30},
         hirsch.hirsch_pmf(hirsch.HirschParams(0.5, 0.4), 30)),
        ({"kind": "hirsch", "func": "log_hirsch_pmf", "p": 0.5, "q": 0.4, "h": 3000},
         hirsch.log_hirsch_pmf(hirsch.HirschParams(0.5, 0.4), 3000)),
        ({"kind": "author_pmf", "p": 0.5, "q": 0.4, "s": 200},
         author_model.author_pmf(author_model.AuthorParams(0.5, 0.4), 200)),
        ({"kind": "growing_pmf", "q": 0.5, "gamma": 1.2, "n": 9},
         trial_chain.growing_pmf(trial_chain.GrowingChainParams(0.5, 1.2), 9)),
    ]


def test_library_calls():
    for check, value in _api_cases():
        Checker().call(check, value)
        if isinstance(value, list):
            bad = [value[0], value[1], value[2] + 1e-6, *value[3:]]
        else:
            bad = value * (1 + 1e-9)
        with pytest.raises(CheckError):
            Checker().call(check, bad)
        with pytest.raises(CheckError):
            Checker().call(check, math.nan)
