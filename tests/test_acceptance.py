"""Acceptance gate: one test per numbered capability criterion.

Each test drives the library exactly the way the corresponding criterion
states (through the CLI where the criterion names it) and asserts the
stated tolerance, nothing looser.  Monte Carlo checks derive their
generators from the master seed 20260814, so every run is deterministic.

Two clauses are strict xfails: the stated tolerance is unattainable for
the law actually implemented, and the test documents the measured value
and the reason rather than weakening the bound.  The conftest terminal
summary prints one line per criterion.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import oracles
from citechain import author_model, cli, hirsch, scientometrics as sm, streams, trial_chain

MASTER_SEED = 20260814


def _stream(index: int) -> np.random.Generator:
    # all three children are derived every time so each test's stream does
    # not depend on which other tests ran first
    return streams.derive_streams(MASTER_SEED, 3)[index]


# published kappa columns (rank order); physics rank 9 prints 5.50 for a
# full-precision ratio of 5.5051, so agreement means |computed - published|
# below one rounding step, not equality after rounding
PUBLISHED_KAPPA = {
    "mathematics": (6.15, 16.92, 7.36, 33.89, 29.20, 16.31, 24.50, 36.86, 8.05, 14.27),
    "biostatistics": (9.29, 17.32, 5.85, 4.69, 6.97, 13.07, 13.67, 9.67, 5.54, 8.16),
    "physics": (7.70, 5.21, 6.01, 5.47, 4.88, 5.36, 10.49, 5.50, 5.50, 5.04),
}


def _analyze(capsys, name: str) -> dict:
    code = cli.run(["analyze", "--fixture", name])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["payload"]


def test_c01_table_reproduction(capsys):
    """analyze --fixture reproduces every published table statistic."""
    t0 = time.perf_counter()
    payloads = {name: _analyze(capsys, name) for name in PUBLISHED_KAPPA}
    elapsed = time.perf_counter() - t0

    mat = payloads["mathematics"]
    assert mat["h_mean"] == pytest.approx(99.3, abs=0.05)
    assert mat["h_sample_sd"] == pytest.approx(66.45, abs=0.005)
    assert mat["rho1"] == pytest.approx(0.94, abs=0.01)
    assert mat["rho2"] == pytest.approx(-0.23, abs=0.01)

    bio = payloads["biostatistics"]
    assert bio["h_mean"] == pytest.approx(153.8, abs=0.05)
    assert bio["h_sample_sd"] == pytest.approx(47.97, abs=0.005)
    assert bio["rho1"] == pytest.approx(0.702, abs=0.01)
    assert bio["rho2"] == pytest.approx(0.0, abs=0.05)

    phys = payloads["physics"]
    assert phys["h_mean"] == pytest.approx(198.2, abs=0.05)
    assert phys["h_sample_sd"] == pytest.approx(21.73, abs=0.005)
    assert phys["rho1"] == pytest.approx(0.36, abs=0.01)
    assert phys["rho2"] == pytest.approx(-0.57, abs=0.01)

    for name, published in PUBLISHED_KAPPA.items():
        computed = payloads[name]["kappa"]
        assert len(computed) == 10
        for got, want in zip(computed, published):
            assert abs(got - want) < 0.01

    rows = sm.load_dataset("mathematics")
    assert rows[0].total_citations / rows[1].total_citations == pytest.approx(2.76, abs=0.01)
    rows = sm.load_dataset("biostatistics")
    assert rows[0].total_citations / rows[1].total_citations == pytest.approx(1.59, abs=0.01)

    assert elapsed < 1.0


def test_c02_normalization_grid():
    """sum of the first 1e4 pmf values plus the tail is 1 to 1e-12."""
    t0 = time.perf_counter()
    for p in (0.2, 0.5, 0.8):
        for gamma in (0.0, 0.3, 0.5, 0.7, 1.0):
            params = trial_chain.TrialChainParams(p, gamma)
            table = trial_chain.pmf_table(params, 10**4)
            total = math.fsum(table.probs) + trial_chain.tail(params, 10**4 + 1)
            assert abs(total - 1.0) <= 1e-12, (p, gamma, total)
    assert time.perf_counter() - t0 < 5.0


def test_c03_closed_form_tail_and_pmf_band():
    """gamma = 1: product tail matches the gamma-ratio closed form; the
    pmf times n^(p+1) Gamma(1-p)/p sits within 0.1% of 1 at n = 1e5."""
    for p in (0.1, 0.5, 0.9):
        params = trial_chain.TrialChainParams(p, 1.0)
        tails = np.exp(trial_chain.tail_table(params, 10**4))
        closed = np.array(
            [trial_chain.sibuya_tail_closed(p, m) for m in range(1, 10**4 + 1)]
        )
        assert float(np.max(np.abs(tails / closed - 1.0))) <= 1e-10
        band = (
            trial_chain.pmf(params, 10**5)
            * float(10**5) ** (p + 1.0)
            * math.gamma(1.0 - p)
            / p
        )
        assert 0.999 <= band <= 1.001, (p, band)


def test_c04_asymptote_sign_certification():
    """With the convergent exponent sign the pmf/shape ratio stabilizes
    (spread < 5% over the top half of the grid); with the sign flipped it
    runs away by far more than a factor of 10."""
    t0 = time.perf_counter()
    grid = (1000, 3000, 10000)
    for p, gamma in ((0.5, 0.7), (0.5, 0.5), (0.3, 0.25)):
        params = trial_chain.TrialChainParams(p, gamma)
        good = [
            trial_chain.log_pmf(params, n) - trial_chain.log_asym_pmf_shape(params, n)
            for n in grid
        ]
        bad = [
            trial_chain.log_pmf(params, n) - oracles.log_asym_shape_printed(params, n)
            for n in grid
        ]
        top = good[1:]
        assert math.expm1(max(top) - min(top)) < 0.05, (p, gamma, top)
        assert max(bad) - min(bad) > math.log(10.0), (p, gamma, bad)
    assert time.perf_counter() - t0 < 10.0


def test_c05_improper_regime_censoring_and_conditional():
    """(0.5, 2): the censored fraction of 1e5 capped chains agrees with the
    never-succeeding mass at 3 standard errors, and conditional_pmf * n^2
    moves under 1% between n = 1e4 and 1e5."""
    params = trial_chain.TrialChainParams(0.5, 2.0)
    mass = trial_chain.improper_mass(params)
    # cap = 1000 leaves P{finite X > cap} ~ 2.8e-4, an order of magnitude
    # below the Monte Carlo standard error, so censored ~= never-succeeding
    _, censored = trial_chain.sample_many(params, _stream(0), 100_000, cap=1000)
    se = math.sqrt(mass * (1.0 - mass) / 100_000)
    assert abs(float(censored.mean()) - mass) <= 3.0 * se

    r1 = trial_chain.conditional_pmf(params, 10**4) * float(10**4) ** 2
    r2 = trial_chain.conditional_pmf(params, 10**5) * float(10**5) ** 2
    assert abs(r1 / r2 - 1.0) < 0.01


@pytest.mark.xfail(
    strict=True,
    reason="the finite part of the law is ~0.179/n^2 in the far tail, so"
    " truncating at n = 1e5 leaves 1.790934e-6 of finite mass unaccounted,"
    " above the stated 1e-6; the identity itself is exact (see"
    " test_c05_improper_regime_censoring_and_conditional for the convergent"
    " checks)",
)
def test_c05_truncation_clause_xfail():
    """|improper_mass - (1 - sum_{n<=1e5} pmf)| < 1e-6 cannot hold: the
    difference IS the finite tail beyond 1e5, and that tail is 1.79e-6."""
    params = trial_chain.TrialChainParams(0.5, 2.0)
    mass = trial_chain.improper_mass(params)
    table = trial_chain.pmf_table(params, 10**5)
    assert abs(mass - (1.0 - math.fsum(table.probs))) < 1e-6


def test_c06_compound_oracle_equivalence_and_mc():
    """The compound pmf agrees with coefficients of the composed generating
    functions to 1e-10 for s <= 100 on the parameter grid, and a 1e6-draw
    mechanical simulation matches the cells s <= 10 at 3 sigma."""
    t0 = time.perf_counter()
    for p in (0.2, 0.5, 0.8):
        for q in (0.2, 0.5, 0.8):
            ap = author_model.AuthorParams(p, q)
            chain = trial_chain.pmf_table(trial_chain.TrialChainParams(p, 1.0), 3000)
            outer = np.concatenate(([0.0], chain.probs))
            inner = q * (1.0 - q) ** np.arange(101, dtype=np.float64)
            composed = oracles.compose_pgf(outer, inner, 100)
            for s in range(101):
                assert abs(author_model.author_pmf(ap, s) - composed[s]) <= 1e-10

    ap = author_model.AuthorParams(0.5, 0.5)
    rng = _stream(1)
    cap = 10**5
    papers, censored = trial_chain.sample_many(
        trial_chain.TrialChainParams(0.5, 1.0), rng, 10**6, cap=cap
    )
    totals = rng.negative_binomial(papers[~censored], 0.5)
    # P{S <= 10 and X > cap} < q^(cap-10): zero to double precision, so
    # conditioning on the uncensored event rescales every small-s cell by
    # exactly 1/(1 - P{X > cap})
    censor_prob = trial_chain.tail(trial_chain.TrialChainParams(0.5, 1.0), cap + 1)
    n_unc = int(totals.size)
    for s in range(11):
        expected = author_model.author_pmf(ap, s) / (1.0 - censor_prob)
        observed = int((totals == s).sum())
        sigma = math.sqrt(n_unc * expected * (1.0 - expected))
        assert abs(observed - n_unc * expected) <= 3.0 * sigma, (s, observed)
    assert time.perf_counter() - t0 < 30.0


def test_c07_laplace_asymptote():
    """exact/asymptote transform-tail ratio reaches 1 at the stated rates."""
    ap = author_model.AuthorParams(0.5, 0.5)
    for t, tol in ((1e-3, 1e-3), (1e-6, 1e-6)):
        ratio = author_model.laplace_tail_exact(ap, t) / author_model.laplace_tail_asym(ap, t)
        assert abs(ratio - 1.0) <= tol, (t, ratio)


def test_c08_hirsch_law():
    """Closed form vs direct summation to 1e-10 for h <= 20, hand values to
    1e-12, and a 1e6-draw paper-event simulation matching h <= 8 at 3 sigma."""
    t0 = time.perf_counter()
    hp = hirsch.HirschParams(0.5, 0.5)
    for h in range(21):
        closed = hirsch.hirsch_pmf(hp, h)
        direct = oracles.hirsch_pmf_direct(hp, h, l_max=1000)
        assert abs(closed - direct) <= 1e-10, h

    assert abs(hirsch.hirsch_pmf(hp, 0) - 0.5) <= 1e-12
    assert abs(hirsch.hirsch_pmf(hp, 1) - 0.25) <= 1e-12
    assert abs(hirsch.hirsch_pmf(hp, 2) - 2.0 / 27.0) <= 1e-12

    # citation_cap = 1e4 keeps every h <= 8 comparison exact (a censored
    # chain still counts as >= any rank threshold in play) while cutting the
    # mean trial count per chain to ~113
    h_vals, valid = hirsch.simulate_hirsch_many(hp, _stream(2), 10**6, citation_cap=10**4)
    for h in range(9):
        expected = hirsch.hirsch_pmf(hp, h)
        observed = int(((h_vals == h) & valid).sum())
        sigma = math.sqrt(10**6 * expected * (1.0 - expected))
        assert abs(observed - 10**6 * expected) <= 3.0 * sigma, (h, observed)
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="ln pmf(h)/(h ln h) = -0.56275 at h = 1e4, 12.6% from the -p"
    " limit; the approach is -p + ln(c)/ln(h) with c = (1-q)/(q Gamma(1-p)),"
    " so a 5% window first opens around h ~ 1e10",
)
def test_c08_log_tail_clause_xfail():
    """The log-tail diagnostic is asked to sit within 5% of -p at h = 1e4;
    the logarithmically slow constant term still dominates there."""
    hp = hirsch.HirschParams(0.5, 0.5)
    [(_, ratio)] = hirsch.log_tail_diagnostic(hp, [10**4])
    assert abs(ratio - (-0.5)) <= 0.05 * 0.5


def test_c09_tail_weight_contrast():
    """The index law has a light tail (h^2-weighted increments vanish by
    h = 500) while the citation-total law has an infinite mean (partial
    first moments keep growing: the 1e4 partial is over twice the 1e3 one)."""
    hp = hirsch.HirschParams(0.5, 0.5)
    increments = [h * h * hirsch.hirsch_pmf(hp, h) for h in range(500, 601)]
    assert max(increments) < 1e-8

    ap = author_model.AuthorParams(0.5, 0.5)
    series = author_model.author_pmf_series(ap, 10**4)
    weights = np.arange(series.size, dtype=np.float64) * series
    partial_1e3 = float(np.sum(weights[: 10**3 + 1]))
    partial_1e4 = float(np.sum(weights))
    assert partial_1e4 > 2.0 * partial_1e3


def test_c10_growing_chain_law():
    """Rising-success chain: telescoping normalization at N = 50 to 1e-12
    across the (q, gamma) grid; the (0.5, 1) tail at m = 5 is 0.5^4/4!."""
    for q in (0.3, 0.5, 0.8):
        for gamma in (0.5, 1.0, 2.0):
            params = trial_chain.GrowingChainParams(q, gamma)
            total = math.fsum(
                trial_chain.growing_pmf(params, n) for n in range(1, 51)
            ) + trial_chain.growing_tail(params, 51)
            assert abs(total - 1.0) <= 1e-12, (q, gamma, total)
    tail5 = trial_chain.growing_tail(trial_chain.GrowingChainParams(0.5, 1.0), 5)
    assert tail5 == pytest.approx(0.5**4 / 24.0, rel=1e-14, abs=0.0)
