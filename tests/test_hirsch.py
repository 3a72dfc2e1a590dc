"""Analytic h-index law vs explicit-sum oracle vs vectorized simulation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from citechain import cli, hirsch, specfun, trial_chain
from citechain.hirsch import HirschMode, HirschParams

HALF_HALF = HirschParams(p=0.5, q=0.5)

# frozen at 64-bit from the log-space evaluator; the slow -p limit of the
# ratio ln pmf / (h ln h) carries a ln(c)/ln(h) correction, so even h = 1e5
# sits ~10% short of -0.5
DIAG_RATIOS = {
    10**3: -0.585367534813664,
    10**4: -0.5627505858963303,
    10**5: -0.5498694926515697,
}
NO_EVENT_MASS = 0.1583116636661382  # 1 - q - sum_h pmf(h), converged


class TestParams:
    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domains(self, p, q):
        with pytest.raises(ValueError):
            HirschParams(p, q)

    def test_caps_validation(self, capsys):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="citation_cap"):
            hirsch.simulate_hirsch_many(HALF_HALF, rng, 10, citation_cap=0)
        with pytest.raises(ValueError, match="n must be >= 0"):
            hirsch.simulate_hirsch_many(HALF_HALF, rng, -1)
        assert rng.bit_generator.state == state  # raised before any draw
        argv = ["sample", "--model", "hirsch", "--p", "0.5", "--q", "0.5",
                "--count", "10", "--seed", "1", "--cap", "0"]
        assert cli.run(argv) == 1
        assert "citation_cap must be >= 1" in capsys.readouterr().err

    def test_mode_round_trip(self):
        assert HirschMode("paper_event") is HirschMode.PAPER_EVENT
        assert HirschMode("true_h") is HirschMode.TRUE_H


class TestAtLeastProb:
    def test_floor_values(self):
        assert hirsch.at_least_prob(0.5, 0) == 1.0
        assert hirsch.at_least_prob(0.5, 1) == 1.0

    def test_delegates_to_closed_tail(self):
        for h in (1, 2, 3, 10, 1000):
            assert hirsch.at_least_prob(0.3, h) == trial_chain.sibuya_tail_closed(0.3, h)

    def test_domain(self):
        with pytest.raises(ValueError):
            hirsch.at_least_prob(0.5, -1)

    def test_log_route_agrees(self):
        for h in (2, 17, 4000):
            log_tail = specfun.log_gamma_ratio(h, 0.5) - math.lgamma(1.0 - 0.5)
            assert log_tail == pytest.approx(math.log(hirsch.at_least_prob(0.5, h)), abs=1e-13)


class TestClosedForm:
    def test_h_zero_is_q(self):
        assert hirsch.hirsch_pmf(HALF_HALF, 0) == 0.5
        assert hirsch.hirsch_pmf(HirschParams(0.3, 0.85), 0) == 0.85

    def test_hand_values(self):
        # nu(1) = 1-q so pmf(1) = q(1-q); A(2) = 1-p gives pmf(2) = 2/27 here
        assert hirsch.hirsch_pmf(HALF_HALF, 1) == pytest.approx(0.25, abs=1e-15)
        assert hirsch.hirsch_pmf(HALF_HALF, 2) == pytest.approx(2.0 / 27.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            hirsch.hirsch_pmf(HALF_HALF, -1)
        with pytest.raises(ValueError):
            hirsch.log_hirsch_pmf(HALF_HALF, -1)

    def test_nu_strictly_decreasing(self):
        values = [oracles.nu(HALF_HALF, h) for h in range(1, 201)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_log_matches_linear(self):
        for h in range(0, 60):
            assert hirsch.log_hirsch_pmf(HALF_HALF, h) == pytest.approx(
                math.log(hirsch.hirsch_pmf(HALF_HALF, h)), abs=1e-12
            )

    def test_log_survives_linear_underflow(self):
        # nu^h is superexponentially small; the linear form is 0 long before
        h = 2000
        assert hirsch.hirsch_pmf(HALF_HALF, h) == 0.0
        lp = hirsch.log_hirsch_pmf(HALF_HALF, h)
        assert math.isfinite(lp) and lp < -5000.0

    def test_superexponential_decay(self):
        # ln pmf / h keeps falling: decay is faster than any geometric
        per_h = [hirsch.log_hirsch_pmf(HALF_HALF, h) / h for h in range(50, 201, 25)]
        assert all(a > b for a, b in zip(per_h, per_h[1:]))

    @pytest.mark.parametrize(
        "p,q,h", [(0.05, 0.02, 7717), (0.05, 0.02, 99999), (0.1, 0.001, 1000)]
    )
    def test_log_small_q_against_mpmath(self, p, q, h):
        # at small q, (1-q)A/q is large and ln nu is close to 0; forming
        # ln nu and ln(1 - nu) as log1p terms keeps them within 4 ulp
        mpmath = pytest.importorskip("mpmath")
        params = HirschParams(p, q)
        with mpmath.workdps(40):
            pm, qm = mpmath.mpf(p), mpmath.mpf(q)
            a = mpmath.exp(mpmath.loggamma(h - pm) - mpmath.loggamma(h) - mpmath.loggamma(1 - pm))
            nu = (1 - qm) * a / (qm + (1 - qm) * a)
            ref = float(mpmath.log(1 - nu) + h * mpmath.log(nu))
        assert abs(hirsch.log_hirsch_pmf(params, h) - ref) <= 4 * math.ulp(ref)
        log_probs, _ = hirsch.hirsch_pmf_table(params, h)
        assert abs(log_probs[h] - ref) <= 4 * math.ulp(ref)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_grid_against_mpmath(self, p):
        # table and scalar within 8 ulp of 40-digit values on every cell; below
        # h = 30 a difference of two lgamma values for ln A(h) would cancel
        # (67 ulp off at p, q, h = 0.05, 0.5, 27)
        mpmath = pytest.importorskip("mpmath")
        hs = [*range(1, 40), 100, 1000, 7717, 30000, 99999, 10**5]
        with mpmath.workdps(40):
            pm = mpmath.mpf(p)
            log_a = {h: mpmath.loggamma(h - pm) - mpmath.loggamma(h) - mpmath.loggamma(1 - pm)
                     for h in hs}
        for q in (0.001, 0.02, 0.2, 0.5, 0.8, 0.99):
            params = HirschParams(p, q)
            log_probs, _ = hirsch.hirsch_pmf_table(params, hs[-1])
            for h in hs:
                with mpmath.workdps(40):
                    qm = mpmath.mpf(q)
                    a = mpmath.exp(log_a[h])
                    nu = (1 - qm) * a / (qm + (1 - qm) * a)
                    ref = float(mpmath.log(1 - nu) + h * mpmath.log(nu))
                tol = 8 * math.ulp(ref)
                assert abs(hirsch.log_hirsch_pmf(params, h) - ref) <= tol, (q, h)
                assert abs(log_probs[h] - ref) <= tol, (q, h)

    @pytest.mark.parametrize("q", [1e-300, 5e-324])
    def test_log_finite_at_tiny_q(self, q):
        params = HirschParams(0.5, q)
        for h in (1, 2, 29, 30, 1000):
            assert math.isfinite(hirsch.log_hirsch_pmf(params, h))
        log_probs, _ = hirsch.hirsch_pmf_table(params, 1000)
        assert np.isfinite(log_probs).all()
        # nu is within a rounding of 1, so ln P{H = 1} = ln(1 - nu(1)) = ln q
        assert hirsch.log_hirsch_pmf(params, 1) == pytest.approx(math.log(q), rel=1e-15, abs=0.0)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=120),
    )
    def test_pmf_is_probability(self, p, q, h):
        value = hirsch.hirsch_pmf(HirschParams(p, q), h)
        assert 0.0 <= value <= 1.0


# (p, q) pairs where the table is held equal to the scalar;
# `TestClosedForm.test_grid_against_mpmath` holds both against mpmath
TABLE_PARAMS = [HALF_HALF, HirschParams(0.2, 0.8), HirschParams(0.9, 0.1)]


class TestTable:
    @pytest.mark.parametrize("params", TABLE_PARAMS, ids=repr)
    def test_matches_scalar_exactly(self, params):
        log_probs, _ = hirsch.hirsch_pmf_table(params, 10**5)
        assert log_probs.shape == (10**5 + 1,)
        hs = [*range(0, 301), *range(301, 10**5, 97), 10**5]
        scalar = np.array([hirsch.log_hirsch_pmf(params, h) for h in hs])
        assert np.array_equal(log_probs[hs], scalar)

    @pytest.mark.parametrize("params", TABLE_PARAMS, ids=repr)
    @pytest.mark.parametrize("h_max", [10, 29, 30, 31, 200, 2000])
    def test_deficit_equals_scalar_sum(self, params, h_max):
        scalar = 1.0 - params.q - math.fsum(
            hirsch.hirsch_pmf(params, h) for h in range(1, h_max + 1))
        log_probs, deficit = hirsch.hirsch_pmf_table(params, h_max)
        assert len(log_probs) == h_max + 1
        assert deficit == scalar
        assert hirsch.normalization_deficit(params, h_max) == scalar

    def test_domain(self):
        with pytest.raises(ValueError, match="h_max must be >= 1"):
            hirsch.hirsch_pmf_table(HALF_HALF, 0)


class TestDirectSum:
    @pytest.mark.parametrize("h", [0, 1, 2, 5, 10])
    def test_matches_closed_form(self, h):
        direct = oracles.hirsch_pmf_direct(HALF_HALF, h, l_max=2000)
        assert direct == pytest.approx(hirsch.hirsch_pmf(HALF_HALF, h), rel=1e-12, abs=0.0)

    def test_other_corner(self):
        params = HirschParams(0.8, 0.2)
        for h in (0, 1, 3, 7):
            direct = oracles.hirsch_pmf_direct(params, h, l_max=4000)
            assert direct == pytest.approx(hirsch.hirsch_pmf(params, h), rel=1e-10, abs=0.0)

    def test_truncation_below_h_is_zero(self):
        assert oracles.hirsch_pmf_direct(HALF_HALF, 5, l_max=4) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            oracles.hirsch_pmf_direct(HALF_HALF, -1, l_max=10)


class TestDiagnostics:
    def test_log_tail_ratios_frozen(self):
        out = hirsch.log_tail_diagnostic(HALF_HALF, tuple(DIAG_RATIOS))
        for (h, ratio), (h_exp, r_exp) in zip(out, DIAG_RATIOS.items()):
            assert h == h_exp
            assert ratio == pytest.approx(r_exp, abs=1e-12)

    def test_ratio_drifts_toward_minus_p(self):
        ratios = dict(hirsch.log_tail_diagnostic(HALF_HALF, (100, 10**4, 10**6)))
        assert ratios[100] < ratios[10**4] < ratios[10**6] < -0.5

    def test_small_h_rejected(self):
        with pytest.raises(ValueError):
            hirsch.log_tail_diagnostic(HALF_HALF, (1, 10))

    def test_deficit_frozen_and_converged(self):
        assert hirsch.normalization_deficit(HALF_HALF, 200) == pytest.approx(
            NO_EVENT_MASS, abs=1e-14
        )
        assert hirsch.normalization_deficit(HALF_HALF, 2000) == pytest.approx(
            NO_EVENT_MASS, abs=1e-14
        )

    def test_deficit_domain(self):
        with pytest.raises(ValueError):
            hirsch.normalization_deficit(HALF_HALF, 0)


class TestResolve:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ([3, 2, 2], (2, False)),  # 3 papers at >= 2: overshoots the event
            ([5, 3, 1], (2, True)),
            ([], (0, True)),
            ([1], (1, True)),
            ([1, 1, 1], (1, False)),  # three papers at >= 1
            ([9, 9, 9], (3, True)),
        ],
    )
    def test_hand_cases(self, counts, expected):
        assert oracles.resolve(np.asarray(counts, dtype=np.int64)) == expected


class TestSimulation:
    def test_vector_deterministic_and_valid_semantics(self):
        h1, v1 = hirsch.simulate_hirsch_many(
            HALF_HALF, np.random.default_rng(7), 2000, citation_cap=10**4
        )
        h2, v2 = hirsch.simulate_hirsch_many(
            HALF_HALF, np.random.default_rng(7), 2000, citation_cap=10**4
        )
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(v1, v2)
        ht, vt = hirsch.simulate_hirsch_many(
            HALF_HALF, np.random.default_rng(7), 2000, mode=HirschMode.TRUE_H,
            citation_cap=10**4,
        )
        np.testing.assert_array_equal(ht, h1)  # same draws, same true index
        assert vt.all()

    def test_vector_empty(self):
        h, valid = hirsch.simulate_hirsch_many(HALF_HALF, np.random.default_rng(0), 0)
        assert h.size == 0 and valid.size == 0

    def test_vector_matches_law(self):
        # one big batch drives three checks: the no-event fraction against
        # the converged deficit, and event frequencies against the closed
        # form at h = 0 and h = 1 (3 sigma each)
        n = 100_000
        rng = np.random.default_rng(np.random.SeedSequence(20260814).spawn(2)[1])
        h, valid = hirsch.simulate_hirsch_many(HALF_HALF, rng, n, citation_cap=10**5)
        no_event = float((~valid).mean())
        assert abs(no_event - NO_EVENT_MASS) < 3.0 * math.sqrt(0.158 * 0.842 / n)
        for level in (0, 1, 2):
            freq = float((valid & (h == level)).mean())
            expect = hirsch.hirsch_pmf(HALF_HALF, level)
            assert abs(freq - expect) < 3.0 * math.sqrt(expect * (1 - expect) / n)

    @pytest.mark.parametrize("mode", list(HirschMode))
    def test_vector_matches_resolve_oracle(self, mode):
        # replay the seed: the same paper counts, then the same citation
        # draws in one batch, censored chains counted at the cap; each
        # author's counts resolved by sorting must give the vectorized index
        params = HirschParams(0.5, 0.2)
        cap = 50
        n = 2000
        h, valid = hirsch.simulate_hirsch_many(
            params, np.random.default_rng(23), n, mode=mode, citation_cap=cap
        )
        rng = np.random.default_rng(23)
        lengths = rng.geometric(params.q, n) - 1
        cits, censored = trial_chain.sample_many(
            trial_chain.TrialChainParams(params.p, 1.0), rng, int(lengths.sum()),
            cap,
        )
        assert censored.any()  # the cap stand-in is exercised
        cits = np.where(censored, cap, cits)
        per_author = np.split(cits, np.cumsum(lengths)[:-1])
        expected = [oracles.resolve(counts) for counts in per_author]
        np.testing.assert_array_equal(h, [true_h for true_h, _ in expected])
        if mode is HirschMode.TRUE_H:
            assert valid.all()
        else:
            np.testing.assert_array_equal(valid, [match for _, match in expected])
            assert not valid.all() and valid.any()

    def test_vector_citation_cap_warning(self):
        # every paper has at least one citation, so any author with a
        # paper resolves to h >= 1 = the cap
        with pytest.warns(UserWarning, match="citation cap"):
            hirsch.simulate_hirsch_many(
                HALF_HALF, np.random.default_rng(2), 20, citation_cap=1
            )

    def test_vector_paper_cap_warning(self, monkeypatch):
        monkeypatch.setattr(hirsch, "_PAPER_CAP", 2)
        with pytest.warns(UserWarning, match="paper cap"):
            hirsch.simulate_hirsch_many(
                HALF_HALF, np.random.default_rng(5), 500, citation_cap=10**4
            )
