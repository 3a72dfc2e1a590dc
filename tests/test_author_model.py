"""Compound author-citation law: series vs closed form vs pgf composition.

The package computes P{S = s} by one route, the binomial-series
convolution; the tests hold it against two independent ones (the
terminating-2F1 closed form in `oracles.py` and a numeric pgf composition)
plus frozen hand values.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from citechain import author_model as am
from citechain import trial_chain as tc
from citechain.author_model import AuthorParams

HALF_HALF = AuthorParams(p=0.5, q=0.5)


class TestParams:
    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domains(self, p, q):
        with pytest.raises(ValueError):
            AuthorParams(p, q)

    def test_paper_count_params(self):
        # the paper-count law is the gamma = 1 trial chain with parameter p:
        # sample_citations draws its paper counts first, from the same stream
        papers, _ = am.sample_citations(HALF_HALF, np.random.default_rng(9), 500)
        chain, censored = tc.sample_many(
            tc.TrialChainParams(0.5, 1.0), np.random.default_rng(9), 500
        )
        assert not censored.any()
        np.testing.assert_array_equal(papers, chain)


class TestPmf:
    @pytest.mark.parametrize(
        "q,expected",
        [
            # 1 - 2^(-1/2) = 0.29289321881345247560...; 1 - sqrt(0.5) rounds
            # one ulp low
            (0.5, 0.2928932188134525),
            # p q + O(q^2); 1 - (1-q)**p rounds to 0.0 here
            (1e-300, 0.5 * 1e-300),
        ],
    )
    def test_zero_citations(self, q, expected):
        # every paper of the chain drew zero citations: 1 - (1-q)^p, correctly
        # rounded
        params = AuthorParams(0.5, q)
        assert am.author_pmf(params, 0) == expected
        assert am.author_pmf_series(params, 5)[0] == expected

    def test_one_citation(self):
        # p * q * (1-q)^p
        expected = 0.25 * math.sqrt(0.5)
        assert am.author_pmf(HALF_HALF, 1) == pytest.approx(expected, abs=1e-15)
        assert am.author_pmf(HALF_HALF, 1) == pytest.approx(0.1767766952966369, abs=1e-15)

    def test_negative_s(self):
        with pytest.raises(ValueError):
            am.author_pmf(HALF_HALF, -1)

    @pytest.mark.parametrize("q", [1e-2, 1e-4, 1e-6])
    def test_one_citation_small_q(self, q):
        # the series cancels as q -> 0 (-p + p(1-q) at s = 1), so its
        # relative error grows like eps/q; the closed form is p q (1-q)^p
        p = 0.5
        expected = p * q * math.exp(p * math.log1p(-q))
        eps = sys.float_info.epsilon
        rel = abs(am.author_pmf(AuthorParams(p, q), 1) - expected) / expected
        assert rel <= max(4 * eps, eps / q)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_routes_agree(self, p, q):
        series = am.author_pmf_series(AuthorParams(p, q), 150)
        for s in range(1, 151):
            assert oracles.author_pmf_closed(p, q, s) == pytest.approx(
                float(series[s]), abs=1e-10, rel=1e-8
            )

    @pytest.mark.parametrize("p,q", [(0.5, 0.45), (0.5, 0.3), (0.2, 0.8)])
    def test_truncated_series_matches_full_convolution(self, p, q):
        # the b coefficients stop below 1e-300 (after K = 1149, 1925 and 426
        # terms here); against the product over every term the change is
        # the summation order only
        s_max = 3000
        a = np.empty(s_max + 1)
        b = np.empty(s_max + 1)
        a[0] = b[0] = 1.0
        for s in range(s_max):
            a[s + 1] = a[s] * (s - p) / (s + 1)
            b[s + 1] = b[s] * (p + s) * (1.0 - q) / (s + 1)
        full = -((1.0 - q) ** p) * np.convolve(a, b)[: s_max + 1]
        series = am.author_pmf_series(AuthorParams(p, q), s_max)
        np.testing.assert_allclose(series[1:], full[1:], rtol=8 * sys.float_info.epsilon, atol=0)

    @pytest.mark.parametrize(
        "p,s_max", [(0.5, 0), (0.5, 1), (0.2, 2), (0.8, 150), (0.5, 3000), (0.5, 20000)]
    )
    def test_series_bytes_match_numpy_scalar_recurrence(self, p, s_max):
        # the a recurrence runs on Python floats; the same recurrence on
        # numpy scalars, into a preallocated array, gives the same bits
        q = 0.5
        a = np.empty(s_max + 1)
        a[0] = 1.0
        for s in range(s_max):
            a[s + 1] = a[s] * (s - p) / (s + 1)
        b = [1.0]
        for s in range(s_max):
            b_next = b[s] * (p + s) * (1.0 - q) / (s + 1)
            if b_next < am._B_FLOOR:
                break
            b.append(b_next)
        expected = -((1.0 - q) ** p) * np.convolve(a, b)[: s_max + 1]
        expected[0] = -math.expm1(p * math.log1p(-q))
        series = am.author_pmf_series(AuthorParams(p, q), s_max)
        assert series.tobytes() == expected.tobytes()

    def test_pmf_reads_series(self):
        params = AuthorParams(0.3, 0.7)
        series = am.author_pmf_series(params, 300)
        for s in (0, 1, 2, 150, 151, 300):
            assert am.author_pmf(params, s) == float(series[s])

    def test_matches_pgf_composition(self):
        # third route: compose the chain pmf table with the geometric pgf
        # numerically and read coefficients off the result
        p, q = 0.4, 0.6
        params = AuthorParams(p, q)
        order = 60
        chain_table = tc.pmf_table(tc.TrialChainParams(p, 1.0), 400)
        outer = np.concatenate(([0.0], np.exp(chain_table.log_probs)))
        inner = q * (1.0 - q) ** np.arange(0, 401, dtype=np.float64)
        composed = oracles.compose_pgf(outer, inner, order)
        series = am.author_pmf_series(params, order)
        # the truncated outer misses chains longer than 400 papers; their
        # contribution to low coefficients is bounded by the chain tail
        slack = chain_table.tail
        np.testing.assert_allclose(composed[1:], series[1:order + 1], atol=slack + 1e-12)

    def test_log_pmf(self):
        table = am.author_pmf_table(HALF_HALF, 7)
        assert table.log_probs[7] == pytest.approx(
            math.log(am.author_pmf(HALF_HALF, 7)), abs=1e-15
        )

    def test_table_sums_to_one(self):
        table = am.author_pmf_table(HALF_HALF, 5000)
        assert table.start == 0
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert table.log_prob(0) == pytest.approx(math.log(1.0 - math.sqrt(0.5)), abs=1e-14)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            am.author_pmf_series(HALF_HALF, -1)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=400),
    )
    def test_pmf_in_unit_interval(self, p, q, s):
        value = am.author_pmf(AuthorParams(p, q), s)
        assert 0.0 < value < 1.0

    def test_heavy_tail_inherits_chain_exponent(self):
        # P{S = s} ~ c s^(-p-1): ratio of pmfs a decade apart -> 10^(-1-p)
        params = AuthorParams(0.5, 0.5)
        series = am.author_pmf_series(params, 10_000)
        measured = float(series[10_000] / series[1000])
        assert measured == pytest.approx(10.0 ** (-1.5), rel=0.02)


class TestClosedFormOracle:
    """Hand values for the terminating-2F1 oracle that `test_routes_agree`
    relies on."""

    def test_gen_binomial_empty_product(self):
        assert oracles.gen_binomial(0.37, 0) == 1.0

    def test_gen_binomial_single(self):
        assert oracles.gen_binomial(0.37, 1) == 0.37

    def test_gen_binomial_half_choose_two(self):
        assert oracles.gen_binomial(0.5, 2) == -0.125

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=200),
    )
    def test_gen_binomial_sign_pattern(self, p, s):
        assert (-1.0) ** (s + 1) * oracles.gen_binomial(p, s) > 0.0

    def test_hyp2f1_empty_sum(self):
        assert oracles.hyp2f1_terminating(0.5, 0, -3.7, 0.9) == 1.0

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_hyp2f1_s1_identity(self, p, x):
        # (a)_1 (-1)_1 / ((c)_1 1!) x with c = a gives exactly -x
        assert oracles.hyp2f1_terminating(p, 1, p, x) == 1.0 - x

    def test_hyp2f1_exact_three_term(self):
        # a=0.5, s=2, c=-0.5, x=0.5: 1 + (0.5)(-2)/(-0.5)(0.5) + term2 = 5/4
        assert oracles.hyp2f1_terminating(0.5, 2, -0.5, 0.5) == pytest.approx(1.25, abs=1e-15)

    def test_closed_form_one_citation(self):
        # p q (1-q)^p at s = 1
        assert oracles.author_pmf_closed(0.5, 0.5, 1) == pytest.approx(
            0.25 * math.sqrt(0.5), rel=1e-15, abs=0.0
        )


class TestLaplaceTail:
    def test_domain(self):
        for fn in (am.laplace_tail_exact, am.laplace_tail_asym):
            with pytest.raises(ValueError):
                fn(HALF_HALF, 0.0)
            with pytest.raises(ValueError):
                fn(HALF_HALF, -1.0)

    @pytest.mark.parametrize(
        "t,frozen_ratio",
        [
            (1e-3, 0.9992508011236061),
            (1e-6, 0.9999992500008011),
        ],
    )
    def test_asym_ratio_frozen(self, t, frozen_ratio):
        ratio = am.laplace_tail_exact(HALF_HALF, t) / am.laplace_tail_asym(HALF_HALF, t)
        assert ratio == pytest.approx(frozen_ratio, rel=1e-12, abs=0.0)

    def test_ratio_tends_to_one(self):
        ratios = [
            am.laplace_tail_exact(HALF_HALF, t) / am.laplace_tail_asym(HALF_HALF, t)
            for t in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-7)

    def test_exact_against_series(self):
        # 1 - E e^{-tS} from the pmf table directly, truncation-corrected
        t = 0.05
        table = am.author_pmf_series(HALF_HALF, 20_000)
        s = np.arange(20_001, dtype=np.float64)
        partial = float(math.fsum(table * np.exp(-t * s)))
        truncation = 1.0 - float(math.fsum(table))
        value = am.laplace_tail_exact(HALF_HALF, t)
        assert 1.0 - partial - truncation <= value <= 1.0 - partial + 1e-12


class TestSampling:
    def test_shapes_and_support(self):
        # the paper count has no mean, so P{X > cap} ~ cap^(-1/2) forces a
        # deep cap even for modest n; this seed stays uncensored at 1e8
        rng = np.random.default_rng(13)
        papers, citations = am.sample_citations(HALF_HALF, rng, 500, cap=10**8)
        assert papers.shape == citations.shape == (500,)
        assert papers.min() >= 1
        assert citations.min() >= 0

    def test_deterministic(self):
        a = am.sample_citations(HALF_HALF, np.random.default_rng(29), 100)
        b = am.sample_citations(HALF_HALF, np.random.default_rng(29), 100)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_censoring_raises(self):
        with pytest.raises(RuntimeError, match="cap"):
            am.sample_citations(HALF_HALF, np.random.default_rng(1), 500, cap=1)

    def test_zero_mass_frequency(self):
        # P{S=0} = 1 - sqrt(1/2) ~ 0.2929; 5000 draws give sd ~ 0.0064
        rng = np.random.default_rng(101)
        _, citations = am.sample_citations(HALF_HALF, rng, 5000, cap=10**8)
        frac = float((citations == 0).mean())
        assert frac == pytest.approx(1.0 - math.sqrt(0.5), abs=0.02)
