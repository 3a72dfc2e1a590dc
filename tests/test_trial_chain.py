"""Trial-chain law: exact evaluators, asymptotics, samplers, growing variant.

The independent oracle throughout is the definition itself: the probability
that the first success lands on trial n is (p/n^gamma) prod_{k<n} (1 - p/k^gamma),
accumulated here as a plain floating product (a different rounding path from
the package's compensated log-space route).
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from citechain import specfun
from citechain import trial_chain as tc
from citechain.trial_chain import GrowingChainParams, Regime, TrialChainParams

IMPROPER_MASS_HALF_TWO = 0.3581877860132440177  # prod_k (1 - 0.5/k^2), 50-digit


def pmf_brute(p, gamma, n):
    out = 1.0
    for k in range(1, n):
        out *= 1.0 - p / k**gamma
    return out * p / n**gamma


def tail_brute(p, gamma, m):
    out = 1.0
    for k in range(1, m):
        out *= 1.0 - p / k**gamma
    return out


class TestParams:
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_p_domain(self, p):
        with pytest.raises(ValueError):
            TrialChainParams(p, 1.0)

    @pytest.mark.parametrize("gamma", [-0.1, -5.0, math.nan, math.inf])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError):
            TrialChainParams(0.5, gamma)

    def test_growing_domains(self):
        with pytest.raises(ValueError):
            GrowingChainParams(1.0, 1.0)
        with pytest.raises(ValueError):
            GrowingChainParams(0.5, -1.0)
        with pytest.raises(ValueError, match="finite"):
            GrowingChainParams(0.5, math.inf)
        GrowingChainParams(0.5, 0.0)  # flat growing chain is legal


class TestRegime:
    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (0.0, Regime.GEOMETRIC),
            (1.0, Regime.SIBUYA),
            (0.5, Regime.FRACTIONAL_INTEGER),
            (1.0 / 3.0, Regime.FRACTIONAL_INTEGER),
            (0.4, Regime.FRACTIONAL_NON_INTEGER),
            (0.7, Regime.FRACTIONAL_NON_INTEGER),
            (2.0, Regime.IMPROPER),
            (1.0 + 1e-12, Regime.SIBUYA),  # inside tolerance of the boundary
        ],
    )
    def test_examples(self, gamma, expected):
        assert tc.classify_regime(gamma) == expected

    def test_negative_gamma(self):
        with pytest.raises(ValueError):
            tc.classify_regime(-0.5)

    def test_infinite_gamma(self):
        # TrialChainParams rejects an infinite gamma, and so does the classifier
        with pytest.raises(ValueError):
            tc.classify_regime(math.inf)

    @given(st.integers(min_value=2, max_value=60))
    def test_integer_reciprocals(self, j):
        assert tc.classify_regime(1.0 / j) == Regime.FRACTIONAL_INTEGER


class TestExactEvaluators:
    def test_pmf_hand_value(self):
        # (1 - 0.5)(1 - 0.5/sqrt(2)) * 0.5/sqrt(3)
        params = TrialChainParams(0.5, 0.5)
        assert tc.pmf(params, 3) == pytest.approx(0.09330653098942354, abs=5e-16)

    def test_first_trial(self):
        assert tc.pmf(TrialChainParams(0.37, 1.3), 1) == pytest.approx(0.37, abs=1e-15)
        assert tc.tail(TrialChainParams(0.37, 1.3), 1) == 1.0
        assert tc.log_tail(TrialChainParams(0.37, 1.3), 1) == 0.0

    def test_geometric_is_bit_exact(self):
        params = TrialChainParams(0.25, 0.0)
        assert tc.pmf(params, 7) == 0.25 * 0.75**6
        assert tc.tail(params, 7) == 0.75**6

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_against_brute_product(self, p, gamma, n, subtests=None):
        params = TrialChainParams(p, gamma)
        assert tc.pmf(params, n) == pytest.approx(pmf_brute(p, gamma, n), rel=5e-13, abs=0.0)
        assert tc.tail(params, n) == pytest.approx(tail_brute(p, gamma, n), rel=5e-13, abs=0.0)

    def test_domain_errors(self):
        # gamma = 0 takes the closed geometric forms, with their own checks
        for params in (TrialChainParams(0.5, 1.0), TrialChainParams(0.5, 0.0)):
            for fn in (tc.pmf, tc.log_pmf, tc.tail, tc.log_tail, tc.tail_table):
                with pytest.raises(ValueError):
                    fn(params, 0)

    def test_log_pmf_survives_underflow(self):
        params = TrialChainParams(0.999, 0.0)
        lp = tc.log_pmf(params, 5001)
        assert lp == pytest.approx(math.log(0.999) + 5000 * math.log(0.001), rel=1e-12)
        assert tc.pmf(params, 5001) == 0.0  # linear value legitimately underflows

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_telescoping_strict(self, p, gamma):
        params = TrialChainParams(p, gamma)
        for m in range(1, 51):
            t_m, t_next = tc.tail(params, m), tc.tail(params, m + 1)
            assert abs(t_m - t_next - tc.pmf(params, m)) <= 1e-14 * t_m

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=1, max_value=2000),
    )
    @example(p=0.56640625, gamma=0.0, m=869)
    def test_telescoping_deep(self, p, gamma, m):
        # each of the three values passes through exp(x) with x good to one
        # ulp, so the achievable defect scales with |log tail| once the tail
        # is deep; 1e-15 per log unit covers the worst case with margin.
        # Where the tails are subnormal the relative bound underflows, so a
        # floor of four subnormal steps holds (the example is one step off)
        params = TrialChainParams(p, gamma)
        t_m, t_next = tc.tail(params, m), tc.tail(params, m + 1)
        lt = tc.log_tail(params, m)
        tol = max(t_m * max(1e-14, 1e-15 * abs(lt)), 4 * math.ulp(0.0))
        assert abs(t_m - t_next - tc.pmf(params, m)) <= tol

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=1, max_value=500),
    )
    def test_tail_monotone_and_pmf_positive(self, p, gamma, m):
        # stated in log space: linear values legitimately underflow deep in
        params = TrialChainParams(p, gamma)
        assert math.isfinite(tc.log_pmf(params, m))
        assert tc.log_tail(params, m + 1) < tc.log_tail(params, m) <= 0.0

    def test_tables_match_pointwise(self):
        params = TrialChainParams(0.4, 0.8)
        table = tc.pmf_table(params, 200)
        tails = tc.tail_table(params, 200)
        assert table.log_prob(137) == pytest.approx(tc.log_pmf(params, 137), abs=1e-14)
        assert tails[0] == 0.0
        assert tails[136] == pytest.approx(tc.log_tail(params, 137), abs=1e-14)
        assert table.log_tail == pytest.approx(tc.log_tail(params, 201), abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_table_total_mass(self, gamma):
        # pmf run + tail slot account for every outcome, including the
        # never-success mass an improper chain parks at infinity
        table = tc.pmf_table(TrialChainParams(0.5, gamma), 10_000)
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)


def _cold(fn, *args):
    """fn(*args) on an empty prefix cache: one scan of exactly the length
    the call needs."""
    tc._log_survival_prefix.cache_clear()
    return fn(*args)


PREFIX_CHAINS = [(0.5, 0.7), (0.3, 1.0), (0.8, 1.5), (0.6, 2.5)]
# growing (q, gamma) chains whose tails stay above the float floor to n = 120
GROWING_PREFIX_CHAINS = [(0.5, 1.0), (0.9, 0.5), (0.3, 0.7), (0.8, 0.0)]


class TestSurvivalPrefixCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        tc._log_survival_prefix.cache_clear()
        yield
        tc._log_survival_prefix.cache_clear()

    @pytest.mark.parametrize("p,gamma", PREFIX_CHAINS)
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "scattered"])
    def test_bit_identical_whatever_the_order(self, p, gamma, order):
        params = TrialChainParams(p, gamma)
        ns = list(range(1, 400))
        if order == "decreasing":
            ns.reverse()
        elif order == "scattered":
            np.random.default_rng(7).shuffle(ns)
        warm = [(tc.log_pmf(params, n), tc.log_tail(params, n)) for n in ns]
        cold = [(_cold(tc.log_pmf, params, n), _cold(tc.log_tail, params, n)) for n in ns]
        assert warm == cold

    @pytest.mark.parametrize("q,gamma", GROWING_PREFIX_CHAINS)
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "scattered"])
    def test_growing_bit_identical_whatever_the_order(self, q, gamma, order):
        # a cold table of n rows ends in ln P{X > n} = ln P{X >= n + 1}
        params = GrowingChainParams(q, gamma)
        ns = list(range(1, 121))
        if order == "decreasing":
            ns.reverse()
        elif order == "scattered":
            np.random.default_rng(7).shuffle(ns)
        warm = [(tc.growing_tail(params, n + 1), tc.growing_pmf(params, n)) for n in ns]
        cold = [
            (
                math.exp(_cold(tc.pmf_table, params, n).log_tail),
                _cold(tc.growing_pmf, params, n),
            )
            for n in ns
        ]
        assert warm == cold
        assert all(t > 0.0 for t, _ in warm)

    def test_trial_and_growing_chains_keep_separate_entries(self):
        # equal numbers, different laws: 1 - 0.5/k against 0.5/k per trial
        trial, growing = TrialChainParams(0.5, 1.0), GrowingChainParams(0.5, 1.0)
        want_trial = _cold(tc.log_tail, trial, 60)
        want_growing = _cold(tc.growing_tail, growing, 60)
        tc._log_survival_prefix.cache_clear()
        assert tc.log_tail(trial, 60) == want_trial
        assert tc.growing_tail(growing, 60) == want_growing
        assert tc.log_tail(trial, 30) == _cold(tc.log_tail, trial, 30)
        tc._log_survival_prefix.cache_clear()
        assert tc.growing_tail(growing, 60) == want_growing
        assert tc.log_tail(trial, 60) == want_trial
        info = tc._log_survival_prefix.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)

    @pytest.mark.parametrize("p,gamma", PREFIX_CHAINS)
    def test_tables_bit_identical_before_and_after_scalars(self, p, gamma):
        params = TrialChainParams(p, gamma)
        want_tails = _cold(tc.tail_table, params, 1500).tobytes()
        want_pmf = _cold(tc.pmf_table, params, 700).log_probs.tobytes()
        want_scalar = [_cold(tc.log_tail, params, m) for m in (3, 100, 1000, 1500)]
        # table first, then scalars inside and past it
        tc._log_survival_prefix.cache_clear()
        assert tc.tail_table(params, 1500).tobytes() == want_tails
        assert [tc.log_tail(params, m) for m in (3, 100, 1000, 1500)] == want_scalar
        # scalars first, then tables that grow the chain and read it back
        tc._log_survival_prefix.cache_clear()
        assert [tc.log_tail(params, m) for m in (3, 100)] == want_scalar[:2]
        assert tc.pmf_table(params, 700).log_probs.tobytes() == want_pmf
        assert tc.tail_table(params, 1500).tobytes() == want_tails

    def test_views_are_read_only(self):
        first = tc._log_survival_prefix(TrialChainParams(0.5, 1.0), 10)
        grown = tc._log_survival_prefix(TrialChainParams(0.5, 1.0), 100)
        assert first.shape == (11,) and grown.shape == (101,)
        for view in (first, grown, tc._log_survival_prefix(TrialChainParams(0.5, 1.0), 5)):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 1.0
        assert np.array_equal(first, grown[:11])
        # tail_table hands out a read-only view of the cached scan, not a copy
        table = tc.tail_table(TrialChainParams(0.5, 1.0), 10)
        assert not table.flags.writeable
        assert np.shares_memory(table, tc._log_survival_prefix(TrialChainParams(0.5, 1.0), 9))
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_loop_over_n_misses_logarithmically(self):
        params = TrialChainParams(0.5, 0.7)
        for n in range(1, 3001):
            tc.pmf(params, n)
        info = tc._log_survival_prefix.cache_info()
        assert info.misses <= 2 + math.log2(3000)
        assert info.hits + info.misses == 2999  # n = 1 needs no prefix

    def test_eviction_keeps_32_chains(self):
        chains = [TrialChainParams(0.1 + 0.01 * i, 1.0) for i in range(40)]
        for params in chains:
            tc.log_tail(params, 10)
        info = tc._log_survival_prefix.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (40, 32, 32)
        tc.log_tail(chains[-1], 10)  # most recently used: kept
        tc.log_tail(chains[0], 10)  # least recently used: evicted
        info = tc._log_survival_prefix.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 41, 32)

    def test_cache_clear_resets_chains_and_counts(self):
        tc.log_tail(TrialChainParams(0.5, 1.0), 50)
        tc.log_tail(TrialChainParams(0.5, 1.0), 20)
        assert tc._log_survival_prefix.cache_info()[:2] == (1, 1)
        tc._log_survival_prefix.cache_clear()
        assert tc._log_survival_prefix.cache_info() == (0, 0, 32, 0)


BLOCK = 1 << 14
# request lengths on both sides of one block, and past three
SEAM_NS = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
SCAN_CHAINS = [
    TrialChainParams(p, gamma) for p in (1e-3, 0.5, 0.999) for gamma in (0.0, 0.3, 0.7, 1.0, 1.5, 3.0)
] + [GrowingChainParams(q, 1.0) for q in (0.01, 0.5, 0.99)]


def _neumaier(params, n_max):
    """S[0..n_max] by the per-term Neumaier loop."""
    return oracles.neumaier_prefix(params._log_failure(np.arange(1, n_max + 1, dtype=np.float64)))


class TestBlockedScan:
    """The numpy block pass of `_extend_prefix` against the per-term loop."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        tc._log_survival_prefix.cache_clear()
        yield
        tc._log_survival_prefix.cache_clear()

    def test_block_constant(self):
        assert tc._SCAN_BLOCK == BLOCK

    @pytest.mark.parametrize("params", SCAN_CHAINS, ids=repr)
    def test_bit_identical_to_neumaier_loop(self, params):
        # growing through SEAM_NS doubles the chain to 2 (2 BLOCK - 2) terms
        want = _neumaier(params, 4 * BLOCK - 4)
        for n in SEAM_NS:
            got = _cold(tc._log_survival_prefix, params, n)
            assert got.tobytes() == want[: n + 1].tobytes(), n
        # grown request by request, each growth resuming from the stored (s, c)
        tc._log_survival_prefix.cache_clear()
        for n in [5, *SEAM_NS]:
            assert tc._log_survival_prefix(params, n).tobytes() == want[: n + 1].tobytes(), n
        chain = tc._prefix_chains.entries[params._cache_key()][0]
        assert chain.size == 4 * BLOCK - 3
        assert chain.tobytes() == want.tobytes()

    @pytest.mark.parametrize("params", SCAN_CHAINS[::4], ids=repr)
    def test_many_seams_with_a_small_block(self, params, monkeypatch):
        monkeypatch.setattr(tc, "_SCAN_BLOCK", 7)
        want = _neumaier(params, 4000)
        rng = np.random.default_rng(11)
        for n in [0, 1, 6, 7, 8, 13, 14, 15, *rng.integers(1, 2000, 20).tolist(), 2000]:
            got = tc._log_survival_prefix(params, n)
            assert got.tobytes() == want[: n + 1].tobytes(), n

    def test_cold_million_term_scan_peak_memory(self):
        # the 8 MB result plus about 1 MB of block scratch at 2^14 terms (2^16
        # held 3.5 MB); the per-term loop with its Python list peaked near 70 MB
        tracemalloc.start()
        try:
            tc._log_survival_prefix(TrialChainParams(0.5, 1.0), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6


class TestPmfTable:
    """One `pmf_table` for both params classes, bit for bit the expressions
    each class's table used before it was shared."""

    @pytest.mark.parametrize(
        "params",
        [TrialChainParams(p, g) for p in (1e-3, 0.5, 0.999) for g in (0.0, 0.5, 0.7, 1.0, 2.0)]
        + [GrowingChainParams(q, g) for q in (0.01, 0.5, 0.99) for g in (0.0, 0.5, 1.0, 2.5)],
        ids=repr,
    )
    @pytest.mark.parametrize("n_max", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
    def test_bits_of_both_chains(self, params, n_max):
        prefix = tc._log_survival_prefix(params, n_max)
        n = np.arange(1, n_max + 1, dtype=np.float64)
        if isinstance(params, TrialChainParams):
            want = math.log(params.p) - params.gamma * np.log(n) + prefix[:-1]
        else:
            want = prefix[:-1] + np.log1p(-params.q * n**-params.gamma)
        table = tc.pmf_table(params, n_max)
        assert table.log_probs.tobytes() == want.tobytes()
        assert table.log_tail == prefix[-1]
        assert table.start == 1


class TestSibuyaClosedForm:
    def test_hand_values(self):
        assert tc.sibuya_tail_closed(0.5, 1) == 1.0
        assert tc.sibuya_tail_closed(0.5, 2) == pytest.approx(0.5, rel=1e-14, abs=0.0)
        assert tc.sibuya_tail_closed(0.5, 3) == pytest.approx(0.375, rel=1e-14, abs=0.0)
        assert tc.sibuya_tail_closed(0.5, 4) == pytest.approx(0.3125, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 2, 5, 17, 100, 1000])
    def test_matches_product_route(self, p, m):
        params = TrialChainParams(p, 1.0)
        assert tc.sibuya_tail_closed(p, m) == pytest.approx(tc.tail(params, m), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_against_mpmath_below_30(self, p):
        # below m = 30 the ratio is shifted up to m = 30 by the recurrence;
        # math.lgamma(1 - p), up to 4.6, sets the last bits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            pm = mpmath.mpf(p)
            for m in range(1, 30):
                ref = mpmath.loggamma(m - pm) - mpmath.loggamma(m) - mpmath.loggamma(1 - pm)
                log_tail = specfun.log_gamma_ratio(m, p) - math.lgamma(1.0 - p)
                assert abs(mpmath.mpf(log_tail) - ref) <= 2e-15, m
                closed = mpmath.mpf(tc.sibuya_tail_closed(p, m))
                assert abs(closed - mpmath.exp(ref)) <= 2e-15, m

    def test_domains(self):
        with pytest.raises(ValueError):
            tc.sibuya_tail_closed(1.0, 5)
        with pytest.raises(ValueError):
            tc.sibuya_tail_closed(0.5, 0)

    def test_infinite_mean(self):
        # partial first moments keep growing like m^(1-p): no finite mean
        params = TrialChainParams(0.5, 1.0)
        table = tc.pmf_table(params, 10_000)
        moments = np.cumsum(table.indices * table.probs)
        assert moments[9999] / moments[999] > 1.5


class TestImproperMass:
    def test_proper_regimes_are_exact_zero(self):
        assert tc.improper_mass(TrialChainParams(0.5, 1.0)) == 0.0
        assert tc.improper_mass(TrialChainParams(0.5, 0.3)) == 0.0
        assert tc.improper_mass(TrialChainParams(0.9, 0.0)) == 0.0

    def test_frozen_reference(self):
        mass = tc.improper_mass(TrialChainParams(0.5, 2.0))
        assert mass == pytest.approx(IMPROPER_MASS_HALF_TWO, abs=5e-15)
        # a tempting shortcut exp(-sum_k p/(k^gamma - p)) evaluates to ~0.2604
        # here; it is NOT the log of this product and must not be reproduced
        assert abs(mass - 0.2604) > 0.05

    def test_against_direct_product(self):
        k = np.arange(1, 10**7 + 1, dtype=np.float64)
        direct = math.exp(float(np.sum(np.log1p(-0.5 / k**2))))
        # remaining factors shift the product by less than p/K ~ 5e-8
        assert tc.improper_mass(TrialChainParams(0.5, 2.0)) == pytest.approx(
            direct, abs=1e-7
        )

    def test_tail_limit_consistency(self):
        params = TrialChainParams(0.5, 2.0)
        assert tc.tail(params, 200_000) == pytest.approx(
            tc.improper_mass(params), rel=1e-5
        )

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1.05, max_value=4.0),
    )
    def test_mass_below_first_factor(self, p, gamma):
        mass = tc.improper_mass(TrialChainParams(p, gamma))
        assert 0.0 < mass < 1.0 - p + 1e-15  # bounded by the k=1 factor

    @pytest.mark.parametrize(
        "p,gamma", [(0.997, 3.0), (0.999, 1.5), (0.9999, 10.0), (0.999999, 1.000001)]
    )
    def test_p_near_one_against_mpmath(self, p, gamma):
        # these once exhausted a 10,000-term series and raised RuntimeError
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            p_, g = mpmath.mpf(p), mpmath.mpf(gamma)
            log_mass = mpmath.log1p(-p_)
            j = 1
            while True:
                term = p_**j / j * (mpmath.zeta(g * j) - 1)
                log_mass -= term
                if term < mpmath.mpf(10) ** -45:
                    break
                j += 1
            want = float(mpmath.exp(log_mass))
        got = tc.improper_mass(TrialChainParams(p, gamma))
        assert abs(got - want) <= 1e-14 * want

    def test_huge_gamma_keeps_only_the_first_factor(self):
        assert tc.improper_mass(TrialChainParams(0.25, 1e300)) == 0.75

    # ln P{X = infinity}, captured before the series took a start index n;
    # at n = 0 its first factor and its zeta terms are the same floats
    LOG_MASS_BITS = {
        1e-06: ("-0x1.a5dabec5eea7cp-14", "-0x1.5ea08ddcd7abcp-19",
                "-0x1.b98f0ba7aef94p-20", "-0x1.28f79569ec07cp-20"),
        0.1: ("-0x1.421f94e92e33bp+3", "-0x1.120cd10cc9643p-2",
              "-0x1.5cb7439ae5e46p-3", "-0x1.db389ea8d6001p-4"),
        0.37: ("-0x1.2ad1ef44315eep+5", "-0x1.12ce37daea438p+0",
               "-0x1.69c8b8de2a883p-1", "-0x1.00ebbd3c515cdp-1"),
        0.9: ("-0x1.70f9a36175f35p+6", "-0x1.ed22e143629a1p+1",
              "-0x1.75f03f738f2c5p+1", "-0x1.33509ef129cb8p+1"),
        0.999: ("-0x1.ab2eb55767bbep+6", "-0x1.1497649abc691p+3",
                "-0x1.e668e6250856fp+2", "-0x1.c11a302d40cdcp+2"),
    }

    @pytest.mark.parametrize("p", sorted(LOG_MASS_BITS))
    def test_series_bits_at_start(self, p):
        got = [tc._log_improper_mass.__wrapped__(TrialChainParams(p, gamma)).hex()
               for gamma in (1.01, 1.5, 2.0, 3.7)]
        assert got == list(self.LOG_MASS_BITS[p])


class TestConditionalPmf:
    def test_improper_mass_series_summed_once(self):
        params = TrialChainParams(0.37, 2.5)
        tc._log_improper_mass.cache_clear()
        values = [tc.conditional_pmf(params, n) for n in range(1, 51)]
        assert tc._log_improper_mass.cache_info().misses == 1
        log_mass = tc._log_improper_mass.__wrapped__(params)
        assert log_mass > -math.log(2.0)  # the mass is above 1/2: the expm1 branch
        assert values == [math.exp(tc.log_pmf(params, n) - math.log(-math.expm1(log_mass)))
                          for n in range(1, 51)]

    def test_requires_improper(self):
        for fn in (tc.conditional_pmf, tc.conditional_pmf_table):
            with pytest.raises(ValueError, match="requires gamma > 1"):
                fn(TrialChainParams(0.5, 1.0), 3)

    # (p, gamma, n_max); a tail formed as (P{X > n_max} - mass) / (1 - mass)
    # would be 7e-12, 8e-5 and 39% off at the second, third and fourth
    @pytest.mark.parametrize("p,gamma,n_max", [
        (0.5, 2.0, 20), (0.5, 2.0, 10**5), (0.5, 3.0, 10**6), (0.5, 4.0, 10**5),
        (0.9, 1.5, 10**3), (0.2, 6.0, 50), (0.7, 2.5, 3 * 10**5),
    ])
    def test_table_tail_against_mpmath(self, p, gamma, n_max):
        pytest.importorskip("mpmath")
        _, want = oracles.conditional_law_mp(p, gamma, n_max)
        table = tc.conditional_pmf_table(TrialChainParams(p, gamma), n_max)
        assert math.exp(table.log_tail) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_table_matches_scalars(self):
        params = TrialChainParams(0.5, 2.0)
        table = tc.conditional_pmf_table(params, 2000)
        want = [tc.conditional_pmf(params, n) for n in range(1, 2001)]
        assert table.probs == pytest.approx(want, rel=1e-14, abs=0.0)
        assert table.total_mass() == pytest.approx(1.0, abs=1e-13)

    # the mass nears 1: log1p(-mass) from the rounded mass would be 1.9e-9
    # off at p = 1e-8 and 3.7e-7 off at p = 1e-10
    @pytest.mark.parametrize("p,gamma", [(1e-4, 2.0), (1e-8, 2.0), (1e-10, 3.0)])
    def test_small_p_first_value_against_mpmath(self, p, gamma):
        pytest.importorskip("mpmath")
        finite, _ = oracles.conditional_law_mp(p, gamma, 1)
        value = tc.conditional_pmf(TrialChainParams(p, gamma), 1)
        assert value == pytest.approx(p / finite, rel=1e-14, abs=0.0)

    def test_p_near_one(self):
        value = tc.conditional_pmf(TrialChainParams(0.997, 3.0), 5)
        assert 0.0 < value < 1.0

    def test_first_value(self):
        params = TrialChainParams(0.5, 2.0)
        expected = 0.5 / (1.0 - tc.improper_mass(params))
        assert tc.conditional_pmf(params, 1) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_normalizes(self):
        params = TrialChainParams(0.5, 2.0)
        mass = tc.improper_mass(params)
        n_max = 2000
        table = tc.pmf_table(params, n_max)
        total = math.fsum(table.probs) / (1.0 - mass)
        leftover = (tc.tail(params, n_max + 1) - mass) / (1.0 - mass)
        assert total + leftover == pytest.approx(1.0, abs=1e-6)


class TestAsymptoticShape:
    @pytest.mark.parametrize("gamma", [0.0, 1e-10])
    def test_gamma_zero_rejected(self, gamma):
        # every gamma <= 1e-9 is classified as geometric
        with pytest.raises(ValueError, match=f"gamma = {gamma!r} is within 1e-09 of 0"):
            tc.log_asym_pmf_shape(TrialChainParams(0.5, gamma), 100)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            tc.log_asym_pmf_shape(TrialChainParams(0.5, 0.7), 1)

    def test_sibuya_shape(self):
        params = TrialChainParams(0.5, 1.0)
        n = 10_000
        ratio = tc.pmf(params, n) / math.exp(tc.log_asym_pmf_shape(params, n))
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_improper_shape_is_conditional(self):
        params = TrialChainParams(0.5, 2.5)
        shape = math.exp(tc.log_asym_pmf_shape(params, 5000))
        assert shape == pytest.approx(0.5 / 5000**2.5, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,gamma", [(0.5, 0.7), (0.5, 0.5), (0.3, 0.25)])
    def test_corrected_stabilizes_uncorrected_diverges(self, p, gamma):
        params = TrialChainParams(p, gamma)
        grid = (1000, 3000, 10_000)
        good = [tc.log_pmf(params, n) - tc.log_asym_pmf_shape(params, n) for n in grid]
        bad = [tc.log_pmf(params, n) - oracles.log_asym_shape_printed(params, n) for n in grid]
        good_range = max(good) - min(good)
        bad_range = max(bad) - min(bad)
        assert math.expm1(good_range) < 0.02
        assert bad_range > 10.0 * good_range


    @pytest.mark.parametrize("p", [0.05, 0.5, 0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("gamma", [1.234e-5, 0.0123, 0.3])
    @pytest.mark.parametrize("n", [1e3, 3e3, 1e4])
    def test_exponent_sum_equals_full_loop(self, p, gamma, n):
        # every term past the stop is under half an ulp of the total, or 0.0
        # past the underflow of p^j, so stopping there leaves the sum bit for bit
        j_max = math.floor(1.0 / gamma)
        full = 0.0
        for j in range(1, j_max + 1):
            full += p**j / j * n ** (1.0 - gamma * j) / (1.0 - gamma * j)
        assert tc._fractional_exponent_sum(p, gamma, n, j_max) == full

    @pytest.mark.parametrize("dist", [-9.9e-7, 5e-7])
    def test_integer_power_inside_window(self, dist):
        # 1/gamma sits within 1e-6 of 3 but not within 1e-9: the regime is
        # non-integer, and the shape's third term is the integer power
        p, gamma, n = 0.5, 1.0 / (3.0 + dist), 5000
        params = TrialChainParams(p, gamma)
        assert tc.classify_regime(gamma) is Regime.FRACTIONAL_NON_INTEGER
        ex = sum(p**j / j * n ** (1.0 - gamma * j) / (1.0 - gamma * j) for j in (1, 2))
        expected = math.log(p) - (gamma + p**3 / 3) * math.log(n) - ex
        assert tc.log_asym_pmf_shape(params, n) == expected

    @pytest.mark.parametrize("dist", [-1.1e-6, 1.1e-6])
    def test_non_integer_just_outside_window(self, dist):
        # past 1e-6 the shape sums the [1/gamma] exponent terms, gamma alone
        # in the power of n
        p, gamma, n = 0.5, 1.0 / (3.0 + dist), 5000
        params = TrialChainParams(p, gamma)
        j_max = 3 if dist > 0 else 2
        ex = sum(p**j / j * n ** (1.0 - gamma * j) / (1.0 - gamma * j)
                 for j in range(1, j_max + 1))
        expected = math.log(p) - gamma * math.log(n) - ex
        assert tc.log_asym_pmf_shape(params, n) == expected


# (p, J, 1/gamma - J) inside the near-boundary window; 1/gamma just below 1
# makes gamma > 1, an improper chain, so J = 1 takes only positive distances
BOUNDARY_CASES = [
    (p, j, dist)
    for p in (0.01, 0.2, 0.5, 0.8, 0.99)
    for j in range(1, 9)
    for dist in (-9.9e-7, -1e-7, -1.5e-9, 1.5e-9, 1e-7, 5e-7, 9.9e-7)
    if j > 1 or dist > 0
]


class TestEstimateConstant:
    def test_sibuya_constant_is_one(self):
        est = tc.estimate_constant(TrialChainParams(0.5, 1.0), grid=(100, 1000, 10_000))
        assert est.constant == pytest.approx(1.0, abs=1e-2)
        assert est.spread < 1e-2
        assert est.regime == Regime.SIBUYA

    def test_fractional_spread_frozen(self):
        est = tc.estimate_constant(TrialChainParams(0.5, 0.7))
        assert est.grid == (1000, 3000, 10_000)
        assert est.spread < 0.02
        assert est.constant == pytest.approx(2.4914506268324415, rel=1e-6)

    def test_improper_uses_conditional(self):
        est = tc.estimate_constant(TrialChainParams(0.5, 2.0))
        # conditional pmf ~ C p/n^gamma with C -> 1/(1 - mass) * survival limit
        assert est.spread < 0.02
        assert est.regime == Regime.IMPROPER

    @pytest.mark.parametrize("p,j,dist", BOUNDARY_CASES)
    def test_near_boundary_warns_and_uses_shape(self, p, j, dist):
        # inside the window the shape takes the integer power, whose constant
        # stays finite; the regime stays non-integer, with a warning
        params = TrialChainParams(p, 1.0 / (j + dist))
        inv = 1.0 / params.gamma
        assert tc._INTEGER_TOL < abs(inv - j) <= tc._BOUNDARY_WARN_TOL
        with pytest.warns(UserWarning, match="near an integer"):
            est = tc.estimate_constant(params)
        assert est.regime is Regime.FRACTIONAL_NON_INTEGER
        grid = (1000, 3000, 10_000)
        assert est.log_ratios == tuple(
            tc.log_pmf(params, n) - tc.log_asym_pmf_shape(params, n) for n in grid
        )
        assert math.isfinite(est.constant)

    def test_tiny_gamma_returns(self):
        # floor(1/gamma) = 810,372,771 expansion terms, all but the first
        # 1,074 exactly 0.0 (p^j underflows at j = 1,075)
        est = tc.estimate_constant(TrialChainParams(0.5, 1.234e-9))
        assert est.regime is Regime.FRACTIONAL_NON_INTEGER
        assert all(math.isfinite(r) for r in est.log_ratios)

    @pytest.mark.parametrize("grid, message", [
        ((1000, 10_000), "increasing"),
        ((10_000, 3000, 1000), "increasing"),
        ((1000, 1000, 1000), "increasing"),
        ((1, 1000, 10_000), "increasing"),
        ((10, 100, 500), ">= 1000"),
    ])
    def test_grid_validation(self, grid, message):
        with pytest.raises(ValueError, match=message):
            tc.estimate_constant(TrialChainParams(0.5, 0.7), grid=grid)


def _truncated_pgf(params, z, order=512):
    """(sum_{n<=order} z^n pmf(n), truncation bound z^order P{X > order})."""
    table = tc.pmf_table(params, order)
    value = math.fsum(table.probs * z ** np.arange(1, order + 1))
    return value, z**order * math.exp(table.log_tail)


class TestPgf:
    def test_z_zero(self):
        # G(0) = P{X = 0} = 0: the table starts at n = 1
        assert _truncated_pgf(TrialChainParams(0.5, 0.7), 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_z_one_recovers_total_mass(self, gamma):
        value, bound = _truncated_pgf(TrialChainParams(0.5, gamma), 1.0)
        assert value + bound == pytest.approx(1.0, abs=1e-12)
        assert value <= 1.0

    def test_sibuya_closed_form(self):
        # G(z) = 1 - (1 - z)^p
        value, bound = _truncated_pgf(TrialChainParams(0.5, 1.0), 0.75)
        assert abs(value - 0.5) <= bound + 1e-13
        assert bound < 1e-12

    def test_geometric_closed_form(self):
        p, z = 0.3, 0.9
        value, bound = _truncated_pgf(TrialChainParams(p, 0.0), z)
        closed = p * z / (1.0 - (1.0 - p) * z)
        assert abs(value - closed) <= bound + 1e-13


class _FixedUniforms:
    """Stands in for a Generator whose `random(n)` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _chi2_upper(df):
    """Upper 1e-4 quantile of chi2(df), Wilson-Hilferty approximation."""
    z = 3.719
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def _two_sample_chi2(a, b):
    """(statistic, degrees of freedom) comparing equal-size integer samples.

    Ascending values pool into cells of at least 50 draws of a and b
    together; a short last cell joins the one before it.
    """
    values, counts = np.unique(np.concatenate((a, b)), return_counts=True)
    starts, held = [0], 0
    for i, count in enumerate(counts[:-1]):
        held += count
        if held >= 50:
            starts.append(i + 1)
            held = 0
    if held + counts[-1] < 50 and len(starts) > 1:
        starts.pop()
    edges = values[starts]
    ca, cb = (np.bincount(np.searchsorted(edges, x, side="right") - 1, minlength=edges.size)
              for x in (a, b))
    return float(np.sum((ca - cb) ** 2 / (ca + cb))), edges.size - 1


class TestSampling:
    @pytest.mark.parametrize("gamma,cap", [(0.7, tc.DEFAULT_CAP), (2.0, 5)])
    def test_matches_literal_sampler(self, gamma, cap):
        # the literal Bernoulli-trial oracle against the inverse transform;
        # a censored draw counts as 0, below every trial index, so the
        # censored share is a cell of its own
        params = TrialChainParams(0.5, gamma)
        n = 20_000
        rng = np.random.default_rng(31)
        literal = np.array([oracles.sample(params, rng, cap) or 0 for _ in range(n)])
        values, censored = tc.sample_many(params, np.random.default_rng(32), n, cap=cap)
        assert (values == 0).tolist() == censored.tolist()
        assert censored.any() == (literal == 0).any() == (gamma > 1.0)
        stat, df = _two_sample_chi2(literal, values)
        assert df >= 5
        assert stat < _chi2_upper(df)

    def test_deterministic(self):
        params = TrialChainParams(0.5, 0.7)
        v1, c1 = tc.sample_many(params, np.random.default_rng(11), 1000)
        v2, c2 = tc.sample_many(params, np.random.default_rng(11), 1000)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(c1, c2)

    def test_high_p_hits_first_trial(self):
        params = TrialChainParams(0.999, 1.0)
        values, _ = tc.sample_many(params, np.random.default_rng(3), 2000)
        assert (values == 1).sum() > 1950  # expect ~1998

    def test_censoring(self):
        params = TrialChainParams(0.5, 2.0)
        values, censored = tc.sample_many(params, np.random.default_rng(5), 400, cap=5)
        assert censored.any() and not censored.all()
        assert (values[censored] == 0).all()
        assert ((values[~censored] >= 1) & (values[~censored] <= 5)).all()
        # P{X >= 6} ~ 0.397; 400 draws give sd ~ 0.024
        assert abs(censored.mean() - tc.tail(params, 6)) < 0.1

    def test_cap_validation(self):
        params = TrialChainParams(0.5, 1.0)
        with pytest.raises(ValueError):
            tc.sample_many(params, np.random.default_rng(0), 10, cap=0)
        with pytest.raises(ValueError):
            tc.sample_many(params, np.random.default_rng(0), -1)

    def test_sample_many_empty(self):
        values, censored = tc.sample_many(TrialChainParams(0.5, 1.0), np.random.default_rng(0), 0)
        assert values.size == 0 and censored.size == 0

    @pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0, 2.0])
    def test_sample_many_draws_do_not_depend_on_count(self, gamma):
        # draw i depends only on the generator state and i: the first n
        # draws of a batch of n + 1 are the batch of n
        params = TrialChainParams(0.5, gamma)
        for seed in (1, 2, 3):
            for n in (10, 1000):
                v1, c1 = tc.sample_many(params, np.random.default_rng(seed), n)
                v2, c2 = tc.sample_many(params, np.random.default_rng(seed), n + 1)
                np.testing.assert_array_equal(v1, v2[:n])
                np.testing.assert_array_equal(c1, c2[:n])

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_integer_gamma_draws_as_its_float(self, p):
        # an int gamma reaches the power sum past the table as an int
        # exponent, which numpy would refuse on an int64 array of trials
        draws = [tc.sample_many(TrialChainParams(p, g), np.random.default_rng(9), 5000)
                 for g in (1, 1.0)]
        assert (draws[0][0] > tc._SAMPLE_TABLE).any()
        for got, want in zip(*draws):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0, 2.0])
    def test_zero_uniform_gives_first_trial(self, gamma):
        values, censored = tc.sample_many(
            TrialChainParams(0.5, gamma), _FixedUniforms(np.zeros(3)), 3
        )
        assert values.tolist() == [1, 1, 1] and not censored.any()

    @pytest.mark.parametrize(
        "p,gamma", [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.05, 0.5), (0.9, 1.5)]
    )
    def test_matches_search_of_the_full_table(self, p, gamma):
        # the draws past the first 4096-term table, found by the search on
        # the closed survival there (the table's last entry plus the failure
        # series), against one search of the whole survival prefix up to the
        # cap
        cap = 2**17
        full = tc._log_survival_prefix(TrialChainParams(p, gamma), cap)
        targets = np.linspace(full[-1] - 1.0, full[1000], 20_000)
        u = np.concatenate(
            ([0.0], np.random.default_rng(23).random(20_000), -np.expm1(targets))
        )
        values, censored = tc.sample_many(TrialChainParams(p, gamma), _FixedUniforms(u), u.size, cap)
        t = np.log1p(-u)
        want = np.searchsorted(-full, -t, side="right")
        want_censored = want > cap
        assert (want > tc._SAMPLE_TABLE).sum() > 1000 and want_censored.sum() > 100
        # one cell boundary of the table lies within 1e-12 of t
        near = (np.abs(full[want - 1] - t) <= 1e-12) | (
            np.abs(full[np.minimum(want, cap)] - t) <= 1e-12
        )
        if gamma != 1.0:
            # the closed survival is within a few ulps of the scanned prefix
            # and no target here lies that close to a cell boundary: no
            # tolerance away from gamma = 1
            near[:] = False
        assert near.sum() < 10
        np.testing.assert_array_equal(censored[~near], want_censored[~near])
        np.testing.assert_array_equal(
            values[~near & ~censored], want[~near & ~censored]
        )
        assert (values[censored] == 0).all()

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_chi_square_across_table_seam_and_cap(self, p):
        # cells straddle the end of the first table (4096) and the cap, so
        # both the table search and the search past the table are tested
        # against the law; the reference tail is math.lgamma's closed form
        cap, n_draws = 2**17, 1_000_000
        rng = np.random.default_rng(np.random.SeedSequence(20261019).spawn(1)[0])
        values, censored = tc.sample_many(TrialChainParams(p, 1.0), rng, n_draws, cap=cap)
        edges = np.array([1, 2, 3, 5, 10, 30, 100, 300, 1000, 2500, 4000, 4200,
                          6000, 20000, 60000, 120000, cap + 1])

        def tail_ge(m):  # P{X >= m}
            return math.exp(math.lgamma(m - p) - math.lgamma(m) - math.lgamma(1.0 - p))

        t = np.array([tail_ge(int(m)) for m in edges])
        probs = np.append(t[:-1] - t[1:], t[-1])
        cells = np.searchsorted(edges, values[~censored], side="right") - 1
        counts = np.append(np.bincount(cells, minlength=edges.size - 1), censored.sum())
        expected = probs * n_draws
        assert expected.min() > 50.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < _chi2_upper(edges.size - 1)

    @pytest.mark.parametrize("gamma", [60.0, 1e6])
    def test_huge_gamma_censors_without_scanning_to_cap(self, gamma):
        # every chain either succeeds at trial 1 or never: the never-success
        # draws are censored by the closed survival at cap, not by a table
        # out to cap
        params = TrialChainParams(0.5, gamma)
        tc._log_survival_prefix.cache_clear()
        values, censored = tc.sample_many(params, np.random.default_rng(8), 100_000)
        assert (values[~censored] == 1).all()
        mass = tc.improper_mass(params)
        assert abs(censored.mean() - mass) < 5.0 * math.sqrt(mass * (1.0 - mass) / 1e5)
        assert tc._prefix_chains.entries[params._cache_key()][0].size == tc._SAMPLE_TABLE + 1

    def test_far_draws_keep_the_table_and_bounded_memory(self):
        # draws out to 1e8 search the closed survival past the table, which
        # stays at 4,096 terms; growing the table to the farthest draw
        # peaked at 269 MB here
        params = TrialChainParams(0.001, 0.5)
        tc._log_survival_prefix.cache_clear()
        tracemalloc.start()
        try:
            values, censored = tc.sample_many(params, np.random.default_rng(4), 1000, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (values > tc._SAMPLE_TABLE).sum() > 800 and values.max() > 10**6
        assert not censored.any()
        assert peak < 8e6
        assert tc._prefix_chains.entries[params._cache_key()][0].size == tc._SAMPLE_TABLE + 1

    def test_largest_cap_terminates(self):
        # at cap = 2^63 - 1 the bracket's midpoint and the interpolated guess
        # must stay inside int64; the censored count is the one the Stirling
        # tail's bisection gave
        params = TrialChainParams(0.1, 1.0)
        values, censored = tc.sample_many(params, np.random.default_rng(5), 20_000, 2**63 - 1)
        assert censored.sum() == 233
        assert (values[censored] == 0).all()
        assert values[~censored].min() >= 1 and values.max() > 2**62

    @pytest.mark.parametrize(
        "p,gamma",
        [(0.1, 1.0), (0.5, 1.0), (0.05, 0.5), (0.001, 0.5), (0.01, 0.9),
         (0.9, 1.5), (0.3, 2.0), (0.008, 1e-4)],
    )
    def test_closed_survival_matches_the_scan(self, p, gamma):
        # ln P{X > m} past the table, as the sampler forms it, against the
        # compensated scan of every factor
        params = TrialChainParams(p, gamma)
        full = tc._log_survival_prefix(params, 2**17)
        m = np.unique(np.geomspace(4097, 2**17, 2000).astype(np.int64))
        parts = tc._failure_series(params, 4097, m, full[4096])
        assert len(parts) <= 10
        got = sum(parts[::-1])
        assert np.all(np.abs(got - full[m]) <= 8 * np.spacing(np.abs(full[m])))

    @pytest.mark.parametrize("p,gamma", [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (0.3, 0.0)])
    def test_chi_square_against_pmf(self, p, gamma):
        params = TrialChainParams(p, gamma)
        n_draws, cap = 1_000_000, 20
        rng = np.random.default_rng(np.random.SeedSequence(20260814).spawn(1)[0])
        values, censored = tc.sample_many(params, rng, n_draws, cap=cap)
        counts = np.bincount(values[~censored], minlength=cap + 1)[1:]
        counts = np.append(counts, censored.sum())
        table = tc.pmf_table(params, cap)
        expected = np.append(table.probs, table.tail) * n_draws
        assert expected.min() > 50.0  # chi-square validity
        stat = float(np.sum((counts - expected) ** 2 / expected))
        # 21 cells -> 20 dof (expected counts are fully specified, not fitted)
        # but hold the stricter 99.9% quantile of chi2(21) anyway
        assert stat < 46.8


class TestGrowingChain:
    def test_first_mass_exact(self):
        assert tc.growing_pmf(GrowingChainParams(0.5, 1.0), 1) == 0.5
        assert tc.growing_pmf(GrowingChainParams(0.3, 2.5), 1) == 0.7

    def test_tail_hand_value(self):
        # q^4 / 4!
        t = tc.growing_tail(GrowingChainParams(0.5, 1.0), 5)
        assert t == pytest.approx(0.5**4 / 24.0, rel=1e-14, abs=0.0)

    def test_tail_against_brute(self):
        q, gamma = 0.6, 0.8
        params = GrowingChainParams(q, gamma)
        for m in (1, 2, 3, 7, 20):
            brute = 1.0
            for k in range(1, m):
                brute *= q / k**gamma
            assert tc.growing_tail(params, m) == pytest.approx(brute, rel=1e-13, abs=0.0)

    def test_telescoping_sum(self):
        params = GrowingChainParams(0.7, 0.5)
        total = math.fsum(tc.growing_pmf(params, n) for n in range(1, 60))
        assert total + tc.growing_tail(params, 60) == pytest.approx(1.0, abs=1e-13)

    def test_deep_tail_log_survives(self):
        params = GrowingChainParams(0.5, 1.0)
        table = tc.pmf_table(params, 200)
        assert table.total_mass() == pytest.approx(1.0, abs=1e-13)
        # factorial decay has long since underflowed linear floats here,
        # but the last entry and the tail slot still carry their logs:
        # P{X = 200} / P{X > 200} = (1 - q/200) / (q/200) = 399
        assert math.isfinite(table.log_tail) and table.log_tail < -900.0
        assert table.log_probs[-1] == pytest.approx(table.log_tail + math.log(399.0), rel=1e-13)

    @pytest.mark.parametrize("q,gamma", [(0.5, 1.0), (0.3, 0.7), (0.9, 2.0)])
    def test_table_keeps_deep_logs(self, q, gamma):
        # ln P{X = n} = (n-1) ln q - gamma ln (n-1)! + log1p(-q n^-gamma),
        # finite and accurate long after the linear pmf has underflowed
        table = tc.pmf_table(GrowingChainParams(q, gamma), 2000)
        n = np.arange(1, 2001)
        want = np.array([(k - 1) * math.log(q) - gamma * math.lgamma(k)
                         + math.log1p(-q * k**-gamma) for k in n.tolist()])
        assert np.isfinite(table.log_probs).all()
        np.testing.assert_allclose(table.log_probs, want, rtol=1e-13)

    def test_table_is_one_prefix_scan(self, monkeypatch):
        # the tails come from the shared survival prefix, not from log-gamma
        def no_lgamma(x):
            raise AssertionError("log-gamma called")

        monkeypatch.setattr(math, "lgamma", no_lgamma)
        tc._log_survival_prefix.cache_clear()
        table = tc.pmf_table(GrowingChainParams(0.5, 1.0), 10**5)
        assert tc._log_survival_prefix.cache_info()[:2] == (0, 1)
        assert np.isfinite(table.log_probs).all()

    @pytest.mark.parametrize("q,gamma", [(0.5, 1.0), (0.9, 0.0), (0.3, 2.5), (0.999, 0.1)])
    def test_underflow_shortcut_matches_scan(self, q, gamma):
        # past the first m whose closed log is below -746 the scalars return
        # 0.0 without a scan; on both sides they equal exp of the scan
        params = GrowingChainParams(q, gamma)
        m_star = next(m for m in itertools.count(2)
                      if (m - 1) * math.log(q) - gamma * math.lgamma(m) < -746.0)
        prefix = tc._log_survival_prefix(params, m_star + 1)
        for m in (m_star - 2, m_star - 1, m_star, m_star + 1):
            scan = math.exp(prefix[m - 1])
            assert tc.growing_tail(params, m) == scan
            assert tc.growing_pmf(params, m) == scan * (1.0 - q * m**-gamma)
        assert tc.growing_tail(params, m_star) == 0.0

    def test_underflowed_scalars_make_no_scan(self):
        params = GrowingChainParams(0.5, 1.0)
        tc._log_survival_prefix.cache_clear()
        assert tc.growing_pmf(params, 10**6) == 0.0
        assert tc._log_survival_prefix.cache_info().misses == 0
        # a scan this long could not be allocated
        assert tc.growing_pmf(params, 10**15) == 0.0
        assert tc.growing_tail(params, 10**15) == 0.0

    def test_domains(self):
        params = GrowingChainParams(0.5, 1.0)
        with pytest.raises(ValueError):
            tc.growing_tail(params, 0)
        with pytest.raises(ValueError):
            tc.growing_pmf(params, 0)
        with pytest.raises(ValueError):
            tc.pmf_table(params, 0)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=1, max_value=80),
    )
    def test_pmf_nonnegative_tail_monotone(self, q, gamma, n):
        params = GrowingChainParams(q, gamma)
        assert tc.growing_pmf(params, n) >= 0.0
        assert tc.growing_tail(params, n + 1) <= tc.growing_tail(params, n)
