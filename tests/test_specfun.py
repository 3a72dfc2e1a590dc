"""Special-function kernel checks against independent oracles.

Oracle sources: 40-digit mpmath log-gamma, which checks both routes of the
log-gamma ratio (`math.lgamma` below m = 30, the Stirling difference from
there on); frozen high-precision constants (50-digit arithmetic, evaluated
once and inlined as literals); closed forms; and brute-force summation.  The
generating-function composition oracle of `oracles.py` is checked here as
well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from citechain import specfun as sf

# frozen 50-digit-arithmetic reference values
ZETA_HALF = -1.4603545088095868129
ZETA_03 = -0.90455925725398399
ZETA_15 = 2.6123753486854883433
ZETA_2 = 1.6449340668482264365
ZETA_3 = 1.2020569031595942854
ZETA_4 = 1.0823232337111381915
ZETA_10 = 1.0009945751278181
GAMMA_15 = 0.88622692545275801365  # Gamma(1.5)
GAMMA_RATIO_1E6 = 0.0010000003750001953126  # Gamma(1e6 - 0.5)/Gamma(1e6)


class TestGammaRatio:
    def test_example_m2(self):
        assert math.exp(sf.log_gamma_ratio(2.0, 0.5)) == pytest.approx(GAMMA_15, rel=1e-13, abs=0.0)

    def test_small_p_is_one(self):
        assert math.exp(sf.log_gamma_ratio(7.0, 1e-9)) == pytest.approx(1.0, abs=1e-7)

    def test_large_m_asymptote(self):
        ratio = math.exp(sf.log_gamma_ratio(1e6, 0.5))
        assert ratio == pytest.approx(1e-3, rel=1e-6)
        assert ratio == pytest.approx(GAMMA_RATIO_1E6, rel=1e-12, abs=0.0)

    def test_power_invariant(self):
        assert abs(math.exp(sf.log_gamma_ratio(1e4, 0.5)) * 1e4**0.5 - 1.0) < 1e-4

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.log_gamma_ratio(0.3, 0.5)
        with pytest.raises(ValueError):
            sf.log_gamma_ratio(5.0, 1.5)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_against_libm(self, m, p):
        ref = math.lgamma(m - p) - math.lgamma(m)
        # libm's own cancellation at large m limits the comparison scale
        assert sf.log_gamma_ratio(m, p) == pytest.approx(
            ref, abs=max(1e-12, 8.0 * math.ulp(math.lgamma(m)))
        )

    def test_stirling_branch_continuity(self):
        # the two internal routes agree where they hand over
        for m in (29.5, 30.0, 30.5, 31.0):
            direct = math.lgamma(m - 0.37) - math.lgamma(m)
            assert sf.log_gamma_ratio(m, 0.37) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("p", [0.01, 0.37, 0.5, 0.99])
    def test_shifted_route_against_mpmath(self, p):
        # below m = 30 the ratio is shifted up by the recurrence, not taken
        # as a difference of two math.lgamma values of size up to 71
        mpmath = pytest.importorskip("mpmath")
        ms = [1.0, 1.25, 2.0, 2.5, 3.7, 7.0, 12.3, 19.0, 25.5, 29.0, 29.999]
        with mpmath.workdps(40):
            for m in ms:
                ref = mpmath.loggamma(mpmath.mpf(m) - mpmath.mpf(p)) - mpmath.loggamma(m)
                assert abs(mpmath.mpf(sf.log_gamma_ratio(m, p)) - ref) <= 2e-15, m


class TestRiemannZeta:
    @pytest.mark.parametrize(
        "s,expected",
        [
            (2.0, math.pi**2 / 6.0),
            (4.0, math.pi**4 / 90.0),
            (0.5, ZETA_HALF),
            (0.3, ZETA_03),
            (1.5, ZETA_15),
            (3.0, ZETA_3),
            (10.0, ZETA_10),
        ],
    )
    def test_reference_values(self, s, expected):
        assert sf.riemann_zeta(s) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("s", [1.0, 0.0, -2.0])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError):
            sf.riemann_zeta(s)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_against_direct_partial_sum(self, s):
        # 1e7-term direct sum + integral tail bracket: zeta must sit inside
        n = 10**7
        k = np.arange(1, n + 1, dtype=np.float64)
        partial = float(np.sum(k**-s))  # pairwise summation, error way below 1e-8
        tail_hi = (n + 0.0) ** (1.0 - s) / (s - 1.0)
        tail_lo = (n + 1.0) ** (1.0 - s) / (s - 1.0)
        z = sf.riemann_zeta(s)
        assert partial + tail_lo - 1e-8 <= z <= partial + tail_hi + 1e-8

    def test_large_argument_tends_to_one(self):
        assert sf.riemann_zeta(60.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("s", [1.000001, 1.5, 2.0, 3.0, 10.0])
    def test_start_two_is_zeta_minus_one(self, s):
        want = sf.riemann_zeta(s) - 1.0
        assert sf.riemann_zeta(s, start=2) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_start_two_keeps_relative_accuracy(self):
        # zeta(60) - 1 = 2^-60 (1 + (2/3)^60 ...) has no digits left after
        # subtracting 1 from zeta(60); abs=0.0, as approx would otherwise
        # pass any value within 1e-12 of this 8.7e-19
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.zeta(60) - 1)
        assert sf.riemann_zeta(60.0, start=2) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_underflowing_argument(self):
        assert sf.riemann_zeta(1e300) == 1.0
        assert sf.riemann_zeta(1e300, start=2) == 0.0

    def test_start_domain(self):
        with pytest.raises(ValueError):
            sf.riemann_zeta(2.0, start=0)

    @pytest.mark.parametrize("start", [24, 10**6])
    @pytest.mark.parametrize("s", [0.5, 1.000001, 1.5, 2.0, 4.0, 10.0])
    def test_start_past_split_against_mpmath(self, s, start):
        # from start = 24 on, the Euler-Maclaurin split moves to start
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.zeta(s, start))
        assert sf.riemann_zeta(s, start=start) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("start", [24, 4097])
@pytest.mark.parametrize("s", [0.05, 0.35, 0.7, 0.999999, 1.0, 1.000001, 1.3, 2.0, 3.5, 10.0])
def test_finite_stop_against_mpmath(s, start):
    # sum_{k=start}^{stop} k^-s for an array of stops from start to 1e12;
    # where (1-s) ln(stop/start) passes ln 2 the integral is a difference of
    # two powers, so the rounding of that argument (up to 23 at s = 0.05) is
    # not carried into it; the worst case is 1.2e-15, at s = 0.05
    mpmath = pytest.importorskip("mpmath")
    stop = np.concatenate(([start, start + 1, start + 7], np.geomspace(start + 100, 1e12, 9)))
    stop = np.round(stop)
    got = sf.riemann_zeta(s, start, stop)
    assert got.shape == stop.shape
    with mpmath.workdps(40):
        for b, value in zip(stop.tolist(), got.tolist()):
            if s == 1.0:
                want = mpmath.harmonic(int(b)) - mpmath.harmonic(start - 1)
            else:
                want = mpmath.zeta(s, start) - mpmath.zeta(s, int(b) + 1)
            assert value == pytest.approx(float(want), rel=2e-15, abs=0.0), b


def test_finite_stop_scalar_and_domain():
    # a float stop gives the array entry's value; stop = inf is the zeta
    stops = np.array([30.0, 1e6])
    want = [sf.riemann_zeta(2.0, 3, x) for x in stops]
    np.testing.assert_allclose(sf.riemann_zeta(2.0, 3, stops), want, rtol=1e-15, atol=0.0)
    assert sf.riemann_zeta(2.0, 3, math.inf) == sf.riemann_zeta(2.0, 3)
    # one term: both ends carry the same corrections
    assert sf.riemann_zeta(3.5, 30, 30.0) == pytest.approx(30.0**-3.5, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError, match="max\\(24, start\\) <= stop"):
        sf.riemann_zeta(2.0, 2, 23.0)
    with pytest.raises(ValueError, match="max\\(24, start\\) <= stop"):
        sf.riemann_zeta(2.0, 100, np.array([100.0, 99.0]))
    with pytest.raises(ValueError, match="s != 1 if stop = inf"):
        sf.riemann_zeta(1.0, 2)


def _harmonic_partial_asymptote(s, n):
    """(exact, asymptote) for sum_{k=1}^{n-1} k^(-s), s in (0, 1).

    exact is the compensated direct sum; asymptote is the two-term form
    n^(1-s)/(1-s) + zeta(s), whose defect is -n^(-s)/2 + O(n^(-s-1)).
    """
    exact = math.fsum(np.arange(1, n, dtype=np.float64) ** -s)
    return exact, n ** (1.0 - s) / (1.0 - s) + sf.riemann_zeta(s)


class TestHarmonicPartialAsymptote:
    """zeta below s = 1 against the partial sums it continues."""

    # frozen defects; the leading error term is -n^(-s)/2, so the stated
    # closeness is asserted with an 8 ppm allowance over the round figure
    @pytest.mark.parametrize(
        "s,n,frozen_diff,bound",
        [
            (0.5, 10**4, -0.005000041666676225, 5.1e-3),
            (0.5, 10**6, -0.000500000041711246, 5.1e-4),
            (0.7, 10**4, -0.0007924558414416083, 8.0e-4),
        ],
    )
    def test_defect_values(self, s, n, frozen_diff, bound):
        exact, asym = _harmonic_partial_asymptote(s, n)
        assert abs(exact - asym) < bound
        assert exact - asym == pytest.approx(frozen_diff, abs=1e-9)


class TestSeriesCompose:
    """The generating-function composition oracle in `oracles.py`."""

    def test_identity_outer(self):
        inner = np.array([0.3, 0.2, 0.1])
        out = oracles.compose_pgf(np.array([0.0, 1.0]), inner, order=2)
        np.testing.assert_array_equal(out, inner)

    def test_square_of_linear(self):
        a = 0.7
        inner = np.array([0.0, a, 0.0])  # az as an exact polynomial
        outer = np.array([0.0, 0.0, 1.0])  # z^2
        out = oracles.compose_pgf(outer, inner, order=2)
        np.testing.assert_allclose(out, [0.0, 0.0, a * a], atol=1e-15)

    def test_order_overflow(self):
        with pytest.raises(ValueError, match="order overflow"):
            oracles.compose_pgf(np.array([0.0, 1.0]), np.array([0.0, 1.0]), order=5)

    def test_inner_constant_domain(self):
        with pytest.raises(ValueError):
            oracles.compose_pgf(np.array([0.0, 1.0]), np.array([1.0, 0.5]), order=1)

    def test_distributes_over_multiplication(self):
        # (f*g) o h == (f o h)*(g o h); f, g of degree 4 so their product
        # fits losslessly inside the order-8 window (truncating the outer
        # series before composing is lossy when h has a constant term)
        rng = np.random.default_rng(5)
        order = 8
        for _ in range(25):
            f = rng.uniform(-1.0, 1.0, size=5)
            g = rng.uniform(-1.0, 1.0, size=5)
            h = rng.uniform(-1.0, 1.0, size=9)
            h[0] = rng.uniform(0.0, 0.9)
            lhs = oracles.compose_pgf(np.convolve(f, g), h, order)
            rhs = np.convolve(
                oracles.compose_pgf(f, h, order), oracles.compose_pgf(g, h, order)
            )[: order + 1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_chain_pgf_first_coefficient(self):
        # composing the heavy-tail chain pgf with the geometric pgf must
        # reproduce the compound law's s=1 mass p*q*(1-q)^p
        from citechain import trial_chain as tc

        p, q = 0.5, 0.5
        table = tc.pmf_table(tc.TrialChainParams(p, 1.0), 60)
        outer = np.concatenate(([0.0], np.exp(table.log_probs)))
        inner = q * (1.0 - q) ** np.arange(0, 61, dtype=np.float64)
        composed = oracles.compose_pgf(outer, inner, order=60)
        expected = p * q * (1.0 - q) ** p
        assert composed[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1767766952966369, abs=1e-15)
