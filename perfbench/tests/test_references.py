"""The references against mpmath and math.fsum, at a few points each."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import references as ref

mpmath.mp.dps = 40


def _mp_log_sibuya(p: float, m: int):
    m_, p_ = mpmath.mpf(m), mpmath.mpf(p)
    return mpmath.loggamma(m_ - p_) - mpmath.loggamma(m_) - mpmath.loggamma(1 - p_)


@pytest.mark.parametrize("p", [0.1037, 0.5, 0.9])
def test_gamma1_tail_matches_gamma_ratio(p):
    table = ref.log_tail_table(p, 1.0, 1_000_000)
    for m in (1, 2, 3, 30, 8430, 100_000, 456_674, 1_000_000):
        want = float(_mp_log_sibuya(p, m)) if m > 1 else 0.0
        assert abs(table[m - 1] - want) <= 1e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("p,gamma", [(0.5, 0.7), (0.31, 1.5), (0.77, 0.7), (0.6, 2.0)])
def test_other_gamma_tail_matches_fsum_and_mpmath(p, gamma):
    table = ref.log_tail_table(p, gamma, 200_001)
    terms = np.log1p(-p * np.arange(1, 200_001, dtype=np.float64) ** -gamma)
    for m in (2, 10, 1000, 200_001):
        assert abs(table[m - 1] - math.fsum(terms[: m - 1])) <= 1e-15 * max(1.0, abs(table[m - 1]))
    exact = mpmath.fsum(mpmath.log1p(-mpmath.mpf(p) * mpmath.mpf(k) ** -mpmath.mpf(gamma))
                        for k in range(1, 1000))
    assert abs(table[999] - float(exact)) <= 1e-15 * abs(float(exact))


def test_geometric_tail():
    table = ref.log_tail_table(0.3, 0.0, 50)
    assert table[0] == 0.0
    assert math.isclose(math.exp(table[49]), 0.7**49, rel_tol=1e-14)


@pytest.mark.parametrize("p,gamma", [(0.5, 2.0), (0.3, 1.5), (0.9, 3.0), (0.999, 1.5), (0.997, 3.0)])
def test_improper_mass_matches_the_product(p, gamma):
    """prod_k (1 - p/k^gamma): fsum of the logs up to K, and Euler-Maclaurin
    for the rest (mpmath.nprod is off in the third digit at gamma = 1.5)."""
    big_k = 2_000_000
    k = np.arange(1, big_k + 1, dtype=np.float64)
    head = math.fsum(np.log1p(-p * k**-gamma))
    rest1 = big_k ** (1 - gamma) / (gamma - 1) - 0.5 * big_k**-gamma + gamma / 12 * big_k ** (-gamma - 1)
    rest2 = big_k ** (1 - 2 * gamma) / (2 * gamma - 1)
    want = math.exp(head - p * rest1 - p * p / 2 * rest2)
    assert math.isclose(ref.improper_mass(p, gamma), want, rel_tol=1e-12)


def test_improper_mass_known_value():
    assert math.isclose(ref.improper_mass(0.5, 2.0), 0.35818778601324, rel_tol=1e-13)


def test_growing_tail():
    q, gamma = 0.4, 1.3
    got = ref.growing_log_tail(q, gamma, [1, 2, 10, 500])
    for m, value in zip([1, 2, 10, 500], got):
        want = (m - 1) * mpmath.log(q) - gamma * mpmath.loggamma(m)
        assert abs(value - float(want)) <= 1e-14 * max(1.0, abs(float(want)))


@pytest.mark.parametrize("p,q", [(0.5, 0.5), (0.2, 0.8), (0.8, 0.3)])
def test_hirsch_closed_form(p, q):
    hs = [0, 1, 2, 17, 1000, 9999]
    got = ref.hirsch_log_pmf(p, q, hs)
    for h, value in zip(hs, got):
        if h == 0:
            want = mpmath.log(q)
        else:
            a = mpmath.exp(_mp_log_sibuya(p, h)) if h > 1 else mpmath.mpf(1)
            nu = (1 - q) * a / (q + (1 - q) * a)
            want = mpmath.log(1 - nu) + h * mpmath.log(nu)
        assert abs(value - float(want)) <= 1e-13 * max(1.0, abs(float(want)))


@pytest.mark.parametrize("p,q", [(0.5, 0.5), (0.9, 0.05), (0.2, 0.8)])
def test_author_law_matches_taylor_coefficients(p, q):
    def pgf(z):
        return 1 - (1 - mpmath.mpf(q)) ** p * (1 - z) ** p * (1 - (1 - mpmath.mpf(q)) * z) ** -p

    coeffs = mpmath.taylor(pgf, 0, 25)
    got = ref.author_pmf(p, q, 25)
    for s in range(26):
        assert math.isclose(got[s], float(coeffs[s]), rel_tol=1e-14)


def test_author_pgf_matches_its_series():
    p, q = 0.4, 0.6
    probs = ref.author_pmf(p, q, 400)
    z = 0.8
    assert math.isclose(math.fsum(probs * z ** np.arange(401)), ref.author_pgf(p, q, z),
                        rel_tol=1e-13)


def test_listing_report():
    rows = [(1, 400, 10, 100), (2, 300, 8, 90), (3, 250, 7, 120), (4, 26, 5, 20)]
    rep = ref.listing_report(rows)
    assert rep["kappa"] == [4.0, 300 / 64, 250 / 49, 26 / 25]
    assert rep["h_mean"] == 7.5
    x = np.array([r[1] for r in rows], dtype=float)
    h = np.array([r[2] for r in rows], dtype=float)
    assert math.isclose(rep["h_sample_sd"], float(np.std(h, ddof=1)), rel_tol=1e-14)
    assert math.isclose(rep["rho1"], float(np.corrcoef(x, h)[0, 1]), rel_tol=1e-13)
    assert (rep["kappa_le_5_count"], rep["kappa_5_6_count"]) == (3, 1)
