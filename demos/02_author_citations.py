"""The citation total of one author: a heavy-tailed compound law.

Paper count X follows the gamma = 1 trial chain with exponent p; each paper
collects a geometric({0,1,...}, q) number of citations; S is the citation
total.  The package computes the pmf of S by a convolution series; here it
is set beside a numeric generating-function composition and the closed
values P{S = 0} = 1 - (1-q)^p and P{S = 1} = p q (1-q)^p.  The law inherits
the X tail: S has infinite mean.
"""

import math

import numpy as np

from citechain import author_model, streams, trial_chain
from citechain.author_model import AuthorParams

params = AuthorParams(p=0.5, q=0.5)

print("=== pmf head: series against pgf composition ===")
p, q = params.p, params.q
chain = trial_chain.pmf_table(trial_chain.TrialChainParams(p, 1.0), 2000)
# coefficients of outer(inner(z)) through z^12 by Horner's rule: the chain
# pgf outer, the geometric pgf inner
inner = q * (1.0 - q) ** np.arange(13, dtype=np.float64)
composed = np.zeros(13)
for c in np.concatenate(([0.0], chain.probs))[::-1]:
    composed = np.convolve(composed, inner)[:13]
    composed[0] += c
series = author_model.author_pmf_series(params, 12)
closed = {0: -math.expm1(p * math.log1p(-q)), 1: p * q * (1.0 - q) ** p}
print("   s   series             pgf composition    closed form")
for s in range(6):
    exact = f"{closed[s]:.15f}" if s in closed else ""
    print(f"  {s:>2}   {series[s]:.15f}  {composed[s]:.15f}  {exact}".rstrip())

print()
print("=== the tail is a power law: partial means keep growing ===")
table = author_model.author_pmf_series(params, 10**4)
weights = np.arange(table.size, dtype=np.float64) * table
for cut in (10**2, 10**3, 10**4):
    print(f"  sum of s * pmf(s) for s <= {cut:>6}: {float(np.sum(weights[: cut + 1])):.4f}")
print(f"  pmf(1e4)/pmf(1e3) = {table[10**4] / table[10**3]:.6f} "
      f"(a pure s^-(1+p) tail gives {10.0 ** -1.5:.6f})")

print()
print("=== transform-side view of the same tail ===")
for t in (1e-1, 1e-3, 1e-6):
    exact = author_model.laplace_tail_exact(params, t)
    asym = author_model.laplace_tail_asym(params, t)
    print(f"  t = {t:<6}  1 - E[exp(-tS)] = {exact:.10e}   ~ ((1-q)/q)^p t^p = {asym:.10e}")

print()
print("=== simulation: paper counts by inverse transform, citation sums exactly ===")
rng = streams.derive_streams(101, 1)[0]
papers, citations = author_model.sample_citations(params, rng, 3000, cap=10**8)
print(f"  3000 authors: max papers = {papers.max()}, max citations = {citations.max()}")
freq0 = float((citations == 0).mean())
print(f"  share with zero citations: {freq0:.4f}  (law says {author_model.author_pmf(params, 0):.4f})")
print("  the deep cap matters: one author in ~1800 runs past 1e6 papers")
