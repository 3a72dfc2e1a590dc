"""Tour of the variable-success trial chain family.

One success level p and one decay exponent gamma define the time of the
first success when trial n succeeds with probability p/n^gamma.  gamma = 0
is the plain geometric law; gamma = 1 has a power tail and infinite mean;
gamma > 1 leaves positive probability that no trial ever succeeds.  This
script walks the regimes, checks the books balance, and fits the large-n
shape.
"""

import math

from citechain import streams, trial_chain
from citechain.trial_chain import TrialChainParams

print("=== regimes ===")
for gamma in (0.0, 0.35, 0.5, 1.0, 2.0):
    params = TrialChainParams(0.5, gamma)
    print(f"  gamma = {gamma:<4}  ->  {trial_chain.classify_regime(gamma).name}")

print()
print("=== pmf head and normalization (p = 0.5) ===")
for gamma in (0.0, 0.5, 1.0):
    params = TrialChainParams(0.5, gamma)
    table = trial_chain.pmf_table(params, 10_000)
    head = "  ".join(f"{v:.6f}" for v in table.probs[:5])
    total = math.fsum(table.probs) + trial_chain.tail(params, 10_001)
    print(f"  gamma = {gamma}:  pmf(1..5) = {head}")
    print(f"             sum(pmf, n <= 1e4) + tail(1e4 + 1) = {total:.15f}")

print()
print("=== gamma = 1: the product tail has a closed form ===")
params = TrialChainParams(0.5, 1.0)
for m in (1, 2, 10, 100, 10_000):
    product = trial_chain.tail(params, m)
    closed = trial_chain.sibuya_tail_closed(0.5, m)
    print(f"  m = {m:<6} product = {product:.12e}  closed = {closed:.12e}")
print("  the tail falls like m^-p: an infinite-mean law")

print()
print("=== fractional gamma: certified large-n shape ===")
params = TrialChainParams(0.5, 0.7)
est = trial_chain.estimate_constant(params)
print(f"  pmf(n) ~ C * shape(n) on grid {est.grid}")
print(f"  C = {est.constant:.10f}   ratio spread = {est.spread:.2e}")
# 1/gamma < 2, so the shape's exponent sum is the single term
# p n^(1-gamma)/(1-gamma); flipping its sign adds it twice
bad = [
    trial_chain.log_pmf(params, n)
    - trial_chain.log_asym_pmf_shape(params, n)
    - 2.0 * params.p * n ** (1.0 - params.gamma) / (1.0 - params.gamma)
    for n in est.grid
]
print(f"  flipping the exponent sign spreads the log ratio over {max(bad) - min(bad):.1f}")

print()
print("=== gamma = 2: an improper law ===")
params = TrialChainParams(0.5, 2.0)
mass = trial_chain.improper_mass(params)
print(f"  P(no success, ever) = {mass:.15f}")
print(f"  conditional pmf * n^2 at n = 1e4: {trial_chain.conditional_pmf(params, 10**4) * 1e8:.6f}")
print(f"  conditional pmf * n^2 at n = 1e5: {trial_chain.conditional_pmf(params, 10**5) * 1e10:.6f}")

rng = streams.derive_streams(7, 1)[0]
values, censored = trial_chain.sample_many(params, rng, 100_000, cap=1000)
print(f"  sampling 1e5 chains capped at 1000 trials: {censored.mean():.5f} censored")
print(f"  (the cap stands in for 'never'; compare with the mass above)")

print()
print("=== sampling is deterministic given a master seed ===")
draws, _ = trial_chain.sample_many(
    TrialChainParams(0.5, 1.0), streams.derive_streams(42, 1)[0], 12
)
print("  twelve draws at (0.5, 1):", draws.tolist())
