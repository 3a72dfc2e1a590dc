"""The index of an author whose paper and citation counts are both random.

An author writes L papers (geometric on {0,1,...} with parameter q); paper
citations follow the gamma = 1 trial chain with exponent p.  The closed form
P{H = h} = (1 - nu_h) nu_h^h, with nu_h built from the per-paper tail at h,
describes the event that exactly h papers reach h citations.  This script
checks it against direct summation and against simulation, and shows how
slowly the super-exponential tail reveals its exponent.
"""

import math

import numpy as np

from citechain import hirsch, streams
from citechain.hirsch import HirschMode, HirschParams

params = HirschParams(p=0.5, q=0.5)


def direct_pmf(h: int, l_max: int) -> float:
    """P{H = h} = sum_{l >= h} q (1-q)^l C(l, h) A(h)^h (1 - A(h))^(l-h), to l_max."""
    q, a = params.q, hirsch.at_least_prob(params.p, h)
    return math.fsum(
        q * (1.0 - q) ** l * math.comb(l, h) * a**h * (1.0 - a) ** (l - h)
        for l in range(h, l_max + 1)
    )


print("=== closed form vs direct summation over paper counts ===")
print("   h   closed form          direct (l_max = 2000)")
for h in (0, 1, 2, 3, 5, 8):
    closed = hirsch.hirsch_pmf(params, h)
    direct = direct_pmf(h, l_max=2000)
    print(f"  {h:>2}   {closed:.15e}  {direct:.15e}")
print(f"  hand values: pmf(0) = q = 0.5, pmf(1) = 0.25, pmf(2) = 2/27 = {2/27:.15f}")

print()
print("=== the closed-form event does not exhaust the sample space ===")
deficit = hirsch.normalization_deficit(params, 400)
print(f"  1 - sum of pmf = {deficit:.15f}")
print("  the remainder is the chance that no h has exactly h papers at h citations")

print()
print("=== simulation, 2e5 authors ===")
rng = streams.derive_streams(20260814, 1)[0]
h_vals, valid = hirsch.simulate_hirsch_many(params, rng, 200_000, citation_cap=10**4)
print(f"  no-match share = {float((~valid).mean()):.5f}   (deficit above = {deficit:.5f})")
print("   h   observed freq   closed form")
for h in range(5):
    obs = float(((h_vals == h) & valid).mean())
    print(f"  {h:>2}   {obs:.6f}       {hirsch.hirsch_pmf(params, h):.6f}")
true_h, all_valid = hirsch.simulate_hirsch_many(
    params, streams.derive_streams(20260814, 1)[0], 200_000,
    mode=HirschMode.TRUE_H, citation_cap=10**4,
)
print(f"  TRUE_H mode resolves every draw: valid share = {float(all_valid.mean()):.1f}")

print()
print("=== the tail exponent emerges logarithmically slowly ===")
print("  ln pmf(h) / (h ln h) tends to -p = -0.5, but:")
for h, ratio in hirsch.log_tail_diagnostic(params, (10**3, 10**4, 10**5, 10**6)):
    print(f"  h = {h:>8}:  ratio = {ratio:.6f}")
print("  the gap closes like ln(c)/ln(h); even h = 1e6 sits 10% short")

print()
print("=== light tail vs the heavy citation-total tail ===")
second_moment = math.fsum(h * h * hirsch.hirsch_pmf(params, h) for h in range(500))
print(f"  E[H^2] = {second_moment:.10f} (the series is spent by h ~ 200)")
print("  while E[S] for the citation total diverges (see demo 02)")
