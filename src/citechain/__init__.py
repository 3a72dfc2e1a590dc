"""Trial-chain distribution family and citation analytics.

Layout:

- `specfun`: the log-gamma ratio and the power sum sum_{k=start}^{stop} k^-s
  (Riemann zeta at stop = inf), tuned for the ranges the distribution code
  needs (log-gamma itself is `math.lgamma`).
- `trial_chain`: first-success laws with success probability p/k^gamma,
  their tails, asymptotic shapes, improper mass, the sampler (a table of
  4,096 terms, then the closed survival), and the growing-probability
  variant.
- `author_model`: compound law of total citations for an author whose
  paper count follows the gamma = 1 chain, by one convolution series.
- `hirsch`: analytic h-index distribution under the chain model plus
  vectorized event-level simulation.
- `scientometrics`: citation-table statistics (kappa, correlations) with
  embedded reference listings.
- `cli`: `citechain` command-line interface over all of the above.
"""

import importlib

# the public names by defining submodule, each imported on first use
# (PEP 562) so that `import citechain` alone loads no numpy: the process
# entry, `__main__`, must configure numpy's BLAS before it loads
_EXPORTS = {
    "author_model": ["AuthorParams", "author_pmf", "author_pmf_series"],
    "hirsch": ["HirschMode", "HirschParams", "hirsch_pmf"],
    "scientometrics": ["AuthorRecord", "ReportTable", "load_dataset", "report"],
    "tables": ["PmfTable"],
    "trial_chain": [
        "GrowingChainParams", "Regime", "TrialChainParams", "classify_regime",
        "estimate_constant", "growing_pmf", "improper_mass", "log_pmf", "log_tail",
        "pmf", "pmf_table", "sample_many", "sibuya_tail_closed", "tail",
    ],
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_SOURCE, "__version__"])


def __getattr__(name: str) -> object:
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
