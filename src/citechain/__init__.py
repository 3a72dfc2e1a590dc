"""Trial-chain distribution family and citation analytics.

Layout:

- `specfun`: the log-gamma ratio and Riemann zeta, tuned for the ranges the
  distribution code needs (log-gamma itself is `math.lgamma`).
- `trial_chain`: first-success laws with success probability p/k^gamma,
  their tails, asymptotic shapes, improper mass, the sampler, and the
  growing-probability variant.
- `author_model`: compound law of total citations for an author whose
  paper count follows the gamma = 1 chain, by one convolution series.
- `hirsch`: analytic h-index distribution under the chain model plus
  vectorized event-level simulation.
- `scientometrics`: citation-table statistics (kappa, correlations) with
  embedded reference listings.
- `cli`: `citechain` command-line interface over all of the above.
"""

from .author_model import AuthorParams, author_pmf, author_pmf_series
from .hirsch import HirschMode, HirschParams, hirsch_pmf
from .scientometrics import AuthorRecord, ReportTable, load_dataset, report
from .tables import PmfTable
from .trial_chain import (
    GrowingChainParams,
    Regime,
    TrialChainParams,
    classify_regime,
    estimate_constant,
    growing_pmf,
    improper_mass,
    log_pmf,
    log_tail,
    pmf,
    pmf_table,
    sample_many,
    sibuya_tail_closed,
    tail,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorParams",
    "AuthorRecord",
    "GrowingChainParams",
    "HirschMode",
    "HirschParams",
    "PmfTable",
    "Regime",
    "ReportTable",
    "TrialChainParams",
    "__version__",
    "author_pmf",
    "author_pmf_series",
    "classify_regime",
    "estimate_constant",
    "growing_pmf",
    "hirsch_pmf",
    "improper_mass",
    "load_dataset",
    "log_pmf",
    "log_tail",
    "pmf",
    "pmf_table",
    "report",
    "sample_many",
    "sibuya_tail_closed",
    "tail",
]
