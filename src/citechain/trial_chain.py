"""First-success laws for Bernoulli trial chains with decaying success odds.

A trial chain runs experiments k = 1, 2, ... with success probability
p_k = p / k^gamma and stops at the first success.  gamma = 0 recovers the
geometric law, gamma = 1 the discrete heavy-tailed law with tail exponent p
(infinite mean), and gamma > 1 leaves positive probability of never
succeeding.  A growing variant with p_k = 1 - q / k^gamma is also provided.

All probability accumulation happens in log space: one compensated sum of
the per-trial log failure chances, the survival prefix, serves both chains,
so tables remain exact even where the linear-space values underflow; see
`PmfTable` for the exchange format.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from ._cache import GrowOnlyCache
from .tables import PmfTable

__all__ = [
    "ConstantEstimate",
    "GrowingChainParams",
    "Regime",
    "TrialChainParams",
    "classify_regime",
    "conditional_pmf",
    "conditional_pmf_table",
    "estimate_constant",
    "growing_pmf",
    "growing_tail",
    "improper_mass",
    "log_asym_pmf_shape",
    "log_pmf",
    "log_tail",
    "pmf",
    "pmf_table",
    "sample_many",
    "sibuya_tail_closed",
    "tail",
    "tail_table",
]

_INTEGER_TOL = 1e-9
_BOUNDARY_WARN_TOL = 1e-6
DEFAULT_CAP = 10**6


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    if gamma == math.inf:
        raise ValueError(f"gamma must be finite, got {gamma!r}")


@dataclass(frozen=True)
class TrialChainParams:
    """Chain with success probability p / k^gamma at trial k."""

    p: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        _check_gamma(self.gamma)

    def _log_failure(self, k: np.ndarray) -> np.ndarray:
        """ln(1 - p/k^gamma), the log failure chance at trials k."""
        if self.gamma == 0.0:
            return np.full(k.shape, math.log1p(-self.p))
        return np.log1p(-self.p * k**-self.gamma)

    def _log_success(self, k: np.ndarray) -> np.ndarray:
        """ln(p/k^gamma), the log success chance at trials k."""
        return math.log(self.p) - self.gamma * np.log(k)

    def _cache_key(self) -> tuple:
        return (TrialChainParams, self.p, self.gamma)


@dataclass(frozen=True)
class GrowingChainParams:
    """Chain with success probability 1 - q / k^gamma at trial k."""

    q: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q!r}")
        _check_gamma(self.gamma)

    def _log_failure(self, k: np.ndarray) -> np.ndarray:
        """ln(q/k^gamma), the log failure chance at trials k."""
        return math.log(self.q) - self.gamma * np.log(k)

    def _log_success(self, k: np.ndarray) -> np.ndarray:
        """ln(1 - q/k^gamma), the log success chance at trials k."""
        return np.log1p(-self.q * k**-self.gamma)

    def _cache_key(self) -> tuple:
        return (GrowingChainParams, self.q, self.gamma)


class Regime(enum.Enum):
    GEOMETRIC = "geometric"
    FRACTIONAL_NON_INTEGER = "fractional_non_integer"
    FRACTIONAL_INTEGER = "fractional_integer"
    SIBUYA = "sibuya"
    IMPROPER = "improper"


def _expansion(gamma: float) -> tuple[Regime, int, bool]:
    """(regime, J, integer power): how the large-n shape expands at gamma.

    The regime splits at gamma = 0 and 1 within 1e-9, and fractional gamma
    on whether 1/gamma is within 1e-9 of an integer.  A fractional shape has
    J exponent terms, J = [1/gamma], unless 1/gamma lies within 1e-6 of an
    integer: then J = round(1/gamma) and the J-th term is the integer
    power, p^J/J added to the power of n.  J is 0 outside the fractional
    regimes.
    """
    _check_gamma(gamma)
    if gamma <= _INTEGER_TOL:
        return Regime.GEOMETRIC, 0, False
    if abs(gamma - 1.0) <= _INTEGER_TOL:
        return Regime.SIBUYA, 0, False
    if gamma > 1.0:
        return Regime.IMPROPER, 0, False
    inv = 1.0 / gamma
    j = round(inv)
    if abs(inv - j) <= _INTEGER_TOL:
        return Regime.FRACTIONAL_INTEGER, j, True
    if abs(inv - j) <= _BOUNDARY_WARN_TOL:
        return Regime.FRACTIONAL_NON_INTEGER, j, True
    return Regime.FRACTIONAL_NON_INTEGER, math.floor(inv), False


def classify_regime(gamma: float) -> Regime:
    """Asymptotic regime of the chain, keyed on gamma.

    Fractional gamma splits on whether 1/gamma is an integer (detected within
    1e-9), because an integer 1/gamma shifts one exponential correction term
    into the polynomial prefactor of the large-n shape.  The shape also
    takes that shift inside the 1e-6 near-boundary window, where the regime
    stays non-integer; see `log_asym_pmf_shape`.
    """
    return _expansion(gamma)[0]


_ChainParams = TrialChainParams | GrowingChainParams

# a block's scratch is about seven arrays of its length: 1 MB at 2^14 terms,
# beside the 8 bytes per term of the result
_SCAN_BLOCK = 1 << 14


def _extend_prefix(
    params: _ChainParams, chain: tuple | None, n_max: int
) -> tuple[np.ndarray, float, float]:
    """Continue the compensated scan `chain` = (S[0..j], s, c), or the
    empty chain S[0] = 0 for None, to S[max(n_max, 2 j)]: the next entry of
    `_prefix_chains`, its array read-only.

    Neumaier's loop (t = s + x; c += the rounding error of s + x; s = t;
    S = s + c) is two sequential sums: s of the terms x, and c of each
    step's exact error.  Each block of _SCAN_BLOCK terms runs both as
    `np.add.accumulate` (sequential, so it rounds as the loop does) from the
    carried (s, c), with the error from Knuth's branch-free TwoSum, which is
    exact and so equals Neumaier's branch on |s| >= |x|.  The output is
    therefore bit-identical to the per-term loop, written block by block
    into the result array.
    """
    prefix, s, c = chain or (np.zeros(1), 0.0, 0.0)
    start = prefix.size
    n_max = max(n_max, 2 * (start - 1))
    out = np.empty(n_max + 1)
    out[:start] = prefix
    size = min(_SCAN_BLOCK, n_max + 1 - start) + 1
    t = np.empty(size)  # [s, running sums...]
    e = np.empty(size)  # [c, running compensations...]
    for lo in range(start, n_max + 1, _SCAN_BLOCK):
        m = min(_SCAN_BLOCK, n_max + 1 - lo)
        x = params._log_failure(np.arange(lo, lo + m, dtype=np.float64))
        t[0], t[1 : m + 1] = s, x
        np.add.accumulate(t[: m + 1], out=t[: m + 1])
        before, after = t[:m], t[1 : m + 1]
        x_part = after - before
        np.subtract(before, after - x_part, out=e[1 : m + 1])
        e[1 : m + 1] += x - x_part
        e[0] = c
        np.add.accumulate(e[: m + 1], out=e[: m + 1])
        np.add(after, e[1 : m + 1], out=out[lo : lo + m])
        s, c = float(t[m]), float(e[m])
    out.flags.writeable = False
    return out, s, c


def _log_survival_prefix(params: _ChainParams, n_max: int) -> np.ndarray:
    """S[j] = ln P{X > j} = sum_{k<=j} ln(fail at k), j = 0..n_max, compensated.

    The failure chance at trial k is 1 - p/k^gamma for `TrialChainParams`
    and q/k^gamma for `GrowingChainParams`.

    Neumaier running compensation keeps each prefix accurate to one ulp of
    its own magnitude independent of length, which is what makes the
    telescoping identities below hold at the 1e-12 level for long tables.
    `_extend_prefix` runs it as one numpy pass per block of 2^14 terms,
    bit-identical to the per-term loop and with no per-term Python object.

    One grow-only scan is kept per chain in `_prefix_chains`, for the 32
    most recently used chains.  A request past its end resumes the scan
    from the stored Neumaier state, so every S[j] is bit-identical to one
    long scan whatever the order of requests.  A first request grows the
    empty chain S[0] = 0 and so computes exactly n_max terms; a longer one
    grows the scan to max(n_max, twice its length), so a loop over n costs
    O(n) in all.  A scalar S[j] is `_prefix_chains.value(key, j)`, a cache
    hit that takes no lock and builds no view.
    Returns a read-only view of length n_max + 1.
    `cache_info()` and `cache_clear()` work as for `functools.lru_cache`.
    """
    return _prefix_chains.array(params._cache_key(), n_max)[: n_max + 1]


_prefix_chains = GrowOnlyCache(_extend_prefix)
_log_survival_prefix.cache_info = _prefix_chains.info
_log_survival_prefix.cache_clear = _prefix_chains.clear


def log_pmf(params: TrialChainParams, n: int) -> float:
    """ln P{X = n} = ln p_n + sum_{k<n} ln(1 - p_k)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    s = _prefix_chains.value(params._cache_key(), n - 1) if n > 1 else 0.0
    return math.log(params.p) - params.gamma * math.log(n) + s


def pmf(params: TrialChainParams, n: int) -> float:
    if params.gamma == 0.0:
        # the chain is exactly geometric; the direct power form keeps the
        # classical identity pmf = p (1-p)^(n-1) bit-exact
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n!r}")
        return params.p * (1.0 - params.p) ** (n - 1)
    return math.exp(log_pmf(params, n))


def log_tail(params: TrialChainParams, m: int) -> float:
    """ln P{X >= m} = sum_{k<m} ln(1 - p_k); includes the never-success mass."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if m == 1:
        return 0.0
    return _prefix_chains.value(params._cache_key(), m - 1)


def _log_tail_gamma_one(p: float, m: int) -> float:
    """`log_tail` of the gamma = 1 chain, m >= 1, keyed on p alone: a cache
    hit builds no `TrialChainParams`."""
    return _prefix_chains.value((TrialChainParams, p, 1.0), m - 1) if m > 1 else 0.0


def tail(params: TrialChainParams, m: int) -> float:
    if params.gamma == 0.0:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m!r}")
        return (1.0 - params.p) ** (m - 1)
    return math.exp(log_tail(params, m))


def tail_table(params: TrialChainParams, m_max: int) -> np.ndarray:
    """ln P{X >= m} for m = 1..m_max: a read-only view of the cached survival
    prefix S[0..m_max-1], so a table costs no memory beyond the scan's."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    return _log_survival_prefix(params, m_max - 1)


def pmf_table(params: _ChainParams, n_max: int) -> PmfTable:
    """Table of ln P{X = n} for n = 1..n_max with log tail P{X > n_max}.

    ln P{X = n} = ln P{X > n - 1} + ln(success at n), for either chain: no
    difference of two tails, so an entry keeps its digits far below the
    float range.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    prefix = _log_survival_prefix(params, n_max)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    log_probs = prefix[:-1] + params._log_success(n)
    return PmfTable(start=1, log_probs=log_probs, log_tail=float(prefix[-1]))


def sibuya_tail_closed(p: float, m: int) -> float:
    """Closed-form tail at gamma = 1: P{X >= m} = Gamma(m-p)/(Gamma(m)Gamma(1-p))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if m == 1:  # P{X >= 1} = 1; the ratio's shifted route need not cancel lgamma(1 - p)
        return 1.0
    return math.exp(specfun.log_gamma_ratio(m, p) - math.lgamma(1.0 - p))


def improper_mass(params: TrialChainParams) -> float:
    """P{X = infinity} = prod_k (1 - p/k^gamma); zero in proper regimes.

    The log comes from the series of `_log_improper_mass` at n = 0.
    """
    return math.exp(_log_improper_mass(params)) if params.gamma > 1.0 else 0.0


@functools.lru_cache(maxsize=32)
def _log_improper_mass(params: TrialChainParams, n: int = 0) -> float:
    """ln P{X = infinity | X > n} = sum_{k>n} ln(1 - p/k^gamma), for gamma > 1.

    The k = n + 1 factor is taken exactly and the rest is the series of
    `_failure_series` from k = n + 2, so the product is never formed by
    cancelling a leading 1; its parts are summed with math.fsum.
    """
    head = math.log1p(-params.p * (n + 1.0) ** -params.gamma)
    return math.fsum(_failure_series(params, n + 2, math.inf, head))


def _failure_series(params: TrialChainParams, start: int, stop, head):
    """The parts of head + sum_{k=start}^{stop} ln(1 - p/k^gamma), gamma > 0.

    ln(1 - x) = -sum_j x^j / j turns the sum into

        head - sum_{j>=1} (p^j / j) zeta(gamma j, start, stop),

    with zeta the power sum `specfun.riemann_zeta`; `stop` is inf, a float
    or an array of them, at least max(24, start).  Each term is at most
    r = p start^-gamma times the one before, so the series converges
    geometrically; terms are added until the remainder bound term r/(1-r)
    is at most 1e-17 of the running total (for every stop).  For the
    improper mass (gamma > 1, start >= 2) r < 1/2, so fewer than 60 terms;
    past the sampler's table r < 0.009, as a draw lies there only if
    ln P{X > 4096} >= ln 2^-53, so about 9.  Returns [head, term 1, ...],
    the terms negative.
    """
    r = params.p * float(start) ** -params.gamma
    parts, total = [head], head
    for j in itertools.count(1):
        term = -(params.p**j / j) * specfun.riemann_zeta(params.gamma * j, start, stop)
        parts.append(term)
        total += term
        small = term * r / (1.0 - r) >= 1e-17 * total  # numpy's bool for an array stop
        if small is not False and (small is True or small.all()):
            return parts


def _log1mexp(x: float) -> float:
    """ln(1 - e^x) for x <= 0, accurate on both sides of x = -ln 2 (Maechler 2012)."""
    if x == 0.0:
        return -math.inf
    return math.log(-math.expm1(x)) if x > -math.log(2.0) else math.log1p(-math.exp(x))


def conditional_pmf(params: TrialChainParams, n: int) -> float:
    """P{X = n | X < infinity} for improper chains (gamma > 1).

    The shift ln P{X < infinity} is ln(1 - P{X = infinity}) from the log of
    the improper mass, so it keeps its digits as that mass nears 0 or 1.
    """
    if params.gamma <= 1.0:
        raise ValueError("conditional_pmf requires gamma > 1")
    return math.exp(log_pmf(params, n) - _log1mexp(_log_improper_mass(params)))


def conditional_pmf_table(params: TrialChainParams, n_max: int) -> PmfTable:
    """`pmf_table` of P{X = n | X < infinity}, n = 1..n_max, for gamma > 1.

    Every entry is shifted by ln P{X < infinity}, as in `conditional_pmf`.
    The tail P{n_max < X < infinity} is the product
    P{X > n_max} (1 - P{X = infinity | X > n_max}), never the difference of
    two numbers near the improper mass, so it keeps its relative digits
    where it is far below that mass.
    """
    if params.gamma <= 1.0:
        raise ValueError("conditional_pmf_table requires gamma > 1")
    table = pmf_table(params, n_max)
    shift = _log1mexp(_log_improper_mass(params))
    log_tail = table.log_tail + _log1mexp(_log_improper_mass(params, n_max))
    return PmfTable(start=1, log_probs=table.log_probs - shift, log_tail=log_tail - shift)


def _fractional_exponent_sum(p: float, gamma: float, n: float, j_max: int) -> float:
    """sum_{j=1}^{j_max} (p^j / j) n^(1 - gamma j) / (1 - gamma j).

    With r = p^j n^(1 - gamma j) / j, x = p n^-gamma and
    d = 1 / (1 - gamma j_max), the largest 1 / (1 - gamma j), every term
    after the j-th is below d x r.  The loop stops once d x r < 2^-54 of
    the total, as each later term is then under half an ulp of it, or where
    p^j underflows, as each later term is then 0.0: either way the sum is
    the full loop's to the bit, and neither p near 1 nor a tiny gamma sets
    the loop's length.
    """
    total = 0.0
    dx = p * n**-gamma / (1.0 - gamma * j_max) * 2.0**54
    for j in range(1, j_max + 1):
        pj = p**j
        if pj == 0.0:
            break
        r = pj / j * n ** (1.0 - gamma * j)
        total += r / (1.0 - gamma * j)
        if r * dx < total:
            break
    return total


def log_asym_pmf_shape(params: TrialChainParams, n: int) -> float:
    """Log of the large-n shape of the pmf (constant left out), by regime.

    Fractional (g<1): (p / n^(gamma + [int] p^J/J))
                        * exp{-sum_{j<=J-[int]} (p^j/j) n^(1-gamma j)/(1-gamma j)}
    Heavy tail (g=1): p / (n^(p+1) Gamma(1-p))
    Improper (g>1):   p / n^gamma                          (conditional shape)

    J = [1/gamma] and [int] = 0, except where 1/gamma lies within 1e-6 of
    an integer: there J = round(1/gamma) and [int] = 1, the J-th term
    moving into the power of n.  Within 1e-9 that is the source paper's
    integer-1/gamma shape; in the rest of that window the non-integer
    expansion would leave out its J-th term or carry it as a constant
    p^J / (J (1 - gamma J)), flat over any finite grid.

    gamma <= 1e-9 is rejected: `classify_regime` takes that chain as
    geometric, which needs no asymptote.  The exponent sign is the
    convergent one.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    p, gamma = params.p, params.gamma
    regime, j, integer = _expansion(gamma)
    nf = float(n)
    if regime is Regime.GEOMETRIC:
        raise ValueError(f"gamma = {gamma!r} is within {_INTEGER_TOL!r} of 0, where the chain "
                         "is taken as geometric; no asymptotic shape")
    if regime is Regime.SIBUYA:
        return math.log(p) - (p + 1.0) * math.log(nf) - math.lgamma(1.0 - p)
    if regime is Regime.IMPROPER:
        return math.log(p) - gamma * math.log(nf)
    ex = _fractional_exponent_sum(p, gamma, nf, j - integer)
    return math.log(p) - (gamma + integer * p**j / j) * math.log(nf) - ex


@dataclass(frozen=True)
class ConstantEstimate:
    """Result of fitting pmf(n) ~ C * shape(n) over a grid."""

    constant: float
    spread: float
    grid: tuple[int, ...]
    log_ratios: tuple[float, ...]
    regime: Regime


def _spread(log_ratios: tuple[float, ...]) -> float:
    top = log_ratios[len(log_ratios) // 2 :]
    return math.expm1(max(top) - min(top))


def estimate_constant(
    params: TrialChainParams, grid: tuple[int, ...] = (1000, 3000, 10000)
) -> ConstantEstimate:
    """Estimate the shape constant C = pmf/shape at the top of the grid.

    Ratios are formed in log space so deep-tail points cannot underflow.
    The spread (max/min - 1 of the ratio over the upper half of the grid)
    certifies stabilization.  For gamma > 1 the ratio uses the conditional
    pmf, which is the quantity with a finite limiting constant.  Where
    1/gamma lies within 1e-6 of an integer J but is not classified as one,
    the shape takes its J-th term as the integer power (see
    `log_asym_pmf_shape`), whose constant stays bounded as the boundary is
    approached; the regime is reported as non-integer, with a warning.
    """
    if len(grid) < 3 or grid[0] < 2 or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be at least three strictly increasing points, each >= 2; "
                         f"got {list(grid)}")
    if grid[-1] < 1000:
        raise ValueError("largest grid point must be >= 1000 to certify a limit")
    regime, _, integer = _expansion(params.gamma)
    if regime is Regime.FRACTIONAL_NON_INTEGER and integer:
        warnings.warn(
            f"1/gamma = {1.0 / params.gamma!r} sits near an integer; reporting the "
            "integer-1/gamma asymptotic branch",
            UserWarning,
            stacklevel=2,
        )
    shift = _log1mexp(_log_improper_mass(params)) if regime is Regime.IMPROPER else 0.0
    log_ratios = tuple(log_pmf(params, n) - shift - log_asym_pmf_shape(params, n) for n in grid)
    return ConstantEstimate(
        constant=math.exp(log_ratios[-1]) if log_ratios[-1] < 709.0 else math.inf,
        spread=_spread(log_ratios),
        grid=tuple(grid),
        log_ratios=log_ratios,
        regime=regime,
    )


# first survival-table length that `sample_many` searches
_SAMPLE_TABLE = 4096


def sample_many(
    params: TrialChainParams,
    rng: np.random.Generator,
    n: int,
    cap: int = DEFAULT_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """n first-success draws by inverse transform, censored past `cap` trials.

    Draw i takes the i-th uniform U_i of `rng.random(n)` and returns the
    first m with ln P{X > m} < log1p(-U_i), so it depends only on the
    generator state and i, not on n.  ln P{X > m} is the survival prefix:
    in closed form at gamma = 0 (geometric), otherwise searched in a table
    of min(cap, 4096) terms, which never grows.  Past the table's end, for
    every gamma > 0, it is the closed survival: the table's last entry plus
    `_failure_series` from k = 4097 to m.  A draw with
    ln P{X > cap} >= log1p(-U_i) is censored, which at gamma > 1 covers the
    draws that never succeed.  Every other draw past the table keeps a
    bracket lo < m <= hi with ln P{X > lo} >= log1p(-U_i) > ln P{X > hi}.
    A step tries the point where log1p(-U_i) falls on the line through the
    bracket's ends in u = m^(1-gamma) / (1-gamma) (ln m at gamma = 1), in
    which ln P{X > m} is nearly linear, together with the m above it, so a
    good guess ends the search in one step (inversion by a search from a
    good start, Devroye 1986, ch. III).  Where a step kept more than half
    its bracket, the next one bisects, so the search ends for every cap.
    Draws far out, around m = 2^42 and beyond, are as exact as float64
    resolves ln P{X > m}: neighbouring m lie closer together there.

    Returns (values, censored): values[i] is the first-success index, valid
    where ~censored[i]; censored draws have no success in the first `cap`
    trials, and their values are 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if not 1 <= cap < 2**63:
        raise ValueError(f"cap must be in 1..2**63 - 1, got {cap!r}")
    p, gamma = params.p, params.gamma
    t = np.log1p(-rng.random(n))
    if gamma == 0.0:
        # m ln(1-p) < t  <=>  m > t / ln(1-p)
        below = np.floor(t / math.log1p(-p))
        censored = below >= cap
        return np.where(censored, 0.0, below + 1.0).astype(np.int64), censored
    size = min(cap, _SAMPLE_TABLE)
    prefix = _log_survival_prefix(params, size)
    values = np.searchsorted(-prefix, -t, side="right")
    censored = values > size
    past = np.flatnonzero(censored)
    if past.size and size < cap:

        def log_survival(m):  # ln P{X > m} past the table, m an array or a float
            return sum(_failure_series(params, size + 1, m, prefix[size])[::-1])

        c = 1.0 - gamma

        def u(m):  # (m^c - 1) / c, ln m at gamma = 1; expm1 keeps it exact near there
            return np.log(m) if c == 0.0 else np.expm1(c * np.log(m)) / c

        s_cap = log_survival(float(cap))
        past = past[t[past] > s_cap]  # the rest stay censored
        censored[past], t, bisect = False, t[past], np.zeros(past.size, dtype=bool)
        lo, hi = np.full(past.size, size), np.full(past.size, cap)
        s_lo, s_hi = np.full(past.size, prefix[size]), np.full(past.size, s_cap)
        while (act := np.flatnonzero(hi - lo > 1)).size:
            a, b, s_a, s_b, t_act = (x[act] for x in (lo, hi, s_lo, s_hi, t))
            v = u(a) + (s_a - t_act) / (s_a - s_b) * (u(b) - u(a))
            # cast below 2^63, then clip in the int domain, where b - 1 is exact
            guess = np.minimum(np.exp(v if c == 0.0 else np.log1p(c * v) / c), 2.0**62)
            mid = np.where(bisect[act], a + (b - a) // 2, guess.astype(np.int64).clip(a + 1, b - 1))
            s_mid = log_survival(mid)
            s_next = s_mid + np.log1p(-p * (mid + 1.0) ** -gamma)
            # below: hi = mid; above: lo = mid + 1; neither: m = mid + 1, found
            below, above = s_mid < t_act, s_next >= t_act
            lo[act], s_lo[act] = np.where(below, a, mid + above), np.where(above, s_next, s_a)
            hi[act], s_hi[act] = np.where(above, b, mid + 1 - below), np.where(below, s_mid, s_b)
            bisect[act] = hi[act] - lo[act] > (b - a) // 2
        values[past] = hi
    values[censored] = 0
    return values, censored


# -- growing chains: success probability 1 - q/k^gamma ----------------------
# Failure at trial k has chance q/k^gamma, so the shared survival prefix holds
# ln P{X > j} = j ln q - gamma ln j!; a scalar query pays one O(n) scan per chain.


def growing_tail(params: GrowingChainParams, m: int) -> float:
    """P{X >= m} = q^(m-1) / ((m-1)!)^gamma; superexponentially small tails."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    # no scan where the closed log lies below -746: exp is 0.0 below -745.13
    if (m - 1) * math.log(params.q) - params.gamma * math.lgamma(m) < -746.0:
        return 0.0
    return math.exp(_prefix_chains.value(params._cache_key(), m - 1))


def growing_pmf(params: GrowingChainParams, n: int) -> float:
    """P{X = n} = P{X >= n} (1 - q n^-gamma)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return growing_tail(params, n) * (1.0 - params.q * n**-params.gamma)
