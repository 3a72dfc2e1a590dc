"""The three workloads, built from the seed.

An operation is a dict with an `id`, either an `argv` (one citechain CLI
invocation) or a `call` (one public-API call), and a `check` spec that
`checks.py` turns into a verdict.  A call is
`[module, function, params_class, params_args, *args]`; the worker builds
the params object, then calls `citechain.<module>.<function>(params, *args)`
(or `function(*params_args, *args)` when `params_class` is None).

Every run attempts whole rounds of the same operations.  The operations that
fail today are fixed, not drawn from the seed, so the failed share of
`attempted` is the same in every run.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("cli-tables", "library-queries", "sampling")

# sizes of the table subcommands (the ROADMAP baseline sizes)
TAIL_M_MAX = 1_000_000
PMF_N_MAX = 100_000
GROWING_N_MAX = 100_000
HIRSCH_H_MAX = 100_000
AUTHOR_SERIES_S_MAX = 20_000
AUTHOR_HYP_S_MAX = 1_000
LISTING_RECORDS = 200
SMALL_TABLES = ("pmf-g0.7", "pmf-g2-conditional", "growing-pmf", "author-pmf-series",
                "author-pmf-hyp", "analyze-input", "improper-mass", "asym")
SMALL_REPEATS = 3

# sampling sizes; p and q stay fixed because the cost of the gamma = 1 chain
# grows like cap^(1-p), so a seeded p would move the cost, not just the draws
SAMPLE_COUNT = 100_000
IMPROPER_COUNT = 20_000
IMPROPER_CAP = 1_000
HIRSCH_COUNT = 20_000
SAMPLE_P = 0.5
SAMPLE_Q = 0.5
SAMPLE_GAMMA2_P = 0.6

# operations that fail every time today; their inputs never depend on the seed
AUTHOR_SAMPLE_ARGV = [
    "sample", "--model", "author", "--p", "0.5", "--q", "0.5",
    "--count", "10000", "--seed", "1",
]
FAILING_CALLS = [
    ("improper_mass", 0.999, 1.5, None),
    ("conditional_pmf", 0.997, 3.0, 5),
]


def _unit(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def write_listing(path: Path, seed: int) -> list[tuple[int, int, int, int]]:
    """A ranked author listing that satisfies the record invariants."""
    rng = random.Random(f"listing-{seed}")
    rows = []
    for _ in range(LISTING_RECORDS):
        h = rng.randint(5, 300)
        total = int(h * h * rng.uniform(2.0, 10.0))
        rows.append((total, h, rng.randint(total // 100 + 1, total // 2)))
    rows.sort(reverse=True)
    records = [(rank, t, h, m) for rank, (t, h, m) in enumerate(rows, start=1)]
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["rank,total_citations,h_index,max_paper_citations"]
    lines += [",".join(str(v) for v in r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records


def cli_tables(seed: int, listing: Path) -> list[dict]:
    rng = random.Random(f"cli-tables-{seed}")
    ops = []

    def add(op_id, argv, check):
        ops.append({"id": op_id, "argv": [str(a) for a in argv], "check": check})

    p = _unit(rng, 0.2, 0.8)
    add("tail-g1-json", ["tail", "--p", p, "--gamma", 1, "--m-max", TAIL_M_MAX],
        {"kind": "tail", "p": p, "gamma": 1.0, "m_max": TAIL_M_MAX, "format": "json"})
    p = _unit(rng, 0.2, 0.8)
    add("tail-g0.7-csv",
        ["tail", "--p", p, "--gamma", 0.7, "--m-max", TAIL_M_MAX, "--format", "csv"],
        {"kind": "tail", "p": p, "gamma": 0.7, "m_max": TAIL_M_MAX, "format": "csv"})
    p = _unit(rng, 0.2, 0.8)
    add("pmf-g0.7", ["pmf", "--p", p, "--gamma", 0.7, "--n-max", PMF_N_MAX],
        {"kind": "pmf", "p": p, "gamma": 0.7, "n_max": PMF_N_MAX, "conditional": False})
    p = _unit(rng, 0.2, 0.8)
    add("pmf-g2-conditional",
        ["pmf", "--p", p, "--gamma", 2, "--n-max", PMF_N_MAX, "--conditional"],
        {"kind": "pmf", "p": p, "gamma": 2.0, "n_max": PMF_N_MAX, "conditional": True})
    # where a table crosses exp(-700) or underflows sets how many cells print
    # as floats, {"log_value": L} objects or zeros, which cost differently to
    # render; narrow parameter ranges keep that share, and the cost, nearly
    # the same for every seed
    q, g = _unit(rng, 0.45, 0.55), _unit(rng, 0.9, 1.1)
    add("growing-pmf", ["growing-pmf", "--q", q, "--gamma", g, "--n-max", GROWING_N_MAX],
        {"kind": "growing", "q": q, "gamma": g, "n_max": GROWING_N_MAX})
    p, q = _unit(rng, 0.45, 0.55), _unit(rng, 0.45, 0.55)
    for fmt in ("json", "csv"):
        add(f"hirsch-pmf-{fmt}",
            ["hirsch-pmf", "--p", p, "--q", q, "--h-max", HIRSCH_H_MAX, "--format", fmt],
            {"kind": "hirsch", "p": p, "q": q, "h_max": HIRSCH_H_MAX, "format": fmt})
    # q just above 0.5, the value of the README's examples: below q = 0.5 the
    # series' convolution runs through subnormal coefficients and takes
    # about 2.5 s instead of 0.5 s, so a range across 0.5 would make the
    # cost bimodal
    p, q = _unit(rng, 0.45, 0.55), _unit(rng, 0.52, 0.60)
    add("author-pmf-series",
        ["author-pmf", "--p", p, "--q", q, "--s-max", AUTHOR_SERIES_S_MAX],
        {"kind": "author", "p": p, "q": q, "s_max": AUTHOR_SERIES_S_MAX})
    p, q = _unit(rng, 0.2, 0.8), _unit(rng, 0.2, 0.8)
    add("author-pmf-hyp",
        ["author-pmf", "--p", p, "--q", q, "--s-max", AUTHOR_HYP_S_MAX, "--method", "hyp"],
        {"kind": "author", "p": p, "q": q, "s_max": AUTHOR_HYP_S_MAX})
    add("analyze-input", ["analyze", "--input", str(listing)], {"kind": "analyze"})
    p, gamma = _unit(rng, 0.2, 0.9), _unit(rng, 1.2, 3.0)
    add("improper-mass", ["improper-mass", "--p", p, "--gamma", gamma],
        {"kind": "cli_improper_mass", "p": p, "gamma": gamma})
    p = _unit(rng, 0.3, 0.7)
    add("asym", ["asym", "--p", p, "--gamma", 0.7, "--grid", "1000,3000,10000"],
        {"kind": "asym", "p": p, "gamma": 0.7, "grid": [1000, 3000, 10000]})
    # The sub-second subcommands run SMALL_REPEATS times per round, so that a
    # round's median latency rests on two dozen of their samples rather than
    # on the two operations either side of the middle of twelve.
    small = [op for op in ops if op["id"] in SMALL_TABLES]
    return ops + small * (SMALL_REPEATS - 1)


def library_queries(seed: int) -> list[dict]:
    rng = random.Random(f"library-queries-{seed}")
    ops = []

    def call(module, func, ctor, pargs, *args, check):
        ops.append({
            "id": f"{module}.{func}",
            "call": [module, func, ctor, list(pargs), *args],
            "check": check,
        })

    def trial(func, p, gamma, n):
        call("trial_chain", func, "TrialChainParams", (p, gamma), n,
             check={"kind": "trial", "func": func, "p": p, "gamma": gamma, "n": n})

    # increasing n: the access pattern a grow-only prefix cache serves
    chains = [("pmf", _unit(rng, 0.3, 0.7), 0.7),
              ("tail", _unit(rng, 0.3, 0.7), 1.0),
              ("log_pmf", _unit(rng, 0.3, 0.7), 1.5)]
    for func, p, gamma in chains:
        for n in range(1, 1001):
            trial(func, p, gamma, n)
    # scattered n over the same chains, interleaved; one n in each stratum
    # of width 100, so the total prefix length, and the cost, is the same
    # for every seed
    scattered = [(func, p, gamma, 100 * i + rng.randint(1, 100))
                 for func, p, gamma in chains for i in range(100)]
    rng.shuffle(scattered)
    for func, p, gamma, n in scattered:
        trial(func, p, gamma, n)
    # the geometric chain takes the closed-form path
    p = _unit(rng, 0.05, 0.5)
    for _ in range(50):
        trial("pmf", p, 0.0, rng.randint(1, 2_000))
        trial("tail", p, 0.0, rng.randint(1, 2_000))
    # improper regime over a fixed (p, gamma > 1) grid: the series length
    # grows steeply with p, so a seeded p would move the cost
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for gamma in (1.2, 1.5, 2.0, 3.0):
            call("trial_chain", "improper_mass", "TrialChainParams", (p, gamma),
                 check={"kind": "improper_mass", "p": p, "gamma": gamma})
            n = rng.randint(1, 50)
            call("trial_chain", "conditional_pmf", "TrialChainParams", (p, gamma), n,
                 check={"kind": "conditional_pmf", "p": p, "gamma": gamma, "n": n})
    for func, p, gamma, n in FAILING_CALLS:
        args = () if n is None else (n,)
        check = {"kind": func, "p": p, "gamma": gamma}
        if n is not None:
            check["n"] = n
        call("trial_chain", func, "TrialChainParams", (p, gamma), *args, check=check)
    p = _unit(rng, 0.3, 0.7)
    for gamma in (0.7, 1.0, 2.0):
        call("trial_chain", "estimate_constant", "TrialChainParams", (p, gamma),
             check={"kind": "estimate_constant", "p": p, "gamma": gamma,
                    "grid": [1000, 3000, 10000]})
    p = _unit(rng, 0.1, 0.9)
    for _ in range(200):
        m = int(math.exp(rng.uniform(0.0, math.log(1e6))))
        call("trial_chain", "sibuya_tail_closed", None, (p,), m,
             check={"kind": "sibuya", "p": p, "m": m})
    p, q = _unit(rng, 0.2, 0.8), _unit(rng, 0.2, 0.8)
    for func in ("hirsch_pmf", "log_hirsch_pmf"):
        for _ in range(150):
            h = int(math.exp(rng.uniform(0.0, math.log(1e4)))) - 1
            call("hirsch", func, "HirschParams", (p, q), h,
                 check={"kind": "hirsch", "func": func, "p": p, "q": q, "h": h})
    # both sides of the s = 150 switch between the 2F1 form and the series
    p, q = _unit(rng, 0.2, 0.8), _unit(rng, 0.2, 0.8)
    # the series route costs O(s^2), so s > 150 is stratified like n above
    for s in [rng.randint(0, 150) for _ in range(60)] + [151 + 12 * i + rng.randint(0, 11) for i in range(20)]:
        call("author_model", "author_pmf", "AuthorParams", (p, q), s,
             check={"kind": "author_pmf", "p": p, "q": q, "s": s})
    q, gamma = _unit(rng, 0.2, 0.8), _unit(rng, 0.5, 1.5)
    for _ in range(100):
        n = rng.randint(1, 300)
        call("trial_chain", "growing_pmf", "GrowingChainParams", (q, gamma), n,
             check={"kind": "growing_pmf", "q": q, "gamma": gamma, "n": n})
    return ops


def sampling(seed: int, round_index: int) -> list[dict]:
    """Each round draws with its own program seed, derived from (seed, round)."""
    rng = random.Random(f"sampling-{seed}-{round_index}")
    ops = []

    def add(op_id, argv, check):
        ops.append({"id": op_id, "argv": [str(a) for a in argv], "check": check})

    for gamma in (0.0, 0.7, 1.0):
        s = rng.randrange(2**31)
        add(f"sample-trial-g{gamma:g}",
            ["sample", "--model", "trial", "--p", SAMPLE_P, "--gamma", gamma,
             "--count", SAMPLE_COUNT, "--seed", s],
            {"kind": "sample_trial", "p": SAMPLE_P, "gamma": gamma,
             "count": SAMPLE_COUNT, "cap": 1_000_000})
    s = rng.randrange(2**31)
    add("sample-trial-g2-capped",
        ["sample", "--model", "trial", "--p", SAMPLE_GAMMA2_P, "--gamma", 2,
         "--count", IMPROPER_COUNT, "--cap", IMPROPER_CAP, "--seed", s],
        {"kind": "sample_trial", "p": SAMPLE_GAMMA2_P, "gamma": 2.0,
         "count": IMPROPER_COUNT, "cap": IMPROPER_CAP})
    for mode in ("paper", "true"):
        s = rng.randrange(2**31)
        add(f"sample-hirsch-{mode}",
            ["sample", "--model", "hirsch", "--p", SAMPLE_P, "--q", SAMPLE_Q,
             "--count", HIRSCH_COUNT, "--seed", s, "--hirsch-mode", mode],
            {"kind": "sample_hirsch", "p": SAMPLE_P, "q": SAMPLE_Q,
             "count": HIRSCH_COUNT, "mode": mode})
    add("sample-author", AUTHOR_SAMPLE_ARGV,
        {"kind": "sample_author", "p": 0.5, "q": 0.5, "count": 10_000, "cap": 1_000_000})
    return ops
