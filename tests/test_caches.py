"""The grow-only caches behind the scalar queries.

Two contracts: concurrent readers see the values a single thread sees
while chains are grown and evicted under them, and every cache keeps the
`functools.lru_cache` interface that the benchmark's worker
(`perfbench/worker.py::_caches`) relies on: `cache_info()` with no
arguments, giving `.hits` and `.misses`, and `cache_clear()`.
"""

import importlib
import pkgutil
import random
import sys
import threading

import citechain
from citechain import author_model, hirsch
from citechain import trial_chain as tc

THREADS = 4


def _queries() -> list[tuple]:
    """(function, params, n) over 68 chains and 40 authors, more than the
    32 entries each cache keeps, with n spread so chains grow while read."""
    rng = random.Random(24)
    queries = []
    for i in range(48):
        params = tc.TrialChainParams(0.05 + 0.0185 * i, (0.7, 1.0, 1.5)[i % 3])
        for fn in (tc.pmf, tc.tail, tc.log_pmf):
            queries += [(fn, params, rng.randint(1, 1000)) for _ in range(8)]
    for i in range(10):
        params = tc.GrowingChainParams(0.3 + 0.05 * i, 0.5)
        queries += [(tc.growing_tail, params, rng.randint(1, 400)) for _ in range(8)]
    for i in range(10):
        params = hirsch.HirschParams(0.1 + 0.08 * i, 0.4)
        queries += [(hirsch.log_hirsch_pmf, params, rng.randint(0, 2000)) for _ in range(8)]
    for i in range(40):
        params = author_model.AuthorParams(0.1 + 0.02 * i, 0.5)
        queries += [(author_model.author_pmf, params, rng.randint(0, 100)) for _ in range(8)]
    return queries


def _clear_all() -> None:
    tc._log_survival_prefix.cache_clear()
    author_model.author_pmf.cache_clear()


def test_threads_read_what_one_thread_reads():
    queries = _queries()
    _clear_all()
    want = [fn(params, n).hex() for fn, params, n in queries]
    _clear_all()
    results, errors = [None] * THREADS, []

    def reader(index):
        order = list(range(len(queries)))
        random.Random(index).shuffle(order)
        got = [None] * len(queries)
        try:
            for i in order:
                fn, params, n = queries[i]
                got[i] = fn(params, n).hex()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        results[index] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        _clear_all()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [want] * THREADS


def _cached_functions() -> dict:
    for info in pkgutil.iter_modules(citechain.__path__):
        if not info.name.startswith("_"):  # `__main__` sets the process's BLAS threads
            importlib.import_module(f"citechain.{info.name}")
    return {
        f"{modname}.{name}": fn
        for modname, mod in list(sys.modules.items()) if modname.startswith("citechain.")
        for name, fn in vars(mod).items() if hasattr(fn, "cache_clear")
    }


def test_every_cache_keeps_the_lru_cache_interface():
    caches = _cached_functions()
    assert {
        "citechain.trial_chain._log_survival_prefix",
        "citechain.trial_chain._log_improper_mass",
        "citechain.author_model.author_pmf",
    } <= set(caches)
    for name, fn in caches.items():
        info = fn.cache_info()
        assert isinstance(info.hits, int) and isinstance(info.misses, int), name
        fn.cache_clear()
        info = fn.cache_info()
        assert (info.hits, info.misses) == (0, 0), name
