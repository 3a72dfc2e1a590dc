"""Per-layer timing of citechain, installed from outside the program.

`Tracer.install` replaces the public functions of each module with timing
wrappers.  The wrappers are set as module attributes, so calls between
functions that go through the module globals are traced as well.  Each
wrapper keeps a call count, a total and a self time (its duration minus the
time of the traced calls made inside it).  It records a span (name, parent
span, start, end) only for the first SPAN_LIMIT calls of each function, so
that hot scalar functions cost an aggregate, not a list.

The worker wraps each operation in a root span named `op:<id>`.
`cli.json.dumps` and the `csv` writer that `cli` uses are wrapped as
`cli.render_json` and `cli.render_csv`.  A function that a later version of
the program renames or removes is listed in `absent`, not raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

MODULES = ("cli", "trial_chain", "author_model", "hirsch", "specfun", "scientometrics")
# private functions worth a layer of their own
EXTRA = {"trial_chain": ("_log_survival_prefix",)}
SPAN_LIMIT = 100


def _count_samples(counters, args, kwargs, result):
    values, censored = result
    counters["trial_chain.sample_many.draws"] += len(values)
    counters["trial_chain.sample_many.censored"] += int(censored.sum())


def _count_no_match(counters, args, kwargs, result):
    _, valid = result
    counters["hirsch.simulate_hirsch_many.no_match"] += int((~valid).sum())


COUNTER_HOOKS = {
    "trial_chain.sample_many": _count_samples,
    "hirsch.simulate_hirsch_many": _count_no_match,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, name, start_s, end_s)
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, time spent in traced children]
        self._next_id = 0
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = COUNTER_HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if stats[0] <= SPAN_LIMIT:
                    self.spans.append((frame[0], parent, name, start - self._t0, end - self._t0))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for modname in MODULES:
            try:
                mod = importlib.import_module(f"citechain.{modname}")
            except ImportError:
                self.absent.append(modname)
                continue
            for fname in (*getattr(mod, "__all__", ()), *EXTRA.get(modname, ())):
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.absent.append(f"{modname}.{fname}")
                elif inspect.isfunction(fn) or hasattr(fn, "cache_info"):
                    name = f"{modname}.{fname}"
                    setattr(mod, fname, self.wrap(name, fn))
                    self.wrapped.add(name)
            if modname == "cli":
                self._wrap_rendering(mod)

    def _wrap_rendering(self, cli) -> None:
        real_json = getattr(cli, "json", None)
        if real_json is not None:
            proxy = types.SimpleNamespace(**{k: getattr(real_json, k) for k in real_json.__all__})
            proxy.dumps = self.wrap("cli.render_json", real_json.dumps)
            cli.json = proxy
            self.wrapped.add("cli.render_json")
        real_csv = getattr(cli, "csv", None)
        if real_csv is not None:
            tracer = self

            def writer(*args, **kwargs):
                w = real_csv.writer(*args, **kwargs)
                return types.SimpleNamespace(
                    writerow=tracer.wrap("cli.render_csv", w.writerow),
                    writerows=tracer.wrap("cli.render_csv", w.writerows),
                    dialect=w.dialect,
                )

            proxy = types.SimpleNamespace(**{k: getattr(real_csv, k) for k in real_csv.__all__})
            proxy.writer = writer
            cli.csv = proxy
            self.wrapped.add("cli.render_csv")

    def report(self) -> dict:
        return {
            "functions": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "wrapped": sorted(self.wrapped),
            "absent": self.absent,
            "spans": self.spans,
        }
