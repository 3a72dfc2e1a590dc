"""Run one round of operations inside one interpreter.

    python perfbench/worker.py SPEC.json RESULT.json

SPEC holds `ops` (see workloads.py), `trace` (install the tracer first) and
`out_dir`.  A CLI operation goes through `citechain.cli.run(argv)` with its
output captured; the captured text is written to `<out_dir>/op-<i>.out`
after the operation's timer stops.  citechain's functools caches are emptied
before each CLI operation, because every real CLI process starts without
them; their hits and misses are summed across the clears.  An API call keeps its value, or the
exception it raised, in RESULT.  citechain must be importable (run.py puts
`src/` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path


def _encode(value):
    """A JSON-able form of an API result: floats stay floats; an estimate
    becomes [constant, spread, *log_ratios]."""
    if isinstance(value, float):
        return value
    if hasattr(value, "log_ratios"):
        return [value.constant, value.spread, *value.log_ratios]
    return repr(value)


def _cli_op(cli, argv, out_path: Path | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
    return {"seconds": seconds, "rc": rc, "stderr": err.getvalue()[-2000:], "bytes": len(text)}


def _api_op(call) -> dict:
    module, func, ctor, pargs, *args = call
    mod = importlib.import_module(f"citechain.{module}")
    call_args = (getattr(mod, ctor)(*pargs), *args) if ctor else (*pargs, *args)
    fn = getattr(mod, func)  # looked up now, so a tracer's wrapper is used
    start = time.perf_counter()
    try:
        value = fn(*call_args)
    except Exception as exc:  # the failure is the operation's result
        return {"seconds": time.perf_counter() - start,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"seconds": time.perf_counter() - start, "value": _encode(value)}


def _caches() -> dict:
    """citechain's functools caches by `<module>.<function>`, looked up
    before a tracer replaces the module attributes."""
    return {
        f"{modname.removeprefix('citechain.')}.{name}": fn
        for modname, mod in list(sys.modules.items()) if modname.startswith("citechain.")
        for name, fn in vars(mod).items() if hasattr(fn, "cache_clear")
    }


def _clear_caches(caches: dict, counts: Counter) -> None:
    for name, fn in caches.items():
        info = fn.cache_info()
        counts[f"{name}.cache_hits"] += info.hits
        counts[f"{name}.cache_misses"] += info.misses
        fn.cache_clear()


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_dir = Path(spec["out_dir"]) if spec.get("out_dir") else None
    cli = importlib.import_module("citechain.cli")
    caches, cache_counts = _caches(), Counter()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    output_bytes = 0
    by_op: dict[str, dict[str, float]] = {}  # traced self time per op id and function
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    for i, op in enumerate(spec["ops"]):
        if "argv" in op:
            _clear_caches(caches, cache_counts)
            out_path = out_dir / f"op-{i}.out" if out_dir else None

            def body(op=op, out_path=out_path):
                return _cli_op(cli, op["argv"], out_path)
        else:
            def body(op=op):
                return _api_op(op["call"])
        if tracer is not None:
            before = {name: s[2] for name, s in tracer.stats.items()}
            record = tracer.wrap(f"op:{op['id']}", body)()
            layers = by_op.setdefault(op["id"], {})
            for name, s in tracer.stats.items():
                spent = s[2] - before.get(name, 0.0)
                if spent and not name.startswith("op:"):
                    layers[name] = layers.get(name, 0.0) + spent
        else:
            record = body()
        output_bytes += record.get("bytes", 0)
        records.append(record)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    _clear_caches(caches, cache_counts)
    result = {
        "records": records,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "output_bytes": output_bytes,
    }
    if tracer is not None:
        result["trace"] = dict(tracer.report(), by_op=by_op)
        result["trace"]["counters"].update(cache_counts)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
