"""The benchmark's own tests: run with `python3 -m pytest perfbench/tests -q`.

They import the benchmark modules from perfbench/ and citechain from src/,
which produces the outputs that the checks must accept.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]


@pytest.fixture(scope="session")
def run_cli():
    """Output of one in-process `citechain` invocation, cached by argv."""
    from citechain import cli

    seen: dict[tuple, str] = {}

    def run(*argv) -> str:
        key = tuple(str(a) for a in argv)
        if key not in seen:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert cli.run(list(key)) == 0
            seen[key] = out.getvalue()
        return seen[key]

    return run
