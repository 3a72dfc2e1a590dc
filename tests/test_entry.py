"""The process entry and the lazy package.

`citechain.__main__` pins OpenBLAS to one thread before numpy loads, which
it can only do because `import citechain` loads no submodule until a public
name is first used.  Library imports leave the environment alone.  A whole
CLI process is also held to its memory: a printed table costs its scan and
a block, whatever the numpy build costs at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citechain
from citechain import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def python(code: str, **env: str | None) -> str:
    """stdout of a fresh interpreter running `code` under os.environ updated
    by env, where None removes a variable."""
    env = {k: v for k, v in {**os.environ, **env}.items() if v is not None}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return proc.stdout.strip()


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_entry_starts_one_thread():
    code = (
        "import re, citechain.__main__, numpy\n"
        "print(re.search(r'Threads:\\s*(\\d+)', open('/proc/self/status').read())[1])"
    )
    assert python(code, OPENBLAS_NUM_THREADS="4") == "1"


def test_import_loads_no_numpy():
    assert python("import sys, citechain; print('numpy' in sys.modules)") == "False"


def test_library_import_sets_no_blas_threads():
    code = "import os, citechain.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert python(code, OPENBLAS_NUM_THREADS=None) == "None"


def peak_rss_kib(*argv: str) -> int:
    """The peak resident memory of `python -m citechain argv`, stdout
    discarded, in KiB on Linux.  A small interpreter starts it and reads
    the figure from wait4: Linux credits a child with the peak of the
    address space it was started from, which here would be pytest's."""
    code = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, sys.executable, "-m", "citechain", *argv],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "0"
    return int(out[1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_million_cell_tail_costs_its_scan_plus_a_block():
    # against a run that prints one number, a 1e6-cell table adds its 8 MB
    # scan and block-sized working memory; a copy of the column, a
    # column-length mask or a 2^16-term scan block would push it past 10 MiB
    base = peak_rss_kib("improper-mass", "--p", "0.5", "--gamma", "2")
    table = peak_rss_kib("tail", "--p", "0.8", "--gamma", "1", "--m-max", "1000000")
    assert table - base <= 10 * 1024


def test_names_resolve_on_use():
    from citechain import HirschParams, pmf
    from citechain.hirsch import HirschParams as defined_params
    from citechain.trial_chain import pmf as defined_pmf

    assert (pmf, HirschParams) == (defined_pmf, defined_params)
    assert set(citechain.__all__) <= set(dir(citechain))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        citechain.nope  # noqa: B018


def test_installed_script_takes_the_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["citechain"]
    assert target == "citechain.__main__:main"
    module, _, name = target.partition(":")
    # importing the entry pins the variable; monkeypatch restores it after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    entry = getattr(__import__(module, fromlist=[name]), name)
    assert entry is cli.main
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
