"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case in `CASES` is one argv; `golden/cli.json` holds what the CLI printed
for it.  The cases run in-process with the working directory set to
`golden/`, so `analyze --input` reads the small listing kept there.

When an output is meant to change, regenerate the file and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py

It prints the argv of every case whose stdout, stderr or exit code changed
(or that is new) with the count of its stdout lines that differ, then the
number of unchanged cases.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from pathlib import Path

import pytest

from citechain import cli
from texts import assert_same_text

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

_TABLES = [
    ["pmf", "--p", "0.5", "--gamma", "1", "--n-max", "10"],
    ["pmf", "--p", "0.999", "--gamma", "0", "--n-max", "200"],
    ["pmf", "--p", "0.5", "--gamma", "2", "--n-max", "20", "--conditional"],
    ["tail", "--p", "0.5", "--gamma", "1", "--m-max", "10"],
    ["tail", "--p", "0.7", "--gamma", "0.5", "--m-max", "30"],
    ["improper-mass", "--p", "0.5", "--gamma", "2"],
    ["improper-mass", "--p", "0.5", "--gamma", "1"],
    ["asym", "--p", "0.5", "--gamma", "0.7", "--grid", "1000,3000,10000"],
    ["asym", "--p", "0.5", "--gamma", "0.5", "--grid", "1000,3000,10000"],
    ["asym", "--p", "0.5", "--gamma", "0.5000001", "--grid", "1000,3000,10000"],
    ["asym", "--p", "0.5", "--gamma", "1", "--grid", "1000,3000,10000"],
    ["asym", "--p", "0.5", "--gamma", "2", "--grid", "1000,3000,10000"],
    ["growing-pmf", "--q", "0.5", "--gamma", "1", "--n-max", "200"],
    ["author-pmf", "--p", "0.5", "--q", "0.5", "--s-max", "20"],
    ["author-pmf", "--p", "0.5", "--q", "0.5", "--s-max", "10", "--method", "hyp"],
    ["hirsch-pmf", "--p", "0.5", "--q", "0.5", "--h-max", "10"],
    ["sample", "--model", "trial", "--p", "0.5", "--gamma", "1", "--count", "10",
     "--seed", "42"],
    ["sample", "--model", "trial", "--p", "0.6", "--gamma", "2", "--count", "20",
     "--seed", "5", "--cap", "50"],
    # most of these draws lie past the sampler's 4,096-term table
    ["sample", "--model", "trial", "--p", "0.001", "--gamma", "0.5", "--count", "20",
     "--seed", "7", "--cap", "10000000"],
    ["sample", "--model", "trial", "--p", "0.1", "--gamma", "1", "--count", "20",
     "--seed", "25", "--cap", "1000000"],
    ["sample", "--model", "trial", "--p", "0.01", "--gamma", "0.9", "--count", "20",
     "--seed", "7", "--cap", "10000000"],
    ["sample", "--model", "hirsch", "--p", "0.5", "--q", "0.5", "--count", "60",
     "--seed", "11", "--cap", "100000"],
    ["sample", "--model", "hirsch", "--p", "0.5", "--q", "0.5", "--count", "20",
     "--seed", "11", "--cap", "100000", "--hirsch-mode", "true"],
    ["sample", "--model", "author", "--p", "0.5", "--q", "0.5", "--count", "20",
     "--seed", "3"],
    ["analyze", "--fixture", "physics"],
    ["analyze", "--fixture", "mathematics"],
    ["analyze", "--input", "listing.csv"],
]

CASES = [argv + fmt for argv in _TABLES for fmt in ([], ["--format", "csv"])] + [
    # exit 1: domain and input errors
    ["pmf", "--p", "1.5", "--gamma", "1", "--n-max", "3"],
    ["pmf", "--p", "0.5", "--gamma", "1", "--n-max", "3", "--conditional"],
    ["sample", "--model", "author", "--p", "0.5", "--count", "5", "--seed", "1"],
    ["analyze", "--input", "missing.csv", "--format", "csv"],
    # exit 2: usage errors
    ["pmf", "--p", "0.5"],
    ["tail", "--p", "0.5", "--gamma", "1", "--m-max", "3", "--format", "xml"],
]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    cases = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    return {" ".join(case["argv"]): case for case in cases}


@pytest.fixture
def in_golden_dir(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_file_lists_every_case(golden):
    assert list(golden) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, golden, in_golden_dir):
    expected = golden[" ".join(argv)]
    got = _run(argv)
    assert got["exit_code"] == expected["exit_code"]
    assert_same_text(got["stderr"], expected["stderr"])
    assert_same_text(got["stdout"], expected["stdout"])


def _changed(old: dict | None, new: dict) -> bool:
    return old is None or any(old[k] != new[k] for k in ("exit_code", "stdout", "stderr"))


def _changed_lines(old: dict | None, new: dict) -> str:
    before = old["stdout"].splitlines() if old else []
    after = new["stdout"].splitlines()
    differ = sum(a != b for a, b in itertools.zip_longest(before, after))
    return f"{differ} of {len(after)} lines"


if __name__ == "__main__":
    os.chdir(GOLDEN_DIR)
    os.environ["COLUMNS"] = "80"
    previous = {}
    if GOLDEN_FILE.exists():
        previous = {" ".join(c["argv"]): c for c in json.loads(GOLDEN_FILE.read_text("utf-8"))}
    golden = [_run(argv) for argv in CASES]
    changed = [case for case in golden if _changed(previous.get(" ".join(case["argv"])), case)]
    for case in changed:
        key = " ".join(case["argv"])
        print(f"changed: {key} ({_changed_lines(previous.get(key), case)})")
    print(f"unchanged: {len(golden) - len(changed)} of {len(golden)} cases")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN_FILE}")
