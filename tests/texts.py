"""`assert_same_text`: equality of two long texts that fails in seconds.

pytest explains a failed `==` between two strings with a difflib diff, which
runs for minutes on the multi-megabyte CLI outputs that the writer tests
compare; this helper reports where the texts part instead.
"""

from __future__ import annotations


def assert_same_text(got: str, expected: str) -> None:
    """got == expected; on a mismatch, fail with both lengths and the first
    differing line and its number."""
    if got == expected:
        return
    got_lines = got.splitlines(keepends=True)
    expected_lines = expected.splitlines(keepends=True)
    line = next((i for i, (g, e) in enumerate(zip(got_lines, expected_lines)) if g != e),
                min(len(got_lines), len(expected_lines)))
    first_got = got_lines[line] if line < len(got_lines) else "<end of text>"
    first_expected = expected_lines[line] if line < len(expected_lines) else "<end of text>"
    raise AssertionError(
        f"texts differ: {len(got)} against {len(expected)} characters; first at line "
        f"{line + 1}: {first_got[:200]!r} against {first_expected[:200]!r}")
