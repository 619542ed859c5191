"""The repository's pytest configuration, run on a small test file in a subprocess."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THREE_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_under_hypothesis(n):
    assert n < 5


def test_passes():
    pass


def test_warns():
    warnings.warn("any other deprecation", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, whose DeprecationWarning the
    # config ignores by message; under "error" it ended the session with an
    # INTERNALERROR. Every other warning still fails its test.
    (tmp_path / "test_three.py").write_text(THREE_TESTS, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
               "-q", "test_three.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "2 failed, 1 passed" in output, output
    assert "::test_warns - DeprecationWarning" in output, output
