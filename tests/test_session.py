"""The test session's own settings: a failing test must not end the session."""

import pathlib
import subprocess
import sys

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_hypothesis_test_leaves_later_tests_reported(tmp_path):
    # pyproject.toml makes every warning an error; the one hypothesis raises
    # while it reports a falsifying example once ended the session there
    root = pathlib.Path(__file__).resolve().parents[1]
    (tmp_path / "pyproject.toml").write_bytes((root / "pyproject.toml").read_bytes())
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "PASSED test_planted.py::test_after_it" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
