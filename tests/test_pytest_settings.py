"""The pytest settings of ``pyproject.toml``: warnings are errors, yet a
failing Hypothesis test is reported as a failure and the run goes on."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Hypothesis's failure report imports modules that raise a
    DeprecationWarning; with every warning an error, that used to end the
    run with INTERNALERROR and exit 3 before the later tests ran."""
    path = tmp_path / "test_throwaway.py"
    path.write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
