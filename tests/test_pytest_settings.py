"""The pytest settings of ``pyproject.toml``: warnings are errors, yet a
failing Hypothesis test is reported as a failure and the run goes on.  And
the fixture of ``tests/conftest.py``: every test starts with exqip's caches
empty.  And the layout of the test modules: what several share lives in
``populations.py`` or ``oracles.py``, never in another test module."""

import ast
import os
import subprocess
import sys

import numpy as np

from exqip import cli, combs, gqi, linalg

# Collecting this module fills exqip's caches, so that a test of it finds
# them empty only because the fixture emptied them.
WARM = gqi.is_extremal(gqi.Povm(2, (np.eye(2) / 2,) * 2))

TESTS = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(TESTS, os.pardir, "pyproject.toml")

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
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_each_test_starts_with_the_caches_empty():
    caches = [v for m in (cli, combs, gqi, linalg) for v in vars(m).values() if hasattr(v, "cache_info")]
    assert gqi._plan in caches and len(caches) >= 6
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)


def test_testpaths_hold_the_tests_and_the_benchmark_checker(pytestconfig):
    """A bare ``pytest`` from the checkout, the tier-1 command, collects the
    benchmark checker's tests too: no other step runs them."""
    assert os.path.samefile(pytestconfig.inipath, PYPROJECT)
    assert {"tests", "perfbench"} <= set(pytestconfig.getini("testpaths"))


def test_no_test_module_imports_another():
    """A test module that imports another runs that module's top level a
    second time and ties its tests to the other's helpers."""
    found = []
    for name in sorted(os.listdir(TESTS)):
        if name.startswith("test_") and name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [alias.name for alias in node.names]
                else:
                    continue
                found += [(name, m) for m in modules if any(p.startswith("test_") for p in m.split("."))]
    assert found == []


def test_no_test_module_shadows_a_benchmark_module():
    """Tier-1 puts ``tests`` and ``perfbench`` on ``sys.path`` in one run, so
    a module of one named as a module of the other would shadow it, as a
    ``tests/inputs.py`` would the benchmark's own ``import inputs``."""

    def stems(directory):
        return {name[: -len(".py")] for name in os.listdir(directory) if name.endswith(".py")}

    benchmark = stems(os.path.join(TESTS, os.pardir, "perfbench"))
    assert "inputs" in benchmark and "populations" in stems(TESTS)
    assert stems(TESTS) & benchmark == set()
