import sys
from typing import NamedTuple

import pytest


def clear_exqip_caches():
    """Empty each ``functools`` cache of exqip's modules, found by its
    ``cache_clear``."""
    for name, module in list(sys.modules.items()):
        if name == "exqip" or name.startswith("exqip."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with exqip's per-shape caches empty and leaves them
    empty, so that no test passes only because another filled them, and no
    value a test's replacement computed outlives the test."""
    clear_exqip_caches()
    yield
    clear_exqip_caches()


class Call(NamedTuple):
    """One call that a :func:`record` wrapper saw return."""

    name: str
    args: tuple
    kwargs: dict
    result: object


@pytest.fixture
def record(monkeypatch):
    """``record(owner, *names, log=None)`` replaces each ``owner.<name>``,
    for this test only, by a wrapper that calls it and appends a
    :class:`Call` to ``log`` as the call returns, and returns ``log``: a new
    list, or the one given, so that several owners share one call order.
    A call that raises is not logged, and a nested call is logged before
    the call that made it."""

    def wrap(owner, *names, log=None):
        log = [] if log is None else log
        for name in names:

            def recorded(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                result = _fn(*args, **kwargs)
                log.append(Call(_name, args, kwargs, result))
                return result

            monkeypatch.setattr(owner, name, recorded)
        return log

    return wrap


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion."""
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "RESULT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
