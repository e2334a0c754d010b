import sys

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
