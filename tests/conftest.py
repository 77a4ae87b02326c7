import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_criterion_results = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num): numbered end-to-end guarantee")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark and report.when == "call":
        _criterion_results.append((mark.args[0], report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for num, ok in sorted(_criterion_results):
        terminalreporter.write_line(
            f"[criterion {num}] {'PASS' if ok else 'FAIL'}")


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Fixed example sequence, so the property tests are as repeatable as
    # the rest of the suite; no deadline, since a solve's time varies.
    settings.register_profile("stratdiff", derandomize=True, deadline=None)
    settings.load_profile("stratdiff")
