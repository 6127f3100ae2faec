from __future__ import annotations

from hypothesis import settings

# Property tests replay the same examples on every run and stay within a fixed
# budget, so tier-1 results are reproducible and its runtime flat.
settings.register_profile(
    "tradesim", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("tradesim")

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")
