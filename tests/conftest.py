"""Collects acceptance-criterion verdict lines and prints them in the
terminal summary, where per-test output capture cannot swallow them."""

from __future__ import annotations

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
