"""Collects acceptance-criterion verdict lines and prints them in the
terminal summary, where per-test output capture cannot swallow them."""

from __future__ import annotations

import os
from pathlib import Path

# pytest puts src/ on sys.path (pyproject's pythonpath); the CLI tests' child
# processes (python -m xosmax.cli) get it through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

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
