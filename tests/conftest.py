"""Collects acceptance-criterion verdict lines and prints them in the
terminal summary, where per-test output capture cannot swallow them."""

from __future__ import annotations

import os
import warnings
from contextlib import suppress
from pathlib import Path

# When a hypothesis property fails, the plugin's report imports
# hypothesis.extra._patching, which reaches the deprecated
# mypy_extensions.TypedDict. Under -W error that warning would end the run
# in INTERNALERROR before the falsifying example is printed, and an ini
# filterwarnings entry cannot help, since the command line's -W error is
# applied after it. Importing the module once here, with that one warning
# ignored, leaves the plugin's later import a cache hit. Without libcst the
# import fails, and the plugin then skips its report the same way.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
