"""README's CLI examples run as written, so the documentation cannot drift
from the options."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_section() -> str:
    text = README.read_text()
    return text[text.index("\n## CLI\n"):text.index("\n## Determinism\n")]


def test_readme_cli_examples_exit_0(tmp_path):
    section = _cli_section()
    commands = re.search(r"\n```\n(.*?)\n```\n", section, re.S).group(1)
    (tmp_path / "experiment.json").write_text(
        re.search(r"\n```json\n(.*?)\n```\n", section, re.S).group(1)
    )
    lines = [line for line in commands.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines and all(line.startswith("xosmax ") for line in lines)
    for line in lines:
        r = subprocess.run(
            [sys.executable, "-m", "xosmax.cli", *shlex.split(line)[1:]],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0, f"{line}\n{r.stderr}"
