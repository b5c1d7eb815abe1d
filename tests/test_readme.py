"""README's CLI examples run as written, and its solver table and family list
name exactly the solvers and families the package has, so the documentation
cannot drift from the options or the registries."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

from xosmax.hardness import FAMILIES

from helpers import SOLVER_NAMES

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


def test_readme_lists_each_solver_and_family_once():
    text = README.read_text()
    rows = re.findall(r"^\| `(\w+)` \|", text, re.M)
    assert sorted(rows) == sorted(SOLVER_NAMES.values())
    bullets = [
        (kind, tuple(re.findall(r"`(\w+)`", params)))
        for kind, params in re.findall(r"^\* `(\w+)` \(params ([^)]*)\):", text, re.M)
    ]
    assert bullets == [(kind, cls.params) for kind, (cls, fixed) in FAMILIES.items() if not fixed]
