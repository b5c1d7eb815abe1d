"""README's CLI examples and Python blocks run as written, and its solver
table and family list name exactly the solvers and families the package has,
so the documentation cannot drift from the API, the options or the
registries."""

from __future__ import annotations

import io
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from xosmax.hardness import FAMILIES

from helpers import SOLVER_NAMES

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_section() -> str:
    text = README.read_text()
    return text[text.index("\n## CLI\n"):text.index("\n## Determinism\n")]


def _run_cli_examples(directory: Path) -> None:
    """Run every ``xosmax`` line of the CLI section in ``directory``, in
    order, with the section's JSON config as ``experiment.json``; each must
    exit 0."""
    section = _cli_section()
    commands = re.search(r"\n```\n(.*?)\n```\n", section, re.S).group(1)
    (directory / "experiment.json").write_text(
        re.search(r"\n```json\n(.*?)\n```\n", section, re.S).group(1)
    )
    lines = [line for line in commands.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines and all(line.startswith("xosmax ") for line in lines)
    for line in lines:
        r = subprocess.run(
            [sys.executable, "-m", "xosmax.cli", *shlex.split(line)[1:]],
            cwd=directory, capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0, f"{line}\n{r.stderr}"


def test_readme_cli_examples_exit_0(tmp_path):
    _run_cli_examples(tmp_path)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # The blocks share one namespace in README order (the classifier block
    # reads the quick start's rep), in a directory where the CLI lines have
    # run, so the ExperimentConfig block finds floor.json.
    blocks = re.findall(r"\n```python\n(.*?)\n```\n", README.read_text(), re.S)
    assert len(blocks) == 3
    _run_cli_examples(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    outputs = []
    for block in blocks:
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        outputs.append(out.getvalue())
    suite = next(out for block, out in zip(blocks, outputs) if "ExperimentConfig(" in block)
    assert suite.startswith("trial,seed,algo,") and suite.count("\n") > 1
    # README says this config is the suite the `solve ... --out results.csv` line runs
    assert suite.encode() == (tmp_path / "results.csv").read_bytes()


def test_readme_lists_each_solver_and_family_once():
    text = README.read_text()
    rows = re.findall(r"^\| `(\w+)` \|", text, re.M)
    assert sorted(rows) == sorted(SOLVER_NAMES.values())
    bullets = [
        (kind, tuple(re.findall(r"`(\w+)`", params)))
        for kind, params in re.findall(r"^\* `(\w+)` \(params ([^)]*)\):", text, re.M)
    ]
    assert bullets == [(kind, cls.params) for kind, (cls, fixed) in FAMILIES.items() if not fixed]
