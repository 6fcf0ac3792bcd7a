"""Documentation and demos stay true to the code: the README's inequality
table is the rendering of the inequality rows, and every demo script runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_bounds.certify import _INEQUALITIES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_table_body() -> list[list[str]]:
    """The cells of each body row of the README's "Registered inequalities"
    table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Registered inequalities", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    return [line.strip("| ").split(" | ") for line in lines]


def _rendered_table_body() -> list[list[str]]:
    """One row per inequality id, in table order: the id, the row's
    hypothesis, comparison and factor cells, and the names it takes."""
    return [
        [f"`{ident}`", *spec.cells, ", ".join(f"`{name}`" for name in spec.taken) or "none"]
        for ident, spec in _INEQUALITIES.items()
    ]


def test_readme_table_has_one_row_per_inequality_id():
    rendered = _rendered_table_body()
    lines = "\n".join(f"| {' | '.join(row)} |" for row in rendered)
    assert _readme_table_body() == rendered, f"the README table should read:\n{lines}"


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
