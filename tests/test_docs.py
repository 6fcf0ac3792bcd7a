"""Documentation and demos stay true to the code: the README's inequality
table lists every registered id once, and every demo script runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden_bounds.certify import INEQUALITY_IDS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_table_ids() -> list[str]:
    """The id cell of every row of the README's "Registered inequalities" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Registered inequalities", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_readme_table_has_one_row_per_inequality_id():
    ids = _readme_table_ids()
    assert len(ids) == len(set(ids)), "an id appears in two rows"
    assert sorted(ids) == sorted(INEQUALITY_IDS)


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
