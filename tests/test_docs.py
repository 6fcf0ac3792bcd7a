"""Documentation and demos stay true to the code: the README's inequality
table is the rendering of the inequality rows, the values its Python examples
state in comments are the values they compute, and every demo script runs."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from golden_bounds import certify, specht
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


def test_readme_hypothesis_key_names_each_hypothesis_record_once():
    # The key's italic names are exactly the cells of the hypothesis records
    # that the table's rows take their hypothesis cell from.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    key = text.split("Hypothesis column key:", 1)[1].split("\n\n", 1)[0]
    records = [value for value in vars(certify).values() if isinstance(value, certify._Hypothesis)]
    assert len(records) == 10
    assert sorted(re.findall(r"\*([^*]+)\*", key)) == sorted(record.cell for record in records)


def _is_expression(text: str) -> bool:
    try:
        ast.parse(text, mode="eval")
    except SyntaxError:
        return False
    return True


def test_readme_python_comments_state_values():
    # In each README python block, an expression statement whose trailing
    # comment is itself an expression must evaluate to the comment's value
    # (with S = specht); any other comment is prose and only its line runs.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    checked = []
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
        tokens = tokenize.generate_tokens(io.StringIO(block).readline)
        comments = {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}
        namespace = {"S": specht}
        for stmt in ast.parse(block).body:
            claim = comments.get(stmt.end_lineno, "")
            if isinstance(stmt, ast.Expr) and _is_expression(claim):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert value == eval(claim, namespace), f"{ast.unparse(stmt)} is {value!r}"
                checked.append(claim)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert len(checked) >= 5, checked


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONWARNINGS"] = "error"  # as the in-process tests run
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
