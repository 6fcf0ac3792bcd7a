"""Rules of the package's layout that no behaviour shows: each is kept by
one module, and these tests read the sources in src/golden_bounds to show
that no other module holds a copy of it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "golden_bounds"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
OUTSIDE_ERRORS = {name: text for name, text in SOURCES.items() if name != "errors.py"}


def test_the_fork_pool_stays_behind_one_module():
    # Everything that forks, pickles, signals or hooks process exit lives in
    # _pool.py; certify.py only plans the jobs.
    found = [
        word
        for word in ("os.fork", "pickle", "signal.", "atexit", "register_at_fork")
        if word in SOURCES["certify.py"]
    ]
    assert found == [], f"certify.py holds pool code ({found}); it belongs in _pool.py"


def test_caller_values_enter_through_one_gate():
    # errors._real and errors._reals turn a caller's scalars into floats or
    # name them in a BadRangeError, and errors._array turns a caller's arrays
    # into numpy arrays or names them in a NotHermitianError; no other module
    # catches the TypeError or ValueError of its own float() or np.asarray(),
    # with or without more classes in the tuple.
    found = [name for name, text in OUTSIDE_ERRORS.items() if "except (TypeError, ValueError" in text]
    assert found == [], f"a caller's value is converted in {found}; convert it in errors.py"


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The class names an except clause catches, alone or in a tuple."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in caught if isinstance(node, ast.Name)}


def test_only_the_range_gate_catches_overflow():
    # errors._overflow_named and errors._in_range name a scalar that leaves
    # double range; no other module catches OverflowError itself.
    found = [
        f"{name}:{node.lineno}"
        for name, text in OUTSIDE_ERRORS.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ExceptHandler) and "OverflowError" in _caught_names(node)
    ]
    assert found == [], f"OverflowError caught outside errors.py at {found}"


def test_the_range_faults_are_worded_only_in_errors():
    # One wording, "<what> exceeds double range" or "<what> underflows to 0
    # in double precision", formatted by the range gate alone; certify takes
    # no checked power from constants.
    phrases = ("exceeds double range", "underflows to 0", "overflows double precision",
               "overflows in double precision")
    found = [
        f"{name}: {phrase}"
        for name, text in OUTSIDE_ERRORS.items()
        for phrase in phrases
        if phrase in text
    ]
    assert found == [], f"a range fault is worded outside errors.py: {found}"
    assert all(phrase in SOURCES["errors.py"] for phrase in phrases[:2])
    assert "_checked_pow" not in SOURCES["certify.py"]
