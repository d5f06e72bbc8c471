"""The package's own source: library invariants raise InvariantViolation,
so none may hang on an assert statement, which python -O strips."""

import ast
from pathlib import Path

import truncring

SRC = Path(truncring.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
