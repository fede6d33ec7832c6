"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import swapsets

PACKAGE_DIR = Path(swapsets.__file__).parent


def test_no_assert_statements():
    """`python -O` strips assert statements, so checks in the library must
    raise explicitly instead."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, found
