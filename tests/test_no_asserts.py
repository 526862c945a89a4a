"""Runtime invariants of hgreen raise, they are not `assert`s.

`python -O` strips every assert statement, so a check written as one would
vanish from an optimised run.  Tests may assert; the package may not.
"""

import ast
from pathlib import Path

import hgreen

PACKAGE = Path(hgreen.__file__).resolve().parent


def test_package_has_no_assert_statement():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in hgreen: {found}"
