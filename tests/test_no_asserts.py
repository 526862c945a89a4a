"""Runtime invariants of hgreen raise, they are not `assert`s; hgreen imports
none of the test-only packages.

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


# the packages of the `test` extra (pyproject.toml): the tests may import them,
# the package may not
TEST_ONLY = {"sympy", "hypothesis", "pytest"}


def test_package_imports_no_test_only_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in TEST_ONLY]
    assert not found, f"hgreen imports test-only packages: {found}"
