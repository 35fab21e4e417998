"""Every name a module of src/tml imports is used in that module.

Read with the standard library's ast alone, so the check needs nothing
beyond the interpreter.  The package's __init__ is left out: importing
there is how it exports its public names.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "tml")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
