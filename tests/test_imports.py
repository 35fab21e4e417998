"""Every name a module of src/tml imports is used in that module, and
every module-level private name (_name) is read by some module.

Read with the standard library's ast alone, so the check needs nothing
beyond the interpreter.  The package's __init__ is left out of the import
check: importing there is how it exports its public names.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "tml")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _sources():
    out = {}
    for name in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


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


def private_definitions(source: str):
    """Module-level functions, classes and constants named _name."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.extend(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str):
    """Every name source reads, as a variable, an attribute or an import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_private_names(sources):
    """(module, name) for each private definition no source reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted((module, name) for module, source in sources.items()
                  for name in private_definitions(source) if name not in read)


def test_finds_an_unread_private_name():
    sources = {"a.py": "_K = 1\n_A, _B = 2, 3\ndef _f():\n    return _K\n"
                       "class _C:\n    pass\n__all__ = []\n",
               "b.py": "from a import _f\nimport a\nprint(_f(), a._B)\n"}
    assert unread_private_names(sources) == [("a.py", "_A"), ("a.py", "_C")]


def test_no_unread_private_names():
    sources = _sources()
    assert sum(len(private_definitions(s)) for s in sources.values()) > 0
    assert unread_private_names(sources) == []
