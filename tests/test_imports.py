"""Every name a package module imports is used in that module or listed in
its __all__ (a stdlib-ast stand-in for a linter's unused-import rule)."""

import ast
from pathlib import Path

import pytest

import enfcapon

MODULES = sorted(Path(enfcapon.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b" bind c, b.
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_detects_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
