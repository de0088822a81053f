"""No module imports a name it never uses.

A stdlib check over the syntax trees: every name an import binds in a
module of `src/balpair/` (the package's `__init__.py`, which imports only
to re-export, aside) or of `tests/` must be read somewhere in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(set((ROOT / "src" / "balpair").glob("*.py"))
                 - {ROOT / "src" / "balpair" / "__init__.py"}
                 | set((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """The names bound by imports in the source and never read there."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\n"
                          "print(path)\n") == [(1, "os"), (2, "argv")]


def test_no_module_imports_a_name_it_never_uses():
    assert MODULES
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(path.read_text())]
    assert unused == []
