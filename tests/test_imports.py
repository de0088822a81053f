"""No module imports a name it never uses, and no definition goes unnamed.

Stdlib checks over the syntax trees: every name an import binds in a
module of `src/balpair/` (the package's `__init__.py`, which imports only
to re-export, aside) or of `tests/` must be read somewhere in that module;
and every module-level function and class and every method of
`src/balpair/` must be named somewhere in `src/`, `tests/` or `bench/`
besides its own definition: read, imported, or a word of a string other
than a docstring, since the bench tracer wraps functions by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "balpair").glob("*.py"))
MODULES = sorted(set(PACKAGE) - {ROOT / "src" / "balpair" / "__init__.py"}
                 | set((ROOT / "tests").glob("*.py")))
# this module's own strings name definitions only as examples
READERS = sorted((set((ROOT / "src").rglob("*.py"))
                  | set((ROOT / "tests").glob("*.py"))
                  | set((ROOT / "bench").glob("*.py")))
                 - {Path(__file__).resolve()})


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


def definitions(source):
    """(line, name) of each module-level function and class and each
    method the source defines, dunder methods aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def names_read(source):
    """How often the source names each name: read, as an attribute, in an
    import, or as a word of a string other than a docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            named.update(re.findall(r"\w+", node.value))
    return named


def dead_definitions(defining, readers):
    """(module, line, name) of each definition in the defining sources
    (module -> source) that none of the reader sources names."""
    named = Counter()
    for source in readers:
        named.update(names_read(source))
    return [(module, line, name) for module, source in defining.items()
            for line, name in definitions(source) if not named[name]]


def test_the_check_finds_a_dead_definition():
    engine = ROOT / "src" / "balpair" / "engine.py"
    leftover = engine.read_text() + (
        "\n\ndef _image_start(word, start):\n"
        '    """Named in its docstring only: _image_start."""\n'
        "    return word[:start]\n")
    readers = [path.read_text() for path in READERS if path != engine]
    assert dead_definitions({"engine": leftover}, readers + [leftover]) == [
        ("engine", len(leftover.splitlines()) - 2, "_image_start")]


def test_every_definition_is_named_elsewhere():
    assert PACKAGE
    dead = dead_definitions(
        {path.relative_to(ROOT): path.read_text() for path in PACKAGE},
        [path.read_text() for path in READERS])
    assert [f"{module}:{line}: {name}" for module, line, name in dead] == []
