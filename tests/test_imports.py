"""Every name a module of src/ecat imports is used in that module, and
every private module-level function or class of src/ecat is named by some
code of src/ecat outside its own definition.

Names listed in the package's __all__ are re-exported, so they count as
used in __init__.py.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ecat"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Imported names that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_the_scan_exempts_names_in_all():
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: dict) -> list:
    """The (module, name) of each module-level function or class whose name
    starts with one underscore and that no name or attribute read outside
    its own definition refers to, in any of the modules."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = defaultdict(list)  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append(node)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if all(id(ref) in own for ref in refs[node.name]):
                out.append((module, node.name))
    return sorted(out)


def test_the_scan_finds_an_unreferenced_private_def():
    sources = {
        "a": "def _loop():\n    return _loop()\n\ndef _used():\n    pass\n\nclass _Dead:\n    pass\n",
        "b": "import a\n\ndef public():\n    return a._used()\n\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", "_Dead"), ("a", "_loop")]


def test_no_unreferenced_private_defs():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []
