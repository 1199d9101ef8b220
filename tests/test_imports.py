"""Static checks on the package source."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import almostnormal

PACKAGE = Path(almostnormal.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads.
    Annotations count as reads: the parser keeps them as expressions."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx: np.ndarray = pi\n"
    assert unused_imports(source) == ["os", "tau"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def references(source: str) -> set[str]:
    """Names a module reads, reads as an attribute, or imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_exported_function_has_a_caller_outside_tests():
    # a caller is a package module other than __init__ (the defining one
    # counts: a pipeline there uses it), or a demo or benchmark script that
    # names it (a word match in its text)
    refs = set().union(*(
        references(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"
    ))
    root = Path(__file__).resolve().parents[1]
    scripts = "\n".join(
        path.read_text() for folder in ("demos", "perfbench") for path in (root / folder).glob("*.py")
    )
    uncalled = [
        name for name, value in vars(almostnormal).items()
        if inspect.isfunction(value) and name not in refs
        and not re.search(rf"\b{name}\b", scripts)
    ]
    assert uncalled == []
