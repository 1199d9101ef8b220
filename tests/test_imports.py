"""Static checks on the package source."""

from __future__ import annotations

import ast
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
