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


def function_bodies(source: str) -> dict[str, str]:
    """{AST dump of the body: name} for each function whose body, without
    its docstring, has at least 3 statements."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) >= 3:
                found[ast.dump(ast.Module(body=body, type_ignores=[]))] = node.name
    return found


def test_function_bodies_ignores_names_docstrings_and_short_bodies():
    body = "    a = x\n    b = a\n    return b\n"
    copy = function_bodies(f"def g(x: int):\n    'doc'\n{body}")
    assert copy.keys() == function_bodies(f"def f(x):\n{body}").keys()
    assert function_bodies("def f(x):\n    a = x\n    return a\n") == {}


def test_no_test_or_demo_function_copies_a_package_function():
    package = {
        body: f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for body, name in function_bodies(path.read_text()).items()
    }
    root = Path(__file__).resolve().parents[1]
    copies = [
        (f"{folder}/{path.stem}.{name}", package[body])
        for folder in ("tests", "demos")
        for path in sorted((root / folder).glob("*.py"))
        for body, name in function_bodies(path.read_text()).items()
        if body in package
    ]
    assert copies == []
