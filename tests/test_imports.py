"""Static checks on the package source, and on the benchmark tracer's hooks into it."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import almostnormal
from almostnormal.experiments import SCATTER_COLUMNS, TRUNCATE_COLUMNS
from almostnormal.nearest import DistanceReport

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


def fresh_process(probe: str, *argv: str) -> str:
    """The last line that the Python code probe prints, run with argv in a
    fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return (done.stdout.splitlines() or [""])[-1].strip()


def test_importing_the_cli_loads_no_thread_pool_or_logging():
    # pseudospectrum imports its pool when it runs, so a command that never
    # reaches it does not pay for concurrent.futures (which loads logging)
    probe = "import sys, almostnormal.cli; print(*sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    assert fresh_process(probe) == ""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the CLI handlers import the optimizer and the experiments when they run
    almostnormal.save_matrix(tmp_path / "n.json", np.diag([0.2 + 0.1j, -0.4 + 0j, 0.3j]))
    probe = (
        "import sys, almostnormal.cli as cli; code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
        "print(code, *sorted({'almostnormal.nearest', 'almostnormal.experiments'} & set(sys.modules)))"
    )
    matrix, report = ("--matrix", str(tmp_path / "n.json")), ("--report", str(tmp_path / "r.json"))
    assert fresh_process(probe) == "0"
    assert fresh_process(probe, "nearest", *matrix, "--seed", "0", "--restarts", "1", *report) == "0 almostnormal.nearest"
    assert fresh_process(probe, "partition", *matrix, "--side", "1", *report) == "0"


def test_the_traced_benchmark_imports_load_every_tracer_target():
    # perfbench imports exactly these before its tracer reads every target
    # module from sys.modules, so a target left to load lazily fails there
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    probe = (
        "import runpy, sys, almostnormal, almostnormal.cli, almostnormal.experiments; "
        f"targets = runpy.run_path({str(tracer)!r})['TARGETS']; "
        "print(*sorted(t for t in targets if 'almostnormal.' + t not in sys.modules))"
    )
    assert fresh_process(probe) == ""


def test_lazy_names_are_their_modules_own_objects_and_listed():
    for name, module in almostnormal._LAZY.items():
        assert getattr(almostnormal, name) is getattr(importlib.import_module(f"almostnormal.{module}"), name)
        assert name in vars(almostnormal)  # kept once resolved
    assert set(almostnormal._LAZY) <= set(dir(almostnormal))
    with pytest.raises(AttributeError, match="no_such_name"):
        almostnormal.no_such_name


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
    # names it (a word match in its text); the exports are the public names
    # bound in __init__ and those it loads on first use
    refs = set().union(*(
        references(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"
    ))
    root = Path(__file__).resolve().parents[1]
    scripts = "\n".join(
        path.read_text() for folder in ("demos", "perfbench") for path in (root / folder).glob("*.py")
    )
    exported = {**vars(almostnormal), **{name: getattr(almostnormal, name) for name in almostnormal._LAZY}}
    uncalled = [
        name for name, value in exported.items()
        if inspect.isfunction(value) and not name.startswith("_") and name not in refs
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


def _opens_to_write(call: ast.Call) -> bool:
    """open(path, mode) or path.open(mode) with a mode holding w, a, x or +
    (a mode that is not a literal counts), or a .write_text / .write_bytes call."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        index = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        index = 1 if isinstance(func.value, ast.Name) and func.value.id == "io" else 0
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > index:
        mode = call.args[index]
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def call_owners(source: str, matches) -> list[str]:
    """For each call for which matches(call) holds, the name of the innermost
    function holding it ("<module>" at top level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_file_writes_finds_only_opens_to_write():
    source = (
        "open('a.txt')\n"
        "def f(p, m):\n"
        "    open(p, 'r'); io.open(p, mode='rb'); p.open()\n"
        "    open(p, 'w'); io.open(p, 'ab'); p.open('x'); open(p, 'r+'); open(p, m)\n"
        "    def g(p):\n"
        "        p.write_text('t'); p.write_bytes(b'b')\n"
    )
    assert call_owners(source, _opens_to_write) == ["f"] * 5 + ["g"] * 2


def test_only_fileio_write_text_opens_a_file_to_write():
    # every artifact goes through one writer, which replaces an existing
    # file instead of truncating it in place
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in call_owners(path.read_text(), _opens_to_write)
    ]
    assert found == ["fileio._write_text"]


def json_decodes(source: str) -> list[str]:
    """call_owners of the calls that decode JSON: json.load, json.loads,
    json.JSONDecoder, any .raw_decode, and any name imported from json."""
    imported = {alias.asname or alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "json" for alias in node.names}

    def decodes(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            from_json = isinstance(func.value, ast.Name) and func.value.id == "json"
            return func.attr == "raw_decode" or from_json and func.attr in ("load", "loads", "JSONDecoder")
        return isinstance(func, ast.Name) and func.id in imported

    return call_owners(source, decodes)


def test_json_decodes_finds_only_json_decoding_calls():
    source = (
        "from json import loads as parse\n"
        "json.loads('1')\n"
        "def f(fh, text):\n"
        "    json.dumps(1); b'x'.decode(); load(fh); text.loads()\n"
        "    json.load(fh); json.JSONDecoder().raw_decode(text); parse(text)\n"
        "    def g(d):\n"
        "        d.raw_decode(text)\n"
    )
    assert json_decodes(source) == ["<module>"] + ["f"] * 4 + ["g"]


def test_only_fileio_decode_json_decodes_json():
    # every input file is decoded in one place, which also turns nesting too
    # deep for the decoder into an error naming the file
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in json_decodes(path.read_text())
    ]
    assert found == ["fileio._decode_json"]


SIDES = {"exact", "upper", "lower", "counter"}


def test_every_reported_number_declares_its_side():
    # the nearest report and the truncate and scatter tables write only what
    # declares a side; the witness and basis are matrices, not report numbers
    fields = {f.name: f.metadata.get("side") for f in dataclasses.fields(DistanceReport)}
    assert fields["witness"] is None and fields["basis"] is None
    undeclared = {
        f"{where}.{name}": side
        for where, sides in (("DistanceReport", fields), ("TRUNCATE_COLUMNS", TRUNCATE_COLUMNS),
                             ("SCATTER_COLUMNS", SCATTER_COLUMNS))
        for name, side in sides.items()
        if name not in ("witness", "basis") and side not in SIDES
    }
    assert undeclared == {}


def test_every_tracer_target_is_a_package_function():
    # perfbench/tracer.py looks its targets up by name when it installs, so
    # a renamed function would otherwise fail only in a traced benchmark run;
    # run_path executes the script without writing its bytecode
    root = Path(__file__).resolve().parents[1]
    targets = runpy.run_path(str(root / "perfbench" / "tracer.py"))["TARGETS"]
    missing = []
    for short, funcs in targets.items():
        mod = importlib.import_module(f"almostnormal.{short}")
        if short == "cli":
            funcs = [name for name in vars(mod) if name.startswith("cmd_")]
            assert funcs, "cli has no cmd_* handler"
        missing += [f"{short}.{name}" for name in funcs if not callable(getattr(mod, name, None))]
    assert missing == []


def test_every_tracer_count_callback_reads_live_fields(tmp_path, monkeypatch):
    # the count callbacks read result fields by name (roi.cover, r.moved_count,
    # rep.members, ...), so one tiny run of each command under the installed
    # tracer must record counts at every target that has a callback
    root = Path(__file__).resolve().parents[1]
    script = runpy.run_path(str(root / "perfbench" / "tracer.py"))
    counted = {f"{short}.{name}" for short, funcs in script["TARGETS"].items()
               for name, counts in funcs.items() if counts is not None}
    cli = importlib.import_module("almostnormal.cli")
    monkeypatch.chdir(tmp_path)
    almostnormal.save_matrix("n.json", np.diag([0.2 + 0.1j, -0.4 + 0j, 0.3j]))
    commands = [
        "nearest --matrix n.json --seed 0 --restarts 1 --report r.json",
        "scatter --shift 2 --seed 0 --restarts 1 --out s.csv",
        "truncate --coeffs 0,0,1 --K 2 --grid 2 --seed 0 --restarts 1 --out t.csv",
        "partition --matrix n.json --side 1 --report p.json --approx a.json",
        "surgery graph --matrix n.json --eps 0.1 --out g.json",
        "surgery remove-disc --matrix n.json --center 0,0 --radius 0.5 --out d.json",
        "pseudospec --matrix n.json --eps 0.3 --resolution 21 --threads 1 --out ps.csv",
    ]
    tracer = script["Tracer"]()
    tracer.install()
    try:
        codes = [cli.main(command.split()) for command in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    assert {name for _, _, name, _, _, counts in tracer.spans if counts} == counted
