"""numpy is the package's only runtime dependency: every module imports
only itself (relatively), the standard library and numpy, and
pyproject.toml declares numpy alone. Text and JSON files are read and
written by atomic.py alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tumorbox"


def absolute_imports(path):
    """(line, top-level module) of every non-relative import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_modules_import_only_stdlib_numpy_and_relative():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    seen, foreign = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in absolute_imports(path):
            seen.add(name)
            if name not in allowed:
                foreign.append(f"{path.name}:{line} imports {name}")
    assert "numpy" in seen  # the walk found the imports
    assert foreign == []


def test_pyproject_declares_numpy_as_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]


def text_file_calls(path):
    """(line, call) of every text-mode builtin ``open``, ``Path.read_text``
    or ``write_text``, and ``json.load``, ``loads`` or ``dump`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if not any(isinstance(m, ast.Constant) and "b" in m.value for m in modes):
                yield node.lineno, "open"
        elif isinstance(func, ast.Attribute):
            if func.attr in ("read_text", "write_text"):
                yield node.lineno, func.attr
            elif isinstance(func.value, ast.Name) and func.value.id == "json" and func.attr in ("load", "loads", "dump"):
                yield node.lineno, f"json.{func.attr}"


def test_only_atomic_reads_and_writes_text_and_json_files():
    # mha.py's "rb" opens and cli's json.dumps to stdout are not text files.
    calls = {path.name: list(text_file_calls(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert [call for _, call in calls.pop("atomic.py")] == ["open", "json.loads"]  # the walk sees them
    assert {name: found for name, found in calls.items() if found} == {}


def test_cli_import_leaves_multiprocessing_out():
    # Only eval with more than one job forks workers, so no other command
    # pays for importing multiprocessing at start-up.
    code = "import sys, tumorbox.cli; print('multiprocessing' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def imported_names(tree):
    """(line, bound name) of every name an import in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports(source, exempt=()):
    """Names that ``source`` imports and never reads, as "line name"."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for line, name in imported_names(tree) if name not in read and name not in exempt]


# pipeline.py imports these for benchmark/tracing.py to wrap, not to call.
TRACER_IMPORTS = {"pipeline.py": {"em_gmm_1d", "kmeans_1d"}}


def test_every_imported_name_is_used():
    # __init__.py imports to re-export.
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"), TRACER_IMPORTS.get(path.name, ()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "cli.py" in found  # the walk found the modules
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_sees_each_import_form():
    source = "import os\nimport numpy as np\nimport xml.dom\nfrom math import pi, tau as t\nnp.zeros(1)\nprint(xml.dom, pi)\n"
    assert unused_imports(source) == ["1 os", "4 t"]
