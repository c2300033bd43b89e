"""The package source imports no scipy, no name it never uses, and ctypes in
one module only.

hdrkit is numpy-only at run time.  Names that merely contain "scipy" are
allowed, such as the ``scipy_openblas`` symbol prefix of the OpenBLAS build
that numpy's wheels bundle.  ``__init__.py`` imports names only to re-export
them, so it is exempt from the unused-name check.  A library must not change
process-wide settings behind its caller's back; ``nn.py`` needs ctypes only
to find OpenBLAS's thread-count functions, and restores the count it sets.
"""

import ast
from pathlib import Path

import hdrkit
import pytest

SOURCE = Path(hdrkit.__file__).parent


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every import of scipy in a module's source: ``import
    scipy...``, ``from scipy... import`` and ``importlib.import_module`` or
    ``__import__`` called with a string that starts with "scipy"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(_is_scipy(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = node.level == 0 and _is_scipy(node.module or "")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            first = node.args[0] if node.args else None
            found = (
                name in ("import_module", "__import__")
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value.startswith("scipy")
            )
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def unused_imports(source: str) -> list[str]:
    """Names that a module's import statements bind and its code never reads
    (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that a module's source imports by an
    ``import`` or absolute ``from ... import`` statement."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add((node.module or "").partition(".")[0])
    return names


def test_package_source_imports_no_scipy():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = {p.name: scipy_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source",
    [
        "import numpy, scipy.special\n",
        "from scipy import special\n",
        "import importlib\nspecial = importlib.import_module('scipy.special')\n",
        "def f():\n    return __import__('scipy')\n",
    ],
)
def test_each_import_form_is_found(source):
    assert scipy_imports(source)


def test_names_that_only_contain_scipy_pass():
    source = (
        "for prefix in ('scipy_openblas', ''):\n"
        "    name = prefix + 'openblas_set_num_threads'\n"
        "from .scipy_free import x\n"
    )
    assert scipy_imports(source) == []


def test_only_nn_imports_ctypes():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert [p.name for p in modules if "ctypes" in imported_modules(p.read_text())] == ["nn.py"]


@pytest.mark.parametrize(
    "source, modules",
    [
        ("import ctypes\n", {"ctypes"}),
        ("def f():\n    from ctypes.util import find_library\n", {"ctypes"}),
        ("import os.path, numpy as np\n", {"os", "numpy"}),
        ("from . import ctypes\nfrom .nn import Network\n", set()),
    ],
)
def test_imported_modules_are_found(source, modules):
    assert imported_modules(source) == modules


def test_package_source_uses_every_import():
    modules = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int\n", ["field"]),
        ("import os.path\n", ["os"]),
        ("import numpy as np\nimport math\nx = math.pi\n", ["np"]),
        ("def f():\n    from json import dumps, loads\n    return loads\n", ["dumps"]),
        ("from __future__ import annotations\nimport os\nx = os.sep\n", []),
    ],
)
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
