"""The package source imports no scipy: hdrkit is numpy-only at run time.

Names that merely contain "scipy" are allowed, such as the ``scipy_openblas``
symbol prefix of the OpenBLAS build that numpy's wheels bundle.
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
