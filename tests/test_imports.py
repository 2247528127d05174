"""Every name a package module imports is used in it or exported by its ``__all__``."""

import ast
from pathlib import Path

import pytest

import cardiomotion

_PACKAGE = Path(cardiomotion.__file__).parent
_MODULES = sorted(_PACKAGE.rglob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    exported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", _MODULES,
                         ids=[str(p.relative_to(_PACKAGE)) for p in _MODULES])
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .tensor import Tensor, add, no_grad\n"
              "__all__ = ['add']\n"
              "def f(x: Tensor) -> np.ndarray:\n"
              "    return x\n")
    assert _unused_imports(source) == ["line 3: no_grad"]
