"""Package imports: every imported name is used or exported, and the layers stay apart.

``nn`` (autodiff, field ops, networks) sits below the pipeline modules and
imports none of them; ``geodesic`` takes only the Tensor engine from ``nn``.
"""

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


# pipeline modules that the autodiff package may not import
_ABOVE_NN = {"geodesic", "registration", "diffusion", "phantom", "strain", "config", "cli"}


def _imported_modules(path: Path) -> set[str]:
    """Dotted names, relative to the package, of what ``path`` imports from the package.

    ``from m import n`` yields both ``m`` and ``m.n``, since ``n`` may be a module.
    """
    here = path.relative_to(_PACKAGE).with_suffix("").parts
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level:
                parts = here[:len(here) - node.level] + tuple((node.module or "").split("."))
                module = ".".join(("cardiomotion",) + parts).rstrip(".")
            else:
                module = node.module
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return {name.removeprefix("cardiomotion").lstrip(".") for name in found
            if name.split(".")[0] == "cardiomotion"}


def test_nn_imports_no_pipeline_module():
    for path in _PACKAGE.joinpath("nn").glob("*.py"):
        bad = {m for m in _imported_modules(path) if m.split(".")[0] in _ABOVE_NN}
        assert not bad, f"{path.name} imports {sorted(bad)}"


def test_geodesic_takes_only_the_tensor_engine_from_nn():
    from_nn = {m for m in _imported_modules(_PACKAGE / "geodesic.py")
               if m.split(".")[0] == "nn"}
    assert from_nn and all(m.split(".")[:2] == ["nn", "tensor"] for m in from_nn), from_nn


def test_nn_package_binds_no_public_name():
    # its modules are imported by their own names, never through the package
    tree = ast.parse((_PACKAGE / "nn" / "__init__.py").read_text())
    assert len(tree.body) == 1 and isinstance(tree.body[0], ast.Expr)  # the docstring
    import cardiomotion.nn as nn
    submodules = {p.stem for p in (_PACKAGE / "nn").glob("*.py")}
    assert {name for name in vars(nn) if not name.startswith("_")} <= submodules
