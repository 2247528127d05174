"""Package imports: every imported name is used or exported, the package needs
nothing beyond numpy and the standard library, and the layers stay apart.

``nn`` (autodiff, field ops, networks) sits below the pipeline modules and
imports none of them; ``geodesic`` takes only the Tensor engine from ``nn``.
Every public top-level function and class is named by the program or the
benchmark somewhere besides its own definition.
"""

import ast
import re
import sys
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


# the only runtime dependency besides the standard library
_ALLOWED = {"numpy", "cardiomotion"} | set(sys.stdlib_module_names)


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports from outside numpy, the standard
    library and the package (a relative import is the package's own)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in _ALLOWED]
    return found


@pytest.mark.parametrize("path", _MODULES,
                         ids=[str(p.relative_to(_PACKAGE)) for p in _MODULES])
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert _foreign_imports(path.read_text()) == []


def test_a_foreign_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy.linalg\n"
              "from . import grid\n"
              "from .nn.tensor import Tensor\n"
              "def f():\n"
              "    import scipy.ndimage\n"
              "    from hypothesis import given\n")
    assert _foreign_imports(source) == ["line 6: scipy.ndimage", "line 7: hypothesis"]


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


def test_cli_builds_no_domain_config():
    # the config module maps the document onto the domain configs; cli calls its builders
    domain = {"MetricOperator", "ShootingConfig", "RegistrationConfig", "UNetConfig",
              "DiffusionConfig", "make_schedule", "SmoothingKernel", "PhantomConfig",
              "DatasetRanges"}
    imported = {name.split(".")[-1] for name in _imported_modules(_PACKAGE / "cli.py")}
    assert not imported & domain, sorted(imported & domain)


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


_BENCH = _PACKAGE.parent.parent / "bench"

# public names that only the tests and the README call, kept on purpose
_KEPT_UNCALLED = {
    "forward_step": "criterion 5 checks the iterated chain that it defines",
    "map_to_displacement": "the README's library example uses it",
}


def _definitions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _named(path: Path) -> set[str]:
    """Identifiers that ``path`` refers to: names, attributes, imports and the words of its
    strings (the benchmark lists traced functions by name), but not docstrings, ``__all__``
    or the names it defines."""
    tree = ast.parse(path.read_text())
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            skip.add(id(body[0].value))  # a docstring
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip |= {id(c) for c in ast.walk(node.value)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            found |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def test_every_public_function_and_class_is_named_by_the_program_or_the_benchmark():
    named = set().union(*(_named(p) for p in _MODULES + sorted(_BENCH.glob("*.py"))))
    unnamed = [f"{path.stem}.{name}" for path in _MODULES for name in sorted(_definitions(path))
               if name not in named and name not in _KEPT_UNCALLED]
    assert unnamed == []
