"""The package's import graph: passive circuits and signal-flow systems
share only scalars, finite sets and linear algebra.

Each module's imports of the package are read from its source with
``ast``, so the test sees what a module imports, not what the package's
``__init__`` happens to load.
"""

import ast
from pathlib import Path

import pytest

import openwires

PACKAGE = Path(openwires.__file__).parent
CIRCUIT_HALF = {"circuit", "dirichlet", "symplectic"}
SIGNAL_FLOW_HALF = {"lti", "sfg"}


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports.  The package imports
    its own modules relatively; an absolute import of it fails here."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(name.split(".")[0] for name in names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "openwires", (module, node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "openwires", (module, alias.name)
    return found


def reachable(module: str) -> set[str]:
    """Every package module that importing ``module`` loads, itself excluded."""
    seen, todo = set(), [module]
    while todo:
        for other in package_imports(todo.pop()):
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return seen - {module}


def test_signal_flow_imports_only_the_shared_layers():
    assert package_imports("sfg") == {"scalars", "finset", "linalg", "lti"}


@pytest.mark.parametrize("module", sorted(SIGNAL_FLOW_HALF))
def test_signal_flow_code_imports_no_circuit_code(module):
    assert not reachable(module) & CIRCUIT_HALF


@pytest.mark.parametrize("module", sorted(CIRCUIT_HALF))
def test_circuit_code_imports_no_signal_flow_code(module):
    assert not reachable(module) & (SIGNAL_FLOW_HALF | {"cli"})
