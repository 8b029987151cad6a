"""The package's import graph: passive circuits and signal-flow systems
share only scalars, finite sets and linear algebra.

Each module's imports of the package are read from its source with
``ast``, so the test sees what a module imports, not what the package's
``__init__`` happens to load.  What a command-line child loads is read
from ``python -X importtime``: each subcommand loads only its half and
no ``dataclasses``, and ``import openwires`` loads no module at all.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import openwires
from openwires.cli import _COMMANDS

PACKAGE = Path(openwires.__file__).parent
FIXTURES = Path(__file__).parent / "fixtures"
CIRCUIT_HALF = {"circuit", "dirichlet", "symplectic"}
SIGNAL_FLOW_HALF = {"lti", "sfg"}
# What no child needs: dataclasses builds each class by exec at start-up,
# and inspect is the largest module that it loads.
CLASS_BUILDERS = {"dataclasses", "inspect"}


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
    assert package_imports("sfg") == {"scalars", "linalg", "lti"}


@pytest.mark.parametrize("module", sorted(SIGNAL_FLOW_HALF))
def test_signal_flow_code_imports_no_circuit_code(module):
    assert not reachable(module) & CIRCUIT_HALF


@pytest.mark.parametrize("module", sorted(CIRCUIT_HALF))
def test_circuit_code_imports_no_signal_flow_code(module):
    assert not reachable(module) & (SIGNAL_FLOW_HALF | {"cli"})


def run_child(*args: str) -> tuple[str, set[str], set[str]]:
    """The stdout of a Python child with the package on its path, the
    package modules it loaded and the other modules it loaded, both read
    from ``-X importtime``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    names = re.findall(r"\|\s*([\w.]+)$", done.stderr, re.MULTILINE)
    loaded = {name.split(".")[1] for name in names if name.startswith("openwires.")}
    others = {name for name in names if name.split(".")[0] != "openwires"}
    return done.stdout, loaded, others


@pytest.mark.parametrize(
    "argv, half",
    [
        (["sfg", "denote", str(FIXTURES / "splusone.sfg")], SIGNAL_FLOW_HALF),
        # finset comes with the circuit modules: no signal-flow module needs it
        (["circuit", "power", str(FIXTURES / "series11.json")], CIRCUIT_HALF - {"symplectic"} | {"finset"}),
        # the operational commands read the tick network alone: sfg loads
        # lti only inside its denotation functions
        (
            ["sfg", "step", str(FIXTURES / "splusone.sfg"), "--state", "[0,1]", "--left", "[1]", "--right", "[0]"],
            {"sfg"},
        ),
        (["sfg", "check-trace", str(FIXTURES / "wire.sfg"), "--init", "[]", "--window", "[[[2],[2]]]"], {"sfg"}),
        # with no --init a window is checked against the denotation
        (["sfg", "check-trace", str(FIXTURES / "wire.sfg"), "--window", "[[[2],[2]]]"], {"sfg", "lti"}),
    ],
)
def test_a_command_loads_only_its_half(argv, half):
    _, loaded, others = run_child("-m", "openwires.cli", *argv)
    assert loaded == {"scalars", "linalg"} | half
    assert not others & CLASS_BUILDERS


def test_help_loads_neither_half():
    """The three help pages name every row of the command table."""
    pages = ""
    for domain in ([], ["circuit"], ["sfg"]):
        out, loaded, others = run_child("-m", "openwires.cli", *domain, "--help")
        assert loaded == {"scalars"}
        assert not others & CLASS_BUILDERS
        pages += out
    assert len(_COMMANDS) == 9
    for _, command, help_text, *_ in _COMMANDS:
        assert f"{command}  " in pages and help_text in pages


def test_import_is_lazy():
    code = (
        "import sys, openwires\n"
        "print(sorted(m for m in sys.modules if m.startswith('openwires.')))\n"
        "from openwires import circuit, sfg\n"
        "print(circuit.__name__, sfg.__name__)"
    )
    out, loaded, _ = run_child("-c", code)
    assert out.split("\n")[:2] == ["[]", "openwires.circuit openwires.sfg"]
    assert loaded == {"scalars", "finset", "linalg", "circuit", "sfg"}


def test_every_public_name_resolves():
    assert len(set(openwires.__all__)) == len(openwires.__all__)
    assert set(openwires.__all__) <= set(dir(openwires))
    for name in openwires.__all__:
        getattr(openwires, name)
    assert openwires.black_box is sys.modules["openwires.symplectic"].black_box
    with pytest.raises(AttributeError):
        openwires.no_such_name
