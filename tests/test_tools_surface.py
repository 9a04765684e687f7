"""The program surface the scripts in ``tools/`` rely on.

The golden- and occupation-truth scripts run only when a reference value
is deliberately re-pinned, the solver-scaling script only when long-chain
cost is measured, and the oracle-scaling script only when the oracle's
site cap is re-measured, so a renamed or removed import would break any
of them unnoticed.  Each is read here with ``ast`` and every
``from gausschain... import name`` is resolved against the package.  The
goldens script alone is also run: what it writes must be the committed
goldens, byte for byte.
"""

import ast
import importlib
import importlib.util
import os

from gausschain.matio import dumps_json
from tests.conftest import GOLDEN_PATH, read_bytes

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def gausschain_imports(name):
    with open(os.path.join(TOOLS, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "gausschain"
            for alias in node.names]


def unresolved(names):
    return [f"{module}.{name}" for module, name in names
            if not hasattr(importlib.import_module(module), name)]


def test_make_goldens_imports_resolve():
    names = gausschain_imports("make_goldens.py")
    assert len(names) >= 3
    assert unresolved(names) == []


def test_solver_scaling_imports_resolve():
    names = gausschain_imports("solver_scaling.py")
    assert len(names) >= 5
    assert unresolved(names) == []


def test_oracle_scaling_imports_resolve():
    names = gausschain_imports("oracle_scaling.py")
    assert len(names) >= 10
    assert unresolved(names) == []


def test_make_occupation_truth_imports_resolve():
    names = gausschain_imports("make_occupation_truth.py")
    assert len(names) >= 2
    assert unresolved(names) == []


def test_goldens_are_what_the_commands_write(tmp_path):
    spec = importlib.util.spec_from_file_location("make_goldens",
                                                  os.path.join(TOOLS, "make_goldens.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    payload = tool.golden_payload(str(tmp_path))
    assert (dumps_json(payload) + "\n").encode() == read_bytes(GOLDEN_PATH)
