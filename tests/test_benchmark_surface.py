"""The program surface the benchmark harness relies on.

``perfbench/ops.py`` calls ``gausschain`` through ``gc.<name>`` chains and
``perfbench/spans.py`` patches the functions named in its ``LAYERS``
table.  Renaming or removing one of them, or changing a call signature,
turns every benchmark op that uses it into a crash, so both files are
read here with ``ast`` (never imported) and checked against the package.
"""

import ast
import dataclasses
import importlib
import inspect
import os

import gausschain
from gausschain.orbitals import CrossoverScan, SourceScan

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def gc_chain(node):
    """('models', 'matrix_entries') for ``gc.models.matrix_entries``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "gc" and parts:
        return tuple(reversed(parts))
    return None


def resolve(chain):
    obj = gausschain
    for part in chain:
        obj = getattr(obj, part)
    return obj


def hasattr_chain(chain):
    try:
        resolve(chain)
    except AttributeError:
        return False
    return True


def ops_references():
    """Every gc chain in ops.py, and the calls made through one."""
    chains, calls = set(), []
    for node in ast.walk(parse("ops.py")):
        if isinstance(node, ast.Attribute) and gc_chain(node):
            chains.add(gc_chain(node))
        if isinstance(node, ast.Call) and gc_chain(node.func):
            calls.append((gc_chain(node.func), node))
    return sorted(chains), calls


def layer_table():
    for node in parse("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS table")


def test_ops_names_resolve():
    chains, _ = ops_references()
    assert len(chains) >= 20
    missing = [".".join(c) for c in chains if not hasattr_chain(c)]
    assert missing == []


def test_ops_calls_bind_to_the_signature():
    _, calls = ops_references()
    assert len(calls) >= 20
    for chain, call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        signature = inspect.signature(resolve(chain))
        # raises TypeError naming the argument that no longer fits
        signature.bind(*[None] * len(call.args), **{k.arg: None for k in call.keywords})


def test_traced_names_resolve_on_their_module():
    layers = layer_table()
    assert len(layers) >= 10
    missing = [f"{module}.{name}" for module, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(f"gausschain.{module}"),
                                       name, None))]
    assert missing == []


def test_scan_results_carry_the_fields_the_tracer_counts():
    assert "sites" in {f.name for f in dataclasses.fields(SourceScan)}
    assert "g_values" in {f.name for f in dataclasses.fields(CrossoverScan)}
