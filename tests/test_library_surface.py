"""The library is what the commands run.

Every function ``gausschain`` exports must be reached by something other
than the tests: the command-line interface, the benchmark (a ``gc.<name>``
call in ``perfbench/ops.py`` or a name its tracer patches, the ``LAYERS``
table of ``perfbench/spans.py``), a script in ``tools/``, or another
exported function.  Anything else serves only the tests and belongs in
``tests/``.  Classes are exempt.  Every file is read with ``ast``, never
imported or run.
"""

import ast
import glob
import inspect
import os
import textwrap

import gausschain

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def names_in(tree):
    """Every name a tree reads, bare (``f``) or as an attribute (``gc.f``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def parse(*parts):
    path = os.path.join(ROOT, *parts)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def layer_names():
    for node in parse("perfbench", "spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {name for _, names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("perfbench/spans.py defines no LAYERS table")


def exported_functions():
    return {name: getattr(gausschain, name) for name in gausschain.__all__
            if inspect.isfunction(getattr(gausschain, name))}


def test_every_exported_function_is_used_outside_the_tests():
    functions = exported_functions()
    assert len(functions) >= 30
    used = names_in(parse("src", "gausschain", "cli.py"))
    used |= names_in(parse("perfbench", "ops.py")) | layer_names()
    tools = glob.glob(os.path.join(ROOT, "tools", "*.py"))
    assert len(tools) >= 3
    for path in tools:
        used |= names_in(parse(path))
    for name, fn in functions.items():
        body = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        used |= names_in(body) - {name}
    assert sorted(set(functions) - used) == []
