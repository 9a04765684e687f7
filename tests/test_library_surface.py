"""The library is what the commands run.

Every function ``gausschain`` exports must be reached by something other
than the tests: the command-line interface, the benchmark (a ``gc.<name>``
call in ``perfbench/ops.py`` or a name its tracer patches, the ``LAYERS``
table of ``perfbench/spans.py``), a script in ``tools/``, or another
exported function.  Anything else serves only the tests and belongs in
``tests/``.  The public methods and properties of every exported class
must likewise be read somewhere other than the tests and the class's own
body: the package, the benchmark or a script in ``tools/``.  Every file is
read with ``ast``, never imported or run.
"""

import ast
import functools
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


def exported_members():
    """(class, member) for each public method and property of an exported class."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    for name in gausschain.__all__:
        cls = getattr(gausschain, name)
        if inspect.isclass(cls):
            for member, attr in vars(cls).items():
                if not member.startswith("_") and (inspect.isfunction(attr)
                                                   or isinstance(attr, kinds)):
                    yield cls, member


def test_every_public_method_of_an_exported_class_is_used_outside_the_tests():
    members = list(exported_members())
    assert len(members) >= 20
    trees = [parse(path) for path in glob.glob(os.path.join(ROOT, "src", "gausschain", "*.py"))]
    outside = set()
    for path in (glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tools", "*.py"))):
        outside |= names_in(parse(path))
    unused = []
    for cls, member in members:
        used = set(outside)
        for tree in trees:
            used |= names_in(ast.Module(body=[
                node for node in tree.body
                if not (isinstance(node, ast.ClassDef) and node.name == cls.__name__)],
                type_ignores=[]))
        if member not in used:
            unused.append(f"{cls.__name__}.{member}")
    assert unused == []
