"""The library is what the commands run.

Every function ``gausschain`` exports must be reached by something other
than the tests: the command-line interface, the benchmark (a ``gc.<name>``
call in ``perfbench/ops.py`` or a name its tracer patches, the ``LAYERS``
table of ``perfbench/spans.py``), a script in ``tools/``, or another
exported function.  Anything else serves only the tests and belongs in
``tests/``.  The public methods and properties of every exported class
must likewise be read somewhere other than the tests and the class's own
body: the package, the benchmark or a script in ``tools/``.  So must every
field of an exported dataclass, where the package's reads count outside the
class's ``__post_init__`` (which only checks and stores the field), and
``dataclasses.asdict`` in the package or the benchmark's constructor call
reads every field it sees.  Every file is read with ``ast``, never imported
or run.
"""

import ast
import dataclasses
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


def attributes_read(tree, hidden=frozenset()):
    """Every attribute a tree reads (``x.f``), but in the nodes whose ids are ``hidden``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in hidden}


def attribute_reads(trees):
    """(attributes read outside every ``__post_init__``, {class name: attributes
    read inside that class's ``__post_init__``})."""
    general, inside = set(), {}
    for tree in trees:
        posts = [(cls.name, item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
        hidden = {id(node) for _, item in posts for node in ast.walk(item)}
        for name, item in posts:
            inside.setdefault(name, set()).update(attributes_read(item))
        general |= attributes_read(tree, hidden)
    return general, inside


def asdict_classes(trees):
    """Names of the classes whose instances go through ``dataclasses.asdict``, read
    off the return annotation of the exported function that makes the instance."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asdict"
                    and node.args and isinstance(node.args[0], ast.Call)):
                maker = node.args[0].func
                fn = getattr(gausschain, getattr(maker, "id", getattr(maker, "attr", "")))
                out.add(str(inspect.signature(fn).return_annotation))
    return out


def constructor_fields(tree):
    """(class name, field) for every field a ``gc.<Class>(...)`` call passes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            cls = getattr(gausschain, node.func.attr, None)
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls):
                names = [f.name for f in dataclasses.fields(cls) if f.init]
                out |= {(cls.__name__, name) for name in names[:len(node.args)]}
                out |= {(cls.__name__, kw.arg) for kw in node.keywords}
    return out


def exported_dataclasses():
    exported = (getattr(gausschain, name) for name in gausschain.__all__)
    return [obj for obj in exported if inspect.isclass(obj) and dataclasses.is_dataclass(obj)]


def test_every_field_of_an_exported_dataclass_is_read_outside_the_tests():
    classes = exported_dataclasses()
    assert sum(len(dataclasses.fields(cls)) for cls in classes) >= 50
    src = [parse(path) for path in glob.glob(os.path.join(ROOT, "src", "gausschain", "*.py"))]
    outside = set()
    for path in (glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tools", "*.py"))):
        outside |= attributes_read(parse(path))
    whole = asdict_classes(src)
    assert "JumpValidationReport" in whole  # the detector sees the one asdict call
    passed = constructor_fields(parse("perfbench", "ops.py"))
    general, inside = attribute_reads(src)
    unread = []
    for cls in classes:
        if cls.__name__ in whole:
            continue
        read = outside | general
        read = read.union(*(names for owner, names in inside.items() if owner != cls.__name__))
        unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                   if f.name not in read and (cls.__name__, f.name) not in passed]
    assert unread == []
