"""No public name in the library is there only for the tests.

A public name (no leading ``_``) that a ``src/cogrl`` module defines at
module level, in a class body or as an attribute a method sets on its
first argument (``self.x = ...``) is read somewhere in ``src/cogrl``,
``bench/`` or ``demos/``. A module-level name is read as a bare name or as
an attribute; a class member only as an attribute (``x.member``), so a
local variable that shares its name does not keep it. In ``bench/``, a
part of a ``module:attr.path`` span target string counts as an attribute
read. Test files do not count. So a computation the commands never run
does not keep a second implementation alive for its unit tests, and the
tests check the code that runs.

Attributes are matched by their bare text, whatever object they are read
from, so the lint misses a member that some other object also has: a
method such as ``step`` passes while any ``.step`` attribute is read
anywhere. It catches names nothing reads at all; a reused name needs a
reviewer.

``ALLOWED`` lists the names kept on purpose, each with its reason.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cogrl"

# a bench span target, such as "cogrl.afm:TransactionLog.__init__"
TARGET = re.compile(r"[\w.]+:([\w.]+)")

ALLOWED = {
    "read_params": "format reader of the parameter table write_params writes",
    "load_network": "format reader of the checkpoint save_network writes",
    "EXIT_USAGE": "documents exit code 2, which argparse itself returns",
}


def instance_attributes(cls: ast.ClassDef) -> list[tuple[int, str]]:
    """(line, name) of each attribute a method of ``cls`` stores on its
    first argument, such as ``self.x = ...``, in line order."""
    found = []
    for method in cls.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and method.args.args:
            me = method.args.args[0].arg
            found.extend(
                (node.lineno, node.attr) for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == me)
    return sorted(found)


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each public module-level name, each public name in
    a module-level class body and each public attribute its methods set
    on their first argument; a class member is named ``Class.member``, and
    is listed once, where it is first defined."""
    found = []

    def names(body, prefix=""):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            found.extend((node.lineno, prefix + name) for name in targets
                         if not name.startswith("_"))
            if isinstance(node, ast.ClassDef) and not prefix:
                names(node.body, node.name + ".")
                members = {name for _, name in found}
                for line, name in instance_attributes(node):
                    member = f"{node.name}.{name}"
                    if not name.startswith("_") and member not in members:
                        members.add(member)
                        found.append((line, member))

    names(ast.parse(source).body)
    return found


def names_read(source: str, targets: bool = False
               ) -> tuple[set[str], set[str]]:
    """The bare names a module reads, and the attribute names it reads
    together with, given ``targets``, the parts of its span target
    strings."""
    bare, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif targets and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and (match := TARGET.fullmatch(node.value)):
            attributes.update(match.group(1).split("."))
    return bare, attributes


def unread_public_names(definitions, bare: set[str], attributes: set[str]
                        ) -> list[tuple[str, int, str]]:
    """The (module, line, name) definitions that are not read: a
    module-level name neither as a bare name nor as an attribute, a class
    member ``Class.member`` not as an attribute."""
    return sorted(
        (module, line, name) for module, line, name in definitions
        if name.rpartition(".")[2] not in (
            attributes if "." in name else bare | attributes))


def test_every_public_name_is_read_outside_the_tests():
    modules = sorted(SRC.rglob("*.py"))
    readers = modules + sorted(
        path for folder in ("bench", "demos")
        for path in (ROOT / folder).rglob("*.py")
        if not path.name.startswith("test_"))
    assert len(modules) > 10 and len(readers) > len(modules) + 5
    bare, attributes = set(), set()
    for path in readers:
        module_bare, module_attributes = names_read(
            path.read_text(encoding="utf-8"),
            targets=path.is_relative_to(ROOT / "bench"))
        bare |= module_bare
        attributes |= module_attributes
    definitions = [(str(path.relative_to(SRC)), line, name)
                   for path in modules
                   for line, name in public_definitions(
                       path.read_text(encoding="utf-8"))]
    unread = unread_public_names(definitions, bare, attributes)
    assert [hit for hit in unread if hit[2] not in ALLOWED] == []
    # an allowlisted name that has gained a reader leaves the list
    assert sorted(ALLOWED) == sorted(name for _, _, name in unread)


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    pass", ["f"]),
    ("X = 1\n_Y = 2", ["X"]),
    ("x: int = 1", ["x"]),
    ("class C:\n    a: int\n    def m(self):\n        pass\n"
     "    def _p(self):\n        pass\n    k = property(lambda self: 1)",
     ["C", "C.a", "C.m", "C.k"]),
    ("class C:\n    class D:\n        def m(self):\n            pass",
     ["C", "C.D"]),
    ("def f():\n    y = 1\n    def g():\n        pass", ["f"]),
    ("class C:\n    a: int\n    def __init__(self, n):\n"
     "        self.a, (self.b, other.c) = n, (1, 2)\n        self._p = 0\n"
     "        self.d: int = 3\n        self.b += 1\n        x = self.e\n"
     "    def m(me):\n        me.f = 1\n        self.g = 2",
     ["C", "C.a", "C.m", "C.b", "C.d", "C.f"]),
])
def test_definitions_found(source, expected):
    assert [name for _, name in public_definitions(source)] == expected


@pytest.mark.parametrize("source, targets, read", [
    ("f()", False, ({"f"}, set())),
    ("a.b.c", False, ({"a"}, {"b", "c"})),
    ("x = 1", False, (set(), set())),
    ("a.b = 1", False, ({"a"}, set())),
    ("t = 'cogrl.afm:TransactionLog.__init__'", True,
     (set(), {"TransactionLog", "__init__"})),
    ("t = 'cogrl.afm:TransactionLog.__init__'", False, (set(), set())),
    ("t = 'a note: about things'", True, (set(), set())),
])
def test_reads_found(source, targets, read):
    assert names_read(source, targets) == read


DEFINITIONS = [("m.py", 1, "C"), ("m.py", 2, "C.step"), ("m.py", 3, "helper")]


def test_unread_member_found_by_its_bare_name():
    assert unread_public_names(DEFINITIONS, {"C", "helper"}, set()) == \
        [("m.py", 2, "C.step")]
    # the blind spot: any read of a ``step`` attribute counts for C.step
    assert unread_public_names(DEFINITIONS, {"C"}, {"helper", "step"}) == []


def test_local_variable_does_not_read_a_member():
    # ``step = ...; return step`` in some function reads the bare name step
    bare, attributes = names_read(
        "def f():\n    step = 1\n    return step, C, helper")
    assert bare == {"step", "C", "helper"} and attributes == set()
    assert unread_public_names(DEFINITIONS, bare, attributes) == \
        [("m.py", 2, "C.step")]
