"""No option in the library is there only for the tests.

A parameter with a default, of a function or method that a ``src/cogrl``
module defines, is set by some call in ``src/cogrl``, ``bench/`` or
``demos/``: by keyword, by enough positional arguments, or through ``*`` or
``**`` unpacking. Test files do not count. So a default that no command
overrides is not a second code path kept alive for the unit tests.

Calls are matched to definitions by the bare name called, as the
public-names lint matches reads: ``f(...)`` and ``x.f(...)`` both call
``f``, and a class's ``__init__`` is called by the class's name. A method's
first parameter takes no positional argument of an ``x.f(...)`` call. The
match misses two things: the calls of definitions that share a name are
pooled, and a function passed to another (such as ``run_tasks``) is called
where the lint cannot see.

``ALLOWED`` lists the ``name(parameter)`` options kept on purpose, each
with its reason.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cogrl"

ALLOWED: dict[str, str] = {}


def options(source: str) -> list[tuple[int, str, str, int | None]]:
    """(line, called name, parameter, position) of each parameter with a
    default of each function a module defines, at any depth. The position
    is the index of the positional argument that sets it, not counting a
    method's first parameter, or None for a keyword-only parameter."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = owner if owner and node.name == "__init__" \
                    else node.name
                positional = node.args.posonlyargs + node.args.args
                if owner and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list):
                    positional = positional[1:]
                first = len(positional) - len(node.args.defaults)
                found.extend((node.lineno, called, arg.arg, pos)
                             for pos, arg in enumerate(positional)
                             if pos >= first)
                found.extend(
                    (node.lineno, called, arg.arg, None)
                    for arg, default in zip(node.args.kwonlyargs,
                                            node.args.kw_defaults)
                    if default is not None)
                visit(node.body, None)
            else:
                visit(list(ast.iter_child_nodes(node)), owner)

    visit(ast.parse(source).body, None)
    return sorted(found)


def calls_made(source: str) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per bare name called, each call's number of positional arguments
    before any ``*`` one, the keywords it passes, and whether it unpacks
    ``*`` or ``**`` arguments."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        starred = [isinstance(a, ast.Starred) for a in node.args]
        n_positional = starred.index(True) if any(starred) else len(starred)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        unpacks = any(starred) or len(keywords) < len(node.keywords)
        calls.setdefault(name, []).append((n_positional, keywords, unpacks))
    return calls


def unset_options(definitions, calls) -> list[tuple[str, int, str]]:
    """The (module, line, ``name(parameter)``) options that no call sets."""
    return sorted(
        (module, line, f"{name}({param})")
        for module, line, name, param, pos in definitions
        if not any(unpacks or param in keywords
                   or (pos is not None and n_positional > pos)
                   for n_positional, keywords, unpacks in calls.get(name, [])))


def test_every_option_is_set_outside_the_tests():
    modules = sorted(SRC.rglob("*.py"))
    callers = modules + sorted(
        path for folder in ("bench", "demos")
        for path in (ROOT / folder).rglob("*.py")
        if not path.name.startswith("test_"))
    assert len(modules) > 10 and len(callers) > len(modules) + 5
    calls = {}
    for path in callers:
        for name, made in calls_made(path.read_text(encoding="utf-8")).items():
            calls.setdefault(name, []).extend(made)
    definitions = [(str(path.relative_to(SRC)), *option)
                   for path in modules
                   for option in options(path.read_text(encoding="utf-8"))]
    assert len(definitions) > 20
    unset = unset_options(definitions, calls)
    assert [hit for hit in unset if hit[2] not in ALLOWED] == []
    # an allowlisted option that has gained a caller leaves the list
    assert sorted(ALLOWED) == sorted(option for _, _, option in unset)


@pytest.mark.parametrize("source, expected", [
    ("def f(a, b=1, *, c=2, d):\n    pass", [("f", "b", 1), ("f", "c", None)]),
    ("def f(a, /, b=1):\n    pass", [("f", "b", 1)]),
    ("class C:\n    def __init__(self, n, ws=None):\n        pass\n"
     "    def m(self, k=0):\n        pass\n"
     "    @staticmethod\n    def s(k=0):\n        pass\n"
     "    @classmethod\n    def of(cls, k=0):\n        pass",
     [("C", "ws", 1), ("m", "k", 0), ("s", "k", 0), ("of", "k", 0)]),
    ("def f():\n    def g(x=1):\n        pass", [("g", "x", 0)]),
    ("if True:\n    def f(x=1):\n        pass", [("f", "x", 0)]),
    ("def f(a, b):\n    pass\nf = lambda x=1: x", []),
])
def test_options_found(source, expected):
    assert [option[1:] for option in options(source)] == expected


@pytest.mark.parametrize("source, expected", [
    ("f(1, 2)", {"f": [(2, set(), False)]}),
    ("x.f(1, k=2)", {"f": [(1, {"k"}, False)]}),
    ("f(1, *rest, 3)", {"f": [(1, set(), True)]}),
    ("f(**kw)", {"f": [(0, set(), True)]}),
    ("table[0](1)", {}),
])
def test_calls_found(source, expected):
    assert calls_made(source) == expected


DEFINITIONS = [("m.py", 1, "f", "b", 1), ("m.py", 1, "f", "c", None),
               ("m.py", 5, "C", "ws", 1)]


@pytest.mark.parametrize("calls, unset", [
    ({}, ["f(b)", "f(c)", "C(ws)"]),
    ({"f": [(2, set(), False)]}, ["f(c)", "C(ws)"]),
    ({"f": [(1, {"b", "c"}, False)], "C": [(2, set(), False)]}, []),
    ({"f": [(1, set(), True)], "C": [(1, set(), False)]}, ["C(ws)"]),
])
def test_unset_options(calls, unset):
    assert [option for _, _, option in unset_options(DEFINITIONS, calls)] \
        == unset
