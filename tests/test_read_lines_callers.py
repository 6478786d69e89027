"""Every TSV input goes through ``errors.read_table``.

``errors.read_lines`` decodes a text file and nothing more; the table rules
(exact header, row width, no empty cell, at least one row, no repeated key)
live in ``read_table`` on top of it. So the library reads ``read_lines``
in two places only: ``read_table`` itself and the checkpoint reader, whose
format is not a table. A new reader that called ``read_lines`` directly
would skip the table rules, and this lint fails on it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cogrl"

ALLOWED = {"errors.read_table", "neuralcore.checkpoint.load_checkpoint"}


def read_lines_uses(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each read of ``read_lines``: the bare
    name, a name it is imported as, or an attribute ``x.read_lines``. The
    function is named by its dotted path of enclosing definitions
    (``Class.method``, ``outer.inner``), or ``<module>`` at top level."""
    tree = ast.parse(source)
    names = {"read_lines"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == "read_lines" and alias.asname}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id in names
                    and isinstance(child.ctx, ast.Load)) or (
                    isinstance(child, ast.Attribute)
                    and child.attr == "read_lines"):
                found.append((child.lineno, where or "<module>"))
            visit(child, where)

    visit(tree, "")
    return found


def test_only_read_table_and_the_checkpoint_reader_read_lines():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    uses = {}
    for path in modules:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for line, where in read_lines_uses(path.read_text(encoding="utf-8")):
            uses.setdefault(f"{module}.{where}", []).append(line)
    assert set(uses) == ALLOWED, uses


@pytest.mark.parametrize("source, where", [
    ("from .errors import read_lines\ndef f(p):\n    return read_lines(p)",
     "f"),
    ("from . import errors\ndef f(p):\n    return list(errors.read_lines(p))",
     "f"),
    ("from .errors import read_lines as lines\nlines('t.tsv')", "<module>"),
    ("from .errors import read_lines\nreader = read_lines", "<module>"),
    ("def read_table(p):\n    def rows():\n        return read_lines(p)",
     "read_table.rows"),
    ("class T:\n    def load(self, p):\n        return read_lines(p)",
     "T.load"),
])
def test_detector_finds_each_use(source, where):
    assert [w for _, w in read_lines_uses(source)] == [where]


@pytest.mark.parametrize("source", [
    "from .errors import read_lines",
    "def read_lines(path):\n    yield path",
    "from .errors import read_table\ndef f(p):\n    return read_table(p)",
    "def f(read_lines):\n    read_lines = 1",
])
def test_detector_ignores_what_is_not_a_read(source):
    assert read_lines_uses(source) == []
