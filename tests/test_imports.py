"""No module in the library imports a name it never uses.

A name that a ``src/cogrl`` module imports is read somewhere in that
module or listed in its ``__all__``. So a change that deletes the last use
of a name deletes its import too, and a module's imports say what it needs.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cogrl"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_library_imports_only_what_it_uses():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = {str(path.relative_to(SRC)): hits for path in modules
             if (hits := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "import os",
    "import numpy as np",
    "import os.path",
    "from .afm import Transaction",
    "from .afm import Transaction as T\nTransaction",
    "from .afm import Transaction\nTransaction = 1",
    "from .afm import Transaction\n__all__ = ['TransactionLog']",
    "from .afm import Transaction\ndef f():\n    return 'Transaction'",
])
def test_detector_flags_unused_imports(source):
    assert len(unused_imports(source)) == 1


@pytest.mark.parametrize("source", [
    "from __future__ import annotations",
    "import os\nos.sep",
    "import os.path\nos.path.join",
    "import numpy as np\nx = np.zeros(3)",
    "from .afm import Transaction as T\nT",
    "from .afm import Transaction\n__all__ = ['Transaction']",
    "from .afm import Transaction\ndef f(t: Transaction):\n    pass",
    "from . import afm\n__all__ = ('afm',)",
])
def test_detector_passes_used_imports(source):
    assert unused_imports(source) == []
