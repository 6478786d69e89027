"""No unseeded randomness in the library.

Every generator in ``src/cogrl`` is built from a seed, so a rerun is
byte-identical on every code path, not only on the ones the CLI
determinism criterion runs. The check parses each module and rejects a
seed-taking constructor called without a seed (``default_rng()``,
``SeedSequence()``, a bare bit generator) and any use of numpy's legacy
global generator (``np.random.seed``, ``np.random.rand``, ...).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cogrl"

# the numpy.random names that build seeded generators; every other name in
# numpy.random is the legacy global generator or draws from it
SEEDED_API = {"default_rng", "Generator", "BitGenerator", "SeedSequence",
              "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
# the constructors that draw operating-system entropy when given no seed
SEED_TAKING = SEEDED_API - {"Generator", "BitGenerator"}


def unseeded_randomness(source: str) -> list[tuple[int, str]]:
    """(line, code) of each unseeded generator and each use of numpy's
    legacy global generator in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            legacy = any(a.name not in SEEDED_API for a in node.names)
        elif isinstance(node, ast.Attribute):
            # np.random.X, numpy.random.X
            legacy = isinstance(node.value, ast.Attribute) \
                and node.value.attr == "random" \
                and node.attr not in SEEDED_API
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            seeds = node.args + [k.value for k in node.keywords]
            legacy = name in SEED_TAKING and all(
                isinstance(s, ast.Constant) and s.value is None
                for s in seeds)
        else:
            legacy = False
        if legacy:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_library_has_no_unseeded_randomness():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = {str(path.relative_to(SRC)): hits for path in modules
             if (hits := unseeded_randomness(path.read_text(encoding="utf-8")))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "rng = np.random.default_rng()",
    "rng = np.random.default_rng(None)",
    "rng = np.random.default_rng(seed=None)",
    "rng = rng if rng is not None else np.random.default_rng()",
    "seeds = np.random.SeedSequence().spawn(3)",
    "np.random.seed(0)",
    "x = np.random.rand(3)",
    "np.random.shuffle(xs)",
    "x = numpy.random.normal()",
    "from numpy.random import default_rng\nrng = default_rng()",
    "from numpy.random import choice",
])
def test_detector_flags_unseeded_randomness(source):
    assert len(unseeded_randomness(source)) == 1


@pytest.mark.parametrize("source", [
    "rng = np.random.default_rng(seed)",
    "seeds = np.random.SeedSequence(seed).spawn(3)",
    "def f(rng: np.random.Generator):\n    return rng.random()",
    "from numpy.random import default_rng\nrng = default_rng(spec.seed)",
])
def test_detector_passes_seeded_generators(source):
    assert unseeded_randomness(source) == []
