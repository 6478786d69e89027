"""The benchmark's span targets name functions the program still has.

``bench/spans.py`` wraps each target in place with ``Tracer.install``,
which looks the function up as ``owner.__dict__[attr]``. A traced function
that is renamed or moved would otherwise fail only in a traced bench run.
The targets are resolved here the same way but never wrapped, so the rest
of the test session runs the program unwrapped.
"""

import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()
TARGETS = [(layer, target) for layer, (targets, _) in SPANS.LAYERS.items()
           for target in targets]


@pytest.mark.parametrize("layer,target", TARGETS,
                         ids=[target for _, target in TARGETS])
def test_span_target_resolves_like_install(layer, target):
    owner, attr = SPANS._resolve(target)
    assert attr in owner.__dict__, f"{layer}: {target} is not defined there"
    assert callable(owner.__dict__[attr])
