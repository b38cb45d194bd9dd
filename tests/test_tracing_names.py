"""The benchmark tracer wraps library functions by name; a rename in the
library would make ``perfbench/run.py --trace 1`` fail with KeyError or
silently zero a per-layer metric. Every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "layer, cls_name, meth",
    [
        (layer, cls_name, meth)
        for layer, classes in tracing.METHODS.items()
        for cls_name, methods in classes.items()
        for meth in methods
    ],
)
def test_traced_method_in_class_body(layer, cls_name, meth):
    cls = getattr(importlib.import_module(tracing.LAYERS[layer]), cls_name)
    assert meth in cls.__dict__


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in tracing.PRIVATE.items() for name in names],
)
def test_traced_helper_is_module_function(layer, name):
    module = importlib.import_module(tracing.LAYERS[layer])
    assert callable(getattr(module, name, None))
