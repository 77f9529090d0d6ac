"""Every layer the benchmark's traced runs wrap still exists.

``perfbench/layers.py`` resolves each ``(module, qualified name)`` of its
``LAYERS`` table when a traced child starts; a renamed or deleted
function would end that child with an ``AttributeError``.  This test
finds such a name before a benchmark run does.
"""

import importlib
import importlib.util
import os

import pytest

_LAYERS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module,qualname", [
    pytest.param(module, qualname, id=name)
    for name, module, qualname, _ in _layers()])
def test_layer_resolves(module, qualname):
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
