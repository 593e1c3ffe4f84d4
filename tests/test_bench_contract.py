"""The benchmark's layer trace names functions of this package by path.

``perfbench/layers.py`` wraps each entry of ``LAYER_SPANS`` and
``POLY_SPANS`` by looking it up in its module (or on its class there); a
name that no longer exists makes the traced benchmark pass fail to install.
Some of them, such as ``linalg.solve``, have no caller inside the package, so
only this test notices when one is deleted or renamed.

The file is read and executed into a fresh namespace, not imported, so no
bytecode is written next to it; it imports only the standard library.
"""

import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _spans():
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["LAYER_SPANS"] + namespace["POLY_SPANS"]


@pytest.mark.parametrize("span, module_name, path", _spans())
def test_every_traced_name_exists(span, module_name, path):
    module = importlib.import_module(module_name)
    cls_name, _, attr = path.rpartition(".")
    owner = getattr(module, cls_name) if cls_name else module
    # The tracer reads the defining namespace itself, not inherited names.
    assert callable(vars(owner).get(attr)), f"{span}: {module_name}.{path} is missing"
