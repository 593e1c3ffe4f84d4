"""The benchmark's layer trace names functions of this package by path.

``perfbench/layers.py`` wraps each entry of ``LAYER_SPANS`` and
``POLY_SPANS`` by looking it up in its module (or on its class there); a
name that no longer exists makes the traced benchmark pass fail to install.
Two of them, ``linalg.nullspace`` and ``linalg.solve``, have no caller inside
the package and are kept only for the trace, so only this test notices when
one is deleted or renamed.

The file is read and executed into a fresh namespace, not imported, so no
bytecode is written next to it; it imports only the standard library.

The tracer wraps a function in the ``confal`` modules loaded when it is
installed, and the CLI loads each stage only when a subcommand runs it.  The
benchmark therefore runs every command once untraced before tracing it.  The
last two tests here run that order in a fresh interpreter: it sees the
stages, and a ``classify`` run reaches ``linalg.rref``.
"""

import importlib
import json
import subprocess
import sys
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


TRACED_RUN = """
import contextlib, io, json, sys
namespace = {"__name__": "perfbench_layers"}
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1], "exec"), namespace)
import confal.cli
argv = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    assert confal.cli.main(argv) == 0
    tracer = namespace["Tracer"](keep_spans=True)
    tracer.install(namespace["LAYER_SPANS"])
    try:
        assert confal.cli.main(argv) == 0
    finally:
        tracer.uninstall()
print(json.dumps(tracer.calls))
"""


def _traced_calls(argv):
    """Span name -> calls of one traced run of ``argv``, in a fresh interpreter.

    The same order as perfbench/run.py: untraced call, install, traced call.
    """
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(LAYERS), json.dumps(argv)],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_a_traced_call_after_an_untraced_one_sees_the_stages():
    calls = _traced_calls(["verify-algebra", "--alg", "block", "--p", "1", "--window", "2"])
    assert {"cli.main", "conformal.check_jacobi", "certificates.table_hash"} <= set(calls)


def test_a_traced_classify_feeds_rows_to_rref():
    # perfbench/run.py:344-346 divides by the rows fed to linalg.rref, so a
    # traced pass stops when no command reaches rref.  classify's kernel
    # dimensions are its route there, until ROADMAP item 4 drops the
    # linalg spans.
    calls = _traced_calls(["classify", "--bn", "2", "--D", "2"])
    assert calls.get("linalg.rref", 0) >= 1
