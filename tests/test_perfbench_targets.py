"""The benchmark's tracer wraps topkdoc functions by name from outside.

A rename in the library must fail here rather than in the next traced
benchmark run.  perfbench/tracing.py is only read, never changed.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]
    assert targets
    for module_name, path, _, _ in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            # The tracer patches methods in the defining class's own dict.
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), (module_name, path)
        else:
            assert callable(getattr(module, path, None)), (module_name, path)
