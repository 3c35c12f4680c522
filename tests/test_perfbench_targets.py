"""The benchmark's tracer wraps topkdoc functions by name from outside.

A rename in the library must fail here rather than in the next traced
benchmark run.  perfbench/tracing.py is only read, never changed.
"""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
ROOT = TRACING.parent.parent


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


def test_plain_import_registers_every_traced_module():
    # The tracer looks its modules up in sys.modules after `import topkdoc`
    # alone, so the package must import each of them itself.  A fresh
    # interpreter shows what that import registers; this process has
    # imported them all already.
    targets = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]
    modules = sorted({module_name for module_name, _, _, _ in targets})
    script = ("import sys, topkdoc\n"
              "print(topkdoc.__file__)\n"
              "print(*[m for m in sys.argv[1:] if m not in sys.modules])")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script, *modules], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path},
                         cwd=ROOT).stdout.splitlines()
    assert Path(out[0]).resolve().parent == ROOT / "src" / "topkdoc"
    assert out[1:] == [""], f"not imported by `import topkdoc`: {out[1:]}"
