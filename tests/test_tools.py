"""Smoke tests for the measurement scripts under tools/.

The scripts are run by hand, so a renamed function or module constant of
topkdoc would otherwise go unnoticed until the next measurement.  Each
script is loaded in its own process, as a module rather than as __main__,
which runs its imports and definitions but not its measurement.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from topkdoc import engine, suffixes

ROOT = Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.name)
def test_tool_loads(path):
    loaded = subprocess.run(
        [sys.executable, "-c", "import runpy, sys; runpy.run_path(sys.argv[1], run_name='smoke')",
         str(path)], capture_output=True, text=True, timeout=120)
    assert loaded.returncode == 0, loaded.stderr


def test_code_lines_counts_the_package():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"),
                          str(ROOT / "src" / "topkdoc")],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows[-1][1] == "total" and int(rows[-1][0]) == sum(int(c) for c, _ in rows[:-1]) > 0
    assert {"engine.py", "sgst.py", "suffixes.py"} <= {name for _, name in rows}


def test_names_the_crossover_script_sets_exist():
    # slice_count_crossover.py forces each count by assigning a module
    # constant; an assignment to a name that no longer exists would time
    # the default twice, silently.
    tree = ast.parse((ROOT / "tools" / "slice_count_crossover.py").read_text(encoding="utf-8"))
    modules = {"suffixes": suffixes, "engine": engine}
    assigned = {(target.value.id, target.attr)
                for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)}
    assert assigned == {("suffixes", "SHORT_SLICE"), ("engine", "RECOUNT_SLOTS")}
    for module, name in assigned:
        assert hasattr(modules[module], name)
