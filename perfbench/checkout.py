"""Locate the checkout the benchmark runs in and import topkdoc from its sources.

The benchmark always measures the library under ``src/`` of the checkout
that holds this directory, never an installed copy, and it refuses to run
when that source tree is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"        # containers and traces; ignored by git


def import_topkdoc():
    package = SRC / "topkdoc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no topkdoc sources at {package}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import topkdoc
    if Path(topkdoc.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported topkdoc from {topkdoc.__file__}, "
                         f"not from {package}")
    return topkdoc
