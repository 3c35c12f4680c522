"""Container bytes of the benchmark's workloads, pinned at three seeds.

A change that should leave the container format alone must leave these
digests alone too; a byte change needs a format version bump and new
digests.  These are format version 3's.  perfbench/workloads.py generates
the corpora and is only read, never changed.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from topkdoc import build_index
from topkdoc.container import serialize_index

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

DIGESTS = {
    ("dna-uniform", 201): "8c394de05f29f031d9087abdec405ae4ac1e177ba180f3fbbefa8b05b41733f1",
    ("dna-uniform", 202): "f41f482bf0b75ba6e0a6b7815ccffcb3a8f82d33b59e2080fa373979874f8603",
    ("dna-uniform", 203): "b1b30405ee5796e6e758f53fd3a570170c00cf7f393a2a7019bb625669460279",
    ("versioned-xlight", 201): "a232664621df2a0e04d18953173414deb1173d9bf6a548385c9a6fa39dff7b06",
    ("versioned-xlight", 202): "c033960be460158ea33b5523a6b2bb92a8ae9f502e553cb7f683413c98799167",
    ("versioned-xlight", 203): "6f98771a6ee9a5428d6b6e9f0b122cee4bc8bde8d701ac1f8f191cc6f9aaa7f9",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_container_digest(name, seed):
    wl = workloads.make(name, seed)
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    assert hashlib.sha256(serialize_index(index)).hexdigest() == DIGESTS[name, seed]
