"""Container bytes of the benchmark's workloads, pinned at three seeds.

A change that should leave the container format alone must leave these
digests alone too; a byte change needs a format version bump and new
digests.  perfbench/workloads.py generates the corpora and is only read,
never changed.
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
    ("dna-uniform", 201): "bc1a05b2294e3fffe490c15d395e851760ac47304c26af7321efa559ec8d3ebe",
    ("dna-uniform", 202): "43afac5b2d514384fe3759768e4a22074b2b6df8d8f83a823ac82b5df976fff6",
    ("dna-uniform", 203): "e534f6b30306f7103b063e6fed5e2a0b7e20b97355baef4f102f3686caaf5d4f",
    ("versioned-xlight", 201): "bfb6e7f3f7227e58702552b96d836f76b5734110383e4786a2f785c6e78f1f86",
    ("versioned-xlight", 202): "d32f1d902c6cffdfddd4a6bfae0d916e4b69be9b278ce6eef7277519538502a0",
    ("versioned-xlight", 203): "04cb4c710fc477e5957e61a9ec358cc038c036c55ee21126736fc1fa4a7f8dfc",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_container_digest(name, seed):
    wl = workloads.make(name, seed)
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    assert hashlib.sha256(serialize_index(index)).hexdigest() == DIGESTS[name, seed]
