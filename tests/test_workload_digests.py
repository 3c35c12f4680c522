"""Container bytes of the benchmark's workloads, pinned at three seeds.

A change that should leave the container format alone must leave these
digests alone too; a byte change needs a format version bump and new
digests.  These are format version 4's.  perfbench/workloads.py generates
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
    ("dna-uniform", 201): "c431116a132b02c76168f30496fa2bd64170a70d537359c50d13639abd6e6a55",
    ("dna-uniform", 202): "f1fb0fa09fec507e9f69cd8df501debdd5ae999fc751b840b4e0a9b1cf53fc44",
    ("dna-uniform", 203): "e696028949571ec46e533ada26cb81ed322dfa549cee93777aa2dcf27ce5fce4",
    ("versioned-xlight", 201): "62e5c9a0ccd75b564b157e8ae07fec1fb1bb9d0764ab2429e04da8bf472950a4",
    ("versioned-xlight", 202): "f7ceae9c5dd4d7bcb51bd3c81eb16589f453cb3388f23cb77e13da0d43dc2875",
    ("versioned-xlight", 203): "529d657de25ab37ccc2f60fec934e18d079934622f02f473aabac71b8ef1918f",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_container_digest(name, seed):
    wl = workloads.make(name, seed)
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    assert hashlib.sha256(serialize_index(index)).hexdigest() == DIGESTS[name, seed]
