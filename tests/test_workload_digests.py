"""Container bytes of the benchmark's workloads, pinned at three seeds.

A change that should leave the container format alone must leave these
digests alone too; a byte change needs a format version bump and new
digests.  These are format version 5's.  Deflated sections make them pin
zlib's output as well (zlib runtime 1.2.13 when they were taken).  Beside
each digest, the container's size is held to the format's gain on the
repetitive workload: at most 6.5 bits per symbol on versioned-xlight
(14.39 under version 4), and no more than version 4's 11.36 on
dna-uniform.  perfbench/workloads.py generates the corpora and is only
read, never changed.
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
    ("dna-uniform", 201): "a64f4fc1bf4d6ed944fa4cb2f7e7c31dad06913479f40b7b71b8be518d56c13d",
    ("dna-uniform", 202): "b9611e17112e7944f2cc43a14778fa933bb1e88e2cace7d1c090f250915d7fe1",
    ("dna-uniform", 203): "5320037240bef266e730b1cace7b7e113bb0886b277e33732524e8fafacc4db0",
    ("versioned-xlight", 201): "1b8c7b08f58a1292ee27d07048a601f44625b8fdd4fcbe4b2a76e9bdedfaffce",
    ("versioned-xlight", 202): "bd5c55cff97bfc29c7a41272d62402a07a0bb7d27963cd444960f33b46605964",
    ("versioned-xlight", 203): "6737dda35a444b29076ed5af9d581ab5b60191b91f399a9f1603b3e06c4f7d5d",
}
MAX_BITS_PER_SYMBOL = {"dna-uniform": 11.36, "versioned-xlight": 6.5}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_container_digest(name, seed):
    wl = workloads.make(name, seed)
    index = build_index(wl.docs, g_prime=wl.g_prime, k_max=wl.k_max, variant=wl.variant)
    blob = serialize_index(index)
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[name, seed]
    assert len(blob) * 8 / index.corpus.n <= MAX_BITS_PER_SYMBOL[name]
