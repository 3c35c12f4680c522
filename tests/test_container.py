import hashlib
import random
import struct

import pytest

from topkdoc import STRATEGIES, build_index, load_index, query_topk, save_index
from topkdoc.container import deserialize_index, serialize_index
from topkdoc.errors import ContainerFormatError, VersionMismatchError

from conftest import occurring_patterns, random_docs

HEADER_LEN = 6 + 7 * 8


def section_spans(blob):
    """(section id, start, end) triples of the payloads in blob."""
    spans = []
    offset = HEADER_LEN
    while offset < len(blob):
        (sec_id,) = struct.unpack_from("<Q", blob, offset)
        (length,) = struct.unpack_from("<Q", blob, offset + 8)
        spans.append((sec_id, offset, offset + 16 + length))
        offset += 16 + length
    return spans


def answers(index, docs):
    out = []
    for pattern in occurring_patterns(docs, 2):
        for k in (1, 2, 5):
            for strat in STRATEGIES:
                r = query_topk(index, pattern, k, strategy=strat)
                out.append((pattern, k, strat, tuple(r.pairs), r.stats))
    return out


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_roundtrip_preserves_everything(variant):
    docs = ["abab", "abba", "bab"]
    idx = build_index(docs, g_prime=1, k_max=4, variant=variant)
    blob = serialize_index(idx)
    back = deserialize_index(blob)
    assert back.corpus.docs == idx.corpus.docs
    assert back.corpus.text == idx.corpus.text
    assert (back.corpus.n, back.corpus.d, back.corpus.sigma) == (14, 3, 2)
    assert list(back.suffixes.sa) == list(idx.suffixes.sa)
    assert list(back.suffixes.doc_ids) == list(idx.suffixes.doc_ids)
    assert back.rank_step == idx.rank_step
    x, y = idx.sgst, back.sgst
    assert (y.g_prime, y.k_max, y.variant) == (x.g_prime, x.k_max, x.variant)
    assert y.node_count == x.node_count
    for rank in range(1, x.node_count + 1):
        assert y.node_at(rank) == x.node_at(rank)
    assert list(y.cand_off) == list(x.cand_off)
    assert list(y.cand_docs) == list(x.cand_docs)
    if variant == "light":
        assert list(y.cand_freqs) == list(x.cand_freqs)
    else:
        assert y.cand_freqs is None
    assert sorted(y.skeletons) == sorted(x.skeletons)
    for k in x.skeletons:
        assert y.skeletons[k][1] == x.skeletons[k][1]
    assert answers(back, docs) == answers(idx, docs)


def acgt_corpus(rng):
    return ["".join(rng.choice("acgt") for _ in range(200)) for _ in range(30)]


def revisions_corpus(rng):
    """Base texts of words, each followed by revisions that change a few words."""
    words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 6)))
             for _ in range(40)]
    docs = []
    for _ in range(4):
        text = [rng.choice(words) for _ in range(60)]
        for _ in range(6):
            docs.append(" ".join(text))
            text = list(text)
            for _ in range(2):
                text[rng.randrange(len(text))] = rng.choice(words)
    return docs


# sha256 of serialize_index for fixed seeded corpora, every level of each
# holding marked nodes.  A change to the container bytes needs a format
# version bump, not new digests.
FROZEN_CONTAINERS = {
    "acgt-light": (
        acgt_corpus, 211, dict(g_prime=10, k_max=16, variant="light"),
        "57a06253fbef22998d0390e59121961acb2d6c7ffc0ee80aceb61f1b6c87bdf7"),
    # Revisions repeat long stretches: lcp values reach several hundred.
    "revisions-xlight": (
        revisions_corpus, 223, dict(g_prime=8, k_max=16, variant="xlight"),
        "56434cd1c9107cce410945863ae874387756fa25decd74741da37a2d719d997a"),
    # g' = 1 samples every slot.
    "dense-light": (
        lambda rng: random_docs(rng, max_docs=6, max_total=150, sigma=2), 227,
        dict(g_prime=1, k_max=8, variant="light"),
        "29456ceef88001b6ba626704077355af98beeeb54637cf3da52b26cf5491bd80"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CONTAINERS))
def test_container_bytes_frozen(name):
    make, seed, params, digest = FROZEN_CONTAINERS[name]
    idx = build_index(make(random.Random(seed)), **params)
    assert all(idx.sgst.level_nodes(k) for k in idx.sgst.levels())
    assert hashlib.sha256(serialize_index(idx)).hexdigest() == digest


def test_rewrite_is_bit_identical():
    rng = random.Random(191)
    for variant in ("light", "xlight"):
        for g_prime in (1, 7, 400):
            docs = random_docs(rng, max_docs=6, max_total=150)
            idx = build_index(docs, g_prime=g_prime, k_max=4, variant=variant)
            blob = serialize_index(idx)
            assert serialize_index(deserialize_index(blob)) == blob


def test_rewrite_with_suffix_array_is_bit_identical():
    idx = build_index(["abab", "abba", "bab"], g_prime=7, k_max=1)
    blob = serialize_index(idx, include_suffix_array=True)
    back = deserialize_index(blob)
    assert back.store_suffix_array
    assert serialize_index(back, include_suffix_array=True) == blob
    assert len(blob) > len(serialize_index(idx))


def test_save_and_load_files(tmp_path):
    docs = ["abab", "abba", "bab"]
    idx = build_index(docs, g_prime=7, k_max=1)
    path = tmp_path / "worked.idx"
    nbytes = save_index(idx, path)
    assert path.stat().st_size == nbytes
    back = load_index(path)
    assert query_topk(back, "ab", 1).pairs == [(1, 2)]
    # Defaulted rewrite reproduces the file byte for byte.
    path2 = tmp_path / "again.idx"
    save_index(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_defaults_follow_loaded_shape(tmp_path):
    idx = build_index(["abab", "abba", "bab"], g_prime=7, k_max=1)
    with_sa = tmp_path / "with_sa.idx"
    save_index(idx, with_sa, include_suffix_array=True)
    back = load_index(with_sa)
    rewrite = tmp_path / "rewrite.idx"
    save_index(back, rewrite)  # defaults to keeping the suffix array
    assert with_sa.read_bytes() == rewrite.read_bytes()


def test_empty_sampling_roundtrip():
    idx = build_index(["abab", "abba", "bab"], g_prime=400, k_max=16)
    assert idx.sgst.is_empty
    blob = serialize_index(idx)
    back = deserialize_index(blob)
    assert back.sgst.is_empty
    assert serialize_index(back) == blob
    assert query_topk(back, "b", 2).pairs == [(1, 2), (2, 2)]


def test_unknown_sections_are_skipped():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx)
    stranger = struct.pack("<QQ", 999, 5) + b"junk!"
    spliced = blob[:HEADER_LEN] + stranger + blob[HEADER_LEN:] + stranger
    back = deserialize_index(spliced)
    assert query_topk(back, "b", 2).pairs == [(1, 2), (2, 2)]


def test_bad_magic_rejected():
    idx = build_index(["ab"], g_prime=1, k_max=1)
    blob = serialize_index(idx)
    with pytest.raises(ContainerFormatError):
        deserialize_index(b"NOPE" + blob[4:])
    with pytest.raises(ContainerFormatError):
        deserialize_index(b"")


def test_version_mismatch_rejected():
    idx = build_index(["ab"], g_prime=1, k_max=1)
    blob = serialize_index(idx)
    bumped = blob[:4] + struct.pack("<H", 2) + blob[6:]
    with pytest.raises(VersionMismatchError):
        deserialize_index(bumped)


def test_truncations_rejected():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx)
    spans = section_spans(blob)
    assert [s[0] for s in spans] == [1, 2, 3]
    with pytest.raises(ContainerFormatError):
        deserialize_index(blob[:HEADER_LEN - 3])       # inside the header
    with pytest.raises(ContainerFormatError):
        deserialize_index(blob[:HEADER_LEN + 7])       # inside a section header
    with pytest.raises(ContainerFormatError):
        deserialize_index(blob[:spans[0][2] - 2])      # inside a payload
    with pytest.raises(ContainerFormatError):
        deserialize_index(blob[:spans[1][2]])          # last section missing


def test_header_payload_disagreement_rejected():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = bytearray(serialize_index(idx))
    struct.pack_into("<Q", blob, 6, 99)                # claim n=99
    with pytest.raises(ContainerFormatError):
        deserialize_index(bytes(blob))
