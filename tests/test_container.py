import hashlib
import itertools
import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from topkdoc import (STRATEGIES, build_index, candidates_of, errors, load_index,
                     pattern_interval, query_topk, save_index)
from topkdoc.container import deserialize_index, serialize_index
from topkdoc.errors import ContainerFormatError, VersionMismatchError

from conftest import (acgt_corpus, doc_frequency_map, naive_topk, occurring_patterns,
                      random_docs, revisions_corpus)

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


def sgst_fields(index, blob):
    """Byte offset in blob of each array of the sampled-tree section."""
    (start,) = [start for sec_id, start, _ in section_spans(blob) if sec_id == 3]
    x = index.sgst
    nodes, total = x.node_count, len(x.cand_docs)
    pos = start + 16 + 8
    at = {}
    for name, count in (("sp", nodes), ("ep", nodes), ("cls", nodes),
                        ("off", nodes + 1), ("docs", total), ("freqs", total)):
        at[name] = pos
        pos += 8 * count
    assert list(np.frombuffer(blob, "<u8", nodes, at["sp"])) == x.sp_arr
    assert list(np.frombuffer(blob, "<u8", total, at["docs"])) == x.cand_docs
    return at


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
    assert [back.corpus.document(i) for i in (1, 2, 3)] == [b"abab", b"abba", b"bab"]
    assert back.corpus.text == idx.corpus.text
    assert (back.corpus.n, back.corpus.d, back.corpus.sigma) == (14, 3, 2)
    assert list(back.suffixes.sa) == list(idx.suffixes.sa)
    assert list(back.suffixes.doc_ids) == list(idx.suffixes.doc_ids)
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
    for k in x.levels():
        assert y.level_nodes(k) == x.level_nodes(k)
    assert answers(back, docs) == answers(idx, docs)


# sha256 of serialize_index for fixed seeded corpora, every level of each
# holding marked nodes.  A change to the container bytes needs a format
# version bump, not new digests.
FROZEN_CONTAINERS = {
    "acgt-light": (
        acgt_corpus, 211, dict(g_prime=10, k_max=16, variant="light"),
        "5400e5fc52297fe0bf91a1966b9b5197b1c97edb47f3ba6ad9dd995eaea4d435"),
    # Revisions repeat long stretches: lcp values reach several hundred.
    "revisions-xlight": (
        revisions_corpus, 223, dict(g_prime=8, k_max=16, variant="xlight"),
        "1686e965426d6572261095cc4007305991b15378179621750b437f4b7ad64f71"),
    # g' = 1 samples every slot.
    "dense-light": (
        lambda rng: random_docs(rng, max_docs=6, max_total=150, sigma=2), 227,
        dict(g_prime=1, k_max=8, variant="light"),
        "4b6d51f0cb6904324cccb91edd0df7fa5214ca269e12ec66ee38963bf0c3026f"),
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


def test_stored_suffix_array_keeps_document_array():
    rng = random.Random(193)
    for _ in range(20):
        idx = build_index(random_docs(rng, max_docs=8, max_total=200), g_prime=3, k_max=4)
        back = deserialize_index(serialize_index(idx, include_suffix_array=True))
        assert back.store_suffix_array
        assert list(back.suffixes.sa) == list(idx.suffixes.sa)
        assert list(back.suffixes.doc_ids) == list(idx.suffixes.doc_ids)


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
    assert struct.unpack_from("<H", blob, 4) == (2,)
    for version in (1, 3):
        with pytest.raises(VersionMismatchError):
            deserialize_index(blob[:4] + struct.pack("<H", version) + blob[6:])


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
    for field, value in ((0, 99),                       # claim n=99
                         (6, 0),                        # rank step 0
                         (6, 128)):                     # any step but 64
        blob = bytearray(serialize_index(idx))
        struct.pack_into("<Q", blob, 6 + 8 * field, value)
        with pytest.raises(ContainerFormatError):
            deserialize_index(bytes(blob))


def test_corrupted_text_rejected():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx)
    text = idx.corpus.text                      # abab.abba.bab.
    start = HEADER_LEN + 16 + 8                 # first byte of the text

    def with_corpus(text):
        return blob[:start] + text + blob[start + len(text):]

    assert with_corpus(text) == blob
    empty_doc = text[:3] + b"\x00" + text[4:]   # aba..abba.bab.
    unterminated = text[:-1] + b"b"             # abab.abba.babb
    cases = [
        (with_corpus(empty_doc), "empty document"),
        (with_corpus(unterminated), "terminator"),
    ]
    for bad, reason in cases:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(bad)


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_sgst_arrays_validated_at_load(variant):
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4, variant=variant)
    blob = serialize_index(idx)
    at = sgst_fields(idx, blob)
    x, n, d = idx.sgst, idx.corpus.n, idx.corpus.d
    # A node holding at least two candidates, and the slot of its first one.
    r = next(r for r in range(x.node_count) if x.cand_off[r + 1] - x.cand_off[r] >= 2)
    c = x.cand_off[r]
    corruptions = [
        ("sp", 0, 0),                          # interval starts before 1
        ("ep", 0, n + 1),                      # interval ends after n
        ("sp", r, x.ep_arr[r] + 1),            # sp > ep
        ("cls", 0, 3),                         # not a power of two
        ("cls", 0, 2 * x.k_max),               # above k_max
        ("cls", r, 1),                         # more candidates than its class
        ("off", 0, 1),                         # offsets do not start at 0
        ("off", r + 1, x.cand_off[r + 2] + 1),  # offsets decrease
        ("docs", c, 0),                        # doc below 1
        ("docs", c, d + 1),                    # doc above d
        ("docs", c + 1, x.cand_docs[c]),       # doc listed twice in one node
    ]
    for field, i, value in corruptions:
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, at[field] + 8 * i, value)
        with pytest.raises(ContainerFormatError):
            deserialize_index(bytes(bad))


def test_candidate_store_bit_flips():
    # A single-bit flip of the light candidate store is rejected at load
    # exactly when it leaves a list that is no plausible answer: a doc
    # outside 1..d or repeated, a frequency outside 1..interval length, or
    # an order other than (-freq, doc).
    docs = random_docs(random.Random(229), max_docs=6, max_total=150, sigma=2)
    idx = build_index(docs, g_prime=1, k_max=4, variant="light")
    blob = serialize_index(idx)
    at = sgst_fields(idx, blob)
    x, d = idx.sgst, idx.corpus.d
    owner = [r for r in range(x.node_count)
             for _ in range(x.cand_off[r], x.cand_off[r + 1])]
    patterns = occurring_patterns(docs, 3)
    rejected = {"doc": 0, "freq": 0, "order": 0, "repeat": 0}
    loaded = 0
    for field in ("docs", "freqs"):
        for i, r in enumerate(owner):
            for bit in range(64):
                cand_docs, cand_freqs = list(x.cand_docs), list(x.cand_freqs)
                column = cand_docs if field == "docs" else cand_freqs
                column[i] ^= 1 << bit
                pairs = [(cand_docs[j], cand_freqs[j])
                         for j in range(x.cand_off[r], x.cand_off[r + 1])]
                keys = [(-f, doc) for doc, f in pairs]
                length = x.ep_arr[r] - x.sp_arr[r] + 1
                if not 1 <= cand_docs[i] <= d:
                    kind = "doc"
                elif not 1 <= cand_freqs[i] <= length:
                    kind = "freq"
                elif any(a >= b for a, b in zip(keys, keys[1:])):
                    kind = "order"
                elif len({doc for doc, _ in pairs}) < len(pairs):
                    kind = "repeat"
                else:
                    kind = None
                bad = bytearray(blob)
                struct.pack_into("<Q", bad, at[field] + 8 * i, column[i])
                try:
                    back = deserialize_index(bytes(bad))
                except ContainerFormatError:
                    assert kind is not None, (field, i, bit)
                    rejected[kind] += 1
                    continue
                assert kind is None, (field, i, bit, kind)
                loaded += 1
                # A plausible store answers every query without raising,
                # though not always rightly: a low-bit flip can swap in
                # another in-range doc or frequency.
                for pattern in patterns:
                    for k in (1, 2, 4):
                        for strat in STRATEGIES:
                            query_topk(back, pattern, k, strategy=strat)
    assert rejected["doc"] and rejected["freq"] and rejected["order"], rejected
    assert loaded


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_candidates_stay_ranked(variant):
    # candidates_of lists every node's first k candidates by (-freq, doc),
    # as top_documents counts them, in built and reloaded indexes alike:
    # the equal regime returns them without sorting.
    rng = random.Random(239)
    checked = ties = 0
    for docs in (revisions_corpus(rng), acgt_corpus(rng)):
        idx = build_index(docs, g_prime=4, k_max=8, variant=variant)
        back = deserialize_index(serialize_index(idx))
        s = idx.suffixes
        for index in (idx, back):
            x, w = index.sgst, index.wavelet
            for rank in range(1, x.node_count + 1):
                node = x.node_at(rank)
                for k in range(1, node.cls + 1):
                    want = s.top_documents(node.sp, node.ep, k)
                    assert candidates_of(x, node, w, k) == want
                    checked += 1
                    ties += len({f for _, f in want}) < len(want)
    assert checked > 1000 and ties > 100


def test_reversed_xlight_candidates_answer_ranked():
    # xlight stores no frequencies, so a node whose stored list is reversed
    # still loads.  Its equal-regime answers are still listed by
    # (-freq, doc) with true counts: candidates_of ranks after recounting.
    docs = acgt_corpus(random.Random(241))
    idx = build_index(docs, g_prime=10, k_max=16, variant="xlight")
    x = idx.sgst
    by_iv = {(x.sp_arr[r - 1], x.ep_arr[r - 1]): r for r in range(1, x.node_count + 1)}
    patterns = {}
    for pattern in occurring_patterns(docs, 3):
        iv = pattern_interval(idx.suffixes, idx.corpus, pattern)
        rank = by_iv.get((iv.sp, iv.ep))
        if rank and x.cand_off[rank] - x.cand_off[rank - 1] >= 4:
            patterns.setdefault(rank, []).append(pattern)
    rank = min(patterns)
    node = x.node_at(rank)
    lo, hi = x.cand_off[rank - 1], x.cand_off[rank]
    blob = bytearray(serialize_index(idx))
    at = sgst_fields(idx, blob)
    struct.pack_into(f"<{hi - lo}Q", blob, at["docs"] + 8 * lo, *x.cand_docs[lo:hi][::-1])
    back = deserialize_index(bytes(blob))
    assert back.sgst.cand_docs[lo:hi] == x.cand_docs[lo:hi][::-1]
    for pattern in patterns[rank]:
        freqs = doc_frequency_map(docs, pattern)
        for k in range(2, hi - lo + 1):
            r = query_topk(back, pattern, k)
            assert (r.stats.locus_sp, r.stats.locus_ep) == (node.sp, node.ep)
            assert len(r.pairs) == k
            assert r.pairs == sorted(r.pairs, key=lambda p: (-p[1], p[0]))
            assert all(freqs[doc] == f for doc, f in r.pairs)


def bitvector_fields(blob, pos, count):
    """Offsets of the length field of count consecutive stored bit vectors
    starting at pos, and the offset just past them."""
    out = []
    for _ in range(count):
        (nbits,) = struct.unpack_from("<Q", blob, pos)
        out.append(pos)
        pos += 8 + 8 * ((nbits + 63) // 64)
    return out, pos


def set_bit(blob, field, pos, value):
    """Set 1-based bit pos of the bit vector whose length field is at field."""
    word_at = field + 8 + 8 * ((pos - 1) // 64)
    (word,) = struct.unpack_from("<Q", blob, word_at)
    mask = 1 << ((pos - 1) % 64)
    struct.pack_into("<Q", blob, word_at, word | mask if value else word & ~mask)


def test_wavelet_bit_lengths_validated_at_load():
    # Each internal node must hold as many bits as its parent routes to it,
    # the root n; one bit more or less anywhere is rejected.
    rng = random.Random(239)
    docs = ["".join(rng.choice("ab") for _ in range(rng.randint(10, 30))) for _ in range(9)]
    idx = build_index(docs, g_prime=2, k_max=4)
    blob = serialize_index(idx)
    (start,) = [start for sec_id, start, _ in section_spans(blob) if sec_id == 2]
    d = idx.corpus.d
    fields, _ = bitvector_fields(blob, start + 16 + 16, d - 1)
    tried = 0
    for field in fields:
        (nbits,) = struct.unpack_from("<Q", blob, field)
        for delta in (-1, 1):
            if (nbits + delta + 63) // 64 != (nbits + 63) // 64:
                continue                       # would change the word count
            bad = bytearray(blob)
            struct.pack_into("<Q", bad, field, nbits + delta)
            with pytest.raises(ContainerFormatError, match="wavelet"):
                deserialize_index(bytes(bad))
            tried += 1
    assert tried >= d


def test_sampled_trees_validated_at_load():
    # The nodes must be stored once each, in preorder by (sp, -ep), and
    # nest or be disjoint: find_locus's binary search assumes all three.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=8, variant="light")
    blob = serialize_index(idx)
    x = idx.sgst
    at = sgst_fields(idx, blob)
    sp, ep = list(x.sp_arr), list(x.ep_arr)
    # Node j starts strictly inside an earlier node i that ends before n.
    i, j = next((i, j) for j in range(x.node_count) for i in range(j)
                if sp[i] < sp[j] <= ep[j] <= ep[i] < idx.corpus.n)

    def with_nodes(changes):
        bad = bytearray(blob)
        for r, (new_sp, new_ep) in changes.items():
            struct.pack_into("<Q", bad, at["sp"] + 8 * r, new_sp)
            struct.pack_into("<Q", bad, at["ep"] + 8 * r, new_ep)
        return bytes(bad)

    corruptions = [
        (with_nodes({1: (sp[2], ep[2]), 2: (sp[1], ep[1])}), "preorder"),   # swapped
        (with_nodes({2: (sp[1], ep[1])}), "twice"),                         # duplicated
        (with_nodes({j: (sp[j], ep[i] + 1)}), "cross"),                     # crossing
    ]
    for bad, reason in corruptions:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(bad)


def test_sampled_tree_section_bit_flips():
    # Every single-bit flip of the sampled-tree section is rejected at load,
    # or loads and answers every query without raising outside
    # topkdoc.errors.  A flipped class is never a power of two in
    # 1..k_max, so every class flip is rejected.  Wrong answers are
    # counted, not gated: some flips leave a plausible node or candidate
    # list that only a checksum could tell apart.
    rng = random.Random(257)
    docs = ["".join(rng.choice("abc") for _ in range(rng.randint(5, 15))) for _ in range(4)]
    idx = build_index(docs, g_prime=1, k_max=8, variant="light")
    assert idx.corpus.n <= 60
    blob = serialize_index(idx)
    (start, end), = [(start, end) for sec_id, start, end in section_spans(blob) if sec_id == 3]
    at = sgst_fields(idx, blob)
    cls_bytes = range(at["cls"], at["off"])
    patterns = ["".join(p) for length in (1, 2) for p in itertools.product("abc", repeat=length)]
    truth = {(p, k): naive_topk(docs, p, k) for p in patterns for k in (1, 3, 8)}
    reasons = Counter()
    loaded = wrong = 0
    for pos in range(start, end):
        for bit in range(8):
            bad = bytearray(blob)
            bad[pos] ^= 1 << bit
            try:
                back = deserialize_index(bytes(bad))
            except ContainerFormatError as exc:
                reasons[str(exc)] += 1
                continue
            assert pos not in cls_bytes, (pos, bit)
            loaded += 1
            for (pattern, k), want in truth.items():
                for strat in STRATEGIES:
                    try:
                        got = query_topk(back, pattern, k, strategy=strat).pairs
                    except errors.Error:
                        continue
                    freqs = doc_frequency_map(docs, pattern)
                    wrong += (sorted(f for _, f in got) != sorted(f for _, f in want)
                              or any(freqs.get(doc) != f for doc, f in got))
    assert reasons["marked nodes are not in preorder by (sp, -ep)"]
    assert reasons["two marked intervals cross"]
    assert loaded
    print(f"section 3 bit flips: {sum(reasons.values())} rejected, {loaded} loaded, "
          f"{wrong} wrong answers")


def test_stored_suffix_array_validated_at_load():
    # Entries must be a permutation of 1..n, and the keys derived from them
    # (each suffix's first q symbols) may not descend.  A swap of two
    # entries whose suffixes differ within their first q symbols is
    # rejected; one of two entries with equal keys would still load: only a
    # checksum could tell.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx, include_suffix_array=True)
    (start,) = [start for sec_id, start, _ in section_spans(blob) if sec_id == 4]
    n = idx.corpus.n
    sa = list(idx.suffixes.sa)
    for i, value in ((0, n + 50), (3, 0), (5, sa[6]), (13, 2 ** 64 - 1)):
        bad = bytearray(blob)
        struct.pack_into("<Q", bad, start + 16 + 8 * i, value)
        with pytest.raises(ContainerFormatError, match="permutation"):
            deserialize_index(bytes(bad))
    # Slot 1 holds a terminator's suffix and the last slot one starting "b".
    bad = bytearray(blob)
    struct.pack_into("<Q", bad, start + 16, sa[-1])
    struct.pack_into("<Q", bad, start + 16 + 8 * (n - 1), sa[0])
    with pytest.raises(ContainerFormatError, match="not sorted"):
        deserialize_index(bytes(bad))


def test_resident_suffix_arrays_take_twelve_bytes_per_symbol():
    # Built, or loaded with the suffix array rebuilt or stored: below 2**30
    # symbols the suffix array, its keys and the document array are int32.
    idx = build_index(acgt_corpus(random.Random(89)), g_prime=20, k_max=4)
    for include in (None, False, True):
        back = idx if include is None else deserialize_index(serialize_index(idx, include))
        s = back.suffixes
        assert s.sa.nbytes + s.keys.nbytes + s.doc_ids.nbytes <= 12 * back.corpus.n


def test_load_memory_budget():
    # At most 60 bytes per symbol of traced allocation for a load that
    # rebuilds the suffix array, on the inputs of
    # test_engine.py::test_whole_build_memory_budget.  The suffix sort is
    # most of the peak.
    rng = random.Random(5)
    revisions = revisions_corpus(rng, bases=10, revisions=20, length=220)
    copies = ["".join(rng.choice("abcdefghij") for _ in range(10_000))] * 21
    for docs in (revisions, copies):
        idx = build_index(docs, g_prime=50, k_max=16)
        blob = serialize_index(idx)
        n = idx.corpus.n
        del idx
        tracemalloc.start()
        try:
            deserialize_index(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n
