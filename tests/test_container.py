import hashlib
import itertools
import random
import struct
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from topkdoc import (STRATEGIES, build_index, candidates_of, errors, load_index,
                     pattern_interval, query_topk, save_index)
from topkdoc.container import (HEADER_BYTES, _pack, _seal, _unpack, deserialize_index,
                               read_frames, serialize_index)
from topkdoc.errors import ContainerFormatError, VersionMismatchError

from conftest import (acgt_corpus, doc_frequency_map, naive_topk, occurring_patterns,
                      random_docs, revisions_corpus)

HEADER_LEN = 6 + 7 * 8
assert HEADER_LEN == HEADER_BYTES


def section_spans(blob):
    """(section id, start, end) triples of the sections in blob, each from
    its 16-byte frame to the end of its payload."""
    spans = []
    offset = HEADER_LEN
    while offset < len(blob):
        (sec_id,) = struct.unpack_from("<Q", blob, offset)
        (length,) = struct.unpack_from("<Q", blob, offset + 8)
        spans.append((sec_id, offset, offset + 16 + length))
        offset += 16 + length
    return spans


# The fields of each section in stored order: u64 scalars, packed fields
# and, closing the wavelet section, its bit vectors.  xlight stores no freqs.
LAYOUT = {1: ("table", "codes", "ends"),
          2: ("d", "internal", "bitmaps"),
          3: ("nodes", "cands", "sp", "ep", "cls", "off", "docs", "freqs"),
          4: ("sa",)}
SCALARS = {"d", "internal", "nodes", "cands"}


def unseal(blob):
    """(header, fields) of a container: the 7 header integers, and each
    field by name, a scalar as an int, a packed field as [values, width],
    the wavelet's bit vectors as a list of [length in bits, word bytes]."""
    header = list(struct.unpack_from("<7Q", blob, 6))
    fields = {}
    for sec_id, start, end in read_frames(blob)[1]:
        payload, pos = blob[start:end - 4], 0
        for name in LAYOUT[sec_id]:
            if pos == len(payload):
                break
            if name in SCALARS:
                (fields[name],) = struct.unpack_from("<Q", payload, pos)
                pos += 8
            elif name == "bitmaps":
                fields[name] = []
                while pos < len(payload):
                    (nbits,) = struct.unpack_from("<Q", payload, pos)
                    words = payload[pos + 8:pos + 8 + 8 * ((nbits + 63) // 64)]
                    fields[name].append([nbits, words])
                    pos += 8 + len(words)
            else:
                count, width = struct.unpack_from("<QB", payload, pos)
                nbytes = (count * width + 7) // 8
                values = _unpack(payload[pos + 9:pos + 9 + nbytes], count, width)
                fields[name] = [values.tolist(), width]
                pos += 9 + nbytes
    return header, fields


def reseal(header, fields):
    """The container unseal took apart, as edited, every CRC recomputed."""
    sections = []
    for sec_id, names in LAYOUT.items():
        parts = []
        for name in names:
            if name not in fields:
                continue
            value = fields[name]
            if name in SCALARS:
                parts.append(struct.pack("<Q", value))
            elif name == "bitmaps":
                parts += [struct.pack("<Q", nbits) + words for nbits, words in value]
            else:
                values, width = value
                assert all(0 <= v < 1 << width for v in values), (name, width)
                parts.append(struct.pack("<QB", len(values), width) + _pack(values, width))
        if parts:
            sections.append((sec_id, b"".join(parts)))
    return _seal(struct.pack("<4sH7Q", b"TKDI", 3, *header), sections)


def edited(blob, edit):
    """blob with edit(header, fields) applied to its decoded fields, resealed."""
    header, fields = unseal(blob)
    edit(header, fields)
    return reseal(header, fields)


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
# version bump, not new digests; these are format version 3's.
FROZEN_CONTAINERS = {
    "acgt-light": (
        acgt_corpus, 211, dict(g_prime=10, k_max=16, variant="light"),
        "aff2ac782689990539294d857e1333a4802ce420c0dd641a4b74dcea0f65e05f"),
    # Revisions repeat long stretches: lcp values reach several hundred.
    "revisions-xlight": (
        revisions_corpus, 223, dict(g_prime=8, k_max=16, variant="xlight"),
        "227d21c66ed93ecf783974e06813084bcaab445dee776d60a86b60ebce6a6048"),
    # g' = 1 samples every slot.
    "dense-light": (
        lambda rng: random_docs(rng, max_docs=6, max_total=150, sigma=2), 227,
        dict(g_prime=1, k_max=8, variant="light"),
        "006e97a702539cad23db2ec0dea11fa4ddc6a844b42085125f521e1a3eec575e"),
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


@pytest.mark.parametrize("width", [0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 57, 63])
def test_pack_round_trips_at_every_width(width):
    rng = np.random.default_rng(width)
    for count in (0, 1, 7, 8, 9, 64, 1001):
        values = rng.integers(0, 1 << width, count, dtype=np.int64, endpoint=False) \
            if width else np.zeros(count, dtype=np.int64)
        values[:1] = (1 << width) - 1                   # the widest value
        buf = _pack(values, width)
        assert len(buf) == (count * width + 7) // 8
        back = _unpack(buf, count, width)
        assert back.dtype == np.int64 and back.tolist() == values.tolist()


def _n_docs(n):
    """Three documents whose text, terminators included, is n symbols long."""
    return ["ab" * 10, "ba" * 10, ("abb" * n)[:n - 43]]


# Corpora at the format's edge widths: (documents, build parameters, the
# field widths they must store).
EDGE_SHAPES = {
    "sigma 1": (["aaa", "a", "aa"], dict(g_prime=1, k_max=2), {"codes": 0}),
    "sigma 255": ([bytes(range(1, 256)), bytes(range(255, 0, -1)), b"\x01\xff"],
                  dict(g_prime=3, k_max=4), {"codes": 8}),
    "one document": (["abracadabra"], dict(g_prime=1, k_max=4), {"docs": 1}),
    "n 2**6 - 1": (_n_docs(63), dict(g_prime=2, k_max=4), {"ends": 6, "sp": 6}),
    "n 2**6": (_n_docs(64), dict(g_prime=2, k_max=4), {"ends": 7, "sp": 7}),
    "n 2**6 + 1": (_n_docs(65), dict(g_prime=2, k_max=4), {"ends": 7, "sp": 7}),
    "k_max 1": (["abab", "abba", "bab"], dict(g_prime=1, k_max=1), {"cls": 0}),
    "no marked node": (["abab", "abba", "bab"], dict(g_prime=400, k_max=16), {"sp": 4}),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("variant", ["light", "xlight"])
@pytest.mark.parametrize("include_sa", [False, True])
def test_edge_shapes_round_trip(shape, variant, include_sa):
    docs, params, widths = EDGE_SHAPES[shape]
    idx = build_index(docs, variant=variant, **params)
    blob = serialize_index(idx, include_sa)
    header, fields = unseal(blob)
    assert {name: fields[name][1] for name in widths} == widths
    assert reseal(header, fields) == blob
    if shape == "no marked node":
        assert fields["sp"][0] == [] and idx.sgst.is_empty
    back = deserialize_index(blob)
    assert serialize_index(back, include_sa) == blob
    assert back.store_suffix_array == include_sa
    assert (back.corpus.text, back.corpus.ends) == (idx.corpus.text, idx.corpus.ends)
    assert (back.corpus.n, back.corpus.d, back.corpus.sigma) == \
        (idx.corpus.n, idx.corpus.d, idx.corpus.sigma)
    assert list(back.suffixes.sa) == list(idx.suffixes.sa)
    assert answers(back, docs) == answers(idx, docs)


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_whole_container_fuzz(variant):
    # Every single-bit flip of a small container, header included, and
    # every cut of it short is rejected with a topkdoc error or loads and
    # answers every query exactly as the intact container does.  Only a
    # flip that makes the optional suffix-array section's id unknown, or a
    # cut just before that section, loads: the suffix array is rebuilt.
    rng = random.Random(263)
    docs = ["".join(rng.choice("abc") for _ in range(rng.randint(4, 10))) for _ in range(4)]
    idx = build_index(docs, g_prime=2, k_max=4, variant=variant)
    blob = serialize_index(idx, include_suffix_array=True)
    queries = [(p, k, s) for p in occurring_patterns(docs, 2) for k in (1, 3) for s in STRATEGIES]
    want = [query_topk(idx, *q).pairs for q in queries]
    for (pattern, k, _), pairs in zip(queries, want):
        assert sorted(f for _, f in pairs) == sorted(f for _, f in naive_topk(docs, pattern, k))
    (sa_start,) = [start for sec_id, start, _ in section_spans(blob) if sec_id == 4]

    def outcome(bad):
        try:
            back = deserialize_index(bad)
        except errors.Error:
            return "rejected"
        assert [query_topk(back, *q).pairs for q in queries] == want
        return "loaded"

    began = time.perf_counter()
    flips = Counter()
    for pos in range(len(blob)):
        for bit in range(8):
            bad = bytearray(blob)
            bad[pos] ^= 1 << bit
            result = outcome(bytes(bad))
            flips[result] += 1
            if result == "loaded":
                assert sa_start <= pos < sa_start + 8, (pos, bit)
    cuts = Counter(outcome(blob[:length]) for length in range(len(blob)))
    elapsed = time.perf_counter() - began
    assert flips["rejected"] + flips["loaded"] == 8 * len(blob)
    assert flips["loaded"] and cuts["loaded"] == 1 and outcome(blob) == "loaded"
    assert elapsed < 5, elapsed
    print(f"{variant}: {len(blob)} bytes; bit flips {dict(flips)}; cuts {dict(cuts)}; "
          f"{elapsed:.2f} s")


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
    assert struct.unpack_from("<H", blob, 4) == (3,)
    for version in (1, 2, 4):
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
    # Every section is resealed, so each case reaches the check it names,
    # not the CRC.
    blob = serialize_index(build_index(["abab", "abba", "bab"], g_prime=1, k_max=4))
    for field, value, reason in ((0, 99, "count or width"),      # claim n=99
                                 (1, 4, "count or width"),       # claim d=4
                                 (2, 3, "count or width"),       # claim sigma=3
                                 (3, 0, "g_prime"),              # g' = 0
                                 (4, 3, "k_max"),                # k_max no power of two
                                 (6, 0, "rank step"),            # rank step 0
                                 (6, 128, "rank step")):         # any step but 64
        def edit(header, fields):
            header[field] = value
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(edited(blob, edit))


def test_corrupted_text_rejected():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx)
    header, fields = unseal(blob)
    assert fields["ends"] == [[5, 10, 14], 4]               # abab.abba.bab.
    assert bytes(fields["table"][0]) == b"ab"

    def with_ends(ends):
        return reseal(header, dict(fields, ends=[ends, 4]))

    cases = [
        (with_ends([5, 6, 14]), "empty document"),          # abab..bba.bab. in effect
        (with_ends([1, 10, 14]), "empty document"),         # the first document empty
        (with_ends([5, 10, 13]), "terminator"),             # abab.abba.babb
    ]
    for bad, reason in cases:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(bad)


def _set_codes(old, new):
    def edit(header, fields):
        codes = fields["codes"][0]
        fields["codes"][0] = [new if c == old else c for c in codes]
    return edit


def _set_field(name, values=None, width=None, append=None):
    def edit(header, fields):
        field = fields[name]
        if values is not None:
            field[0] = values
        if append is not None:
            field[0] = field[0] + [append]
        if width is not None:
            field[1] = width
    return edit


# Each case writes one packed corpus field as no build would, then reseals.
PACKED_CORPUS_CASES = {
    # sigma = 3 codes take 2 bits, so a code of 3 fits and is outside the table.
    "code outside table": (_set_codes(2, 3), "outside the symbol table"),
    "unused symbol": (_set_codes(2, 1), "lacks"),
    "table descends": (_set_field("table", values=list(b"acb")), "strictly ascending"),
    "table repeats": (_set_field("table", values=list(b"aac")), "strictly ascending"),
    "table holds 0x00": (_set_field("table", values=[0, 98, 99]), "above 0x00"),
    "ends step 1": (_set_field("ends", values=[4, 5, 12]), "empty document"),
    "ends short of n": (_set_field("ends", values=[4, 8, 11]), "terminator"),
    "ends too wide": (_set_field("ends", width=5), "count or width"),
    "codes too narrow": (_set_field("codes", width=1, values=[0] * 9), "count or width"),
    "codes too many": (_set_field("codes", append=0), "count or width"),
    "table too long": (_set_field("table", append=100), "count or width"),
}


@pytest.mark.parametrize("case", sorted(PACKED_CORPUS_CASES))
def test_packed_corpus_fields_validated_at_load(case):
    blob = serialize_index(build_index(["abc", "cab", "bca"], g_prime=1, k_max=2))
    header, fields = unseal(blob)
    assert fields["table"] == [list(b"abc"), 8] and fields["ends"] == [[4, 8, 12], 4]
    assert fields["codes"][1] == 2
    edit, reason = PACKED_CORPUS_CASES[case]
    with pytest.raises(ContainerFormatError, match=reason):
        deserialize_index(edited(blob, edit))


def set_value(field, i, value):
    """An edit for `edited` that sets value i of a packed field."""
    def edit(header, fields):
        fields[field][0][i] = value
    return edit


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_sgst_arrays_validated_at_load(variant):
    # Each field is rewritten and the container resealed, so every case
    # reaches the check it names, not the CRC.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4, variant=variant)
    blob = serialize_index(idx)
    x, n = idx.sgst, idx.corpus.n
    assert unseal(blob)[1]["sp"] == [x.sp_arr, 4]
    # A node holding at least two candidates, and the slot of its first one.
    r = next(r for r in range(x.node_count) if x.cand_off[r + 1] - x.cand_off[r] >= 2)
    c = x.cand_off[r]
    last = x.node_count
    assert x.cand_off[last] > x.cand_off[last - 1]
    corruptions = [
        ("sp", 0, 0, "outside 1..n"),                           # starts before 1
        ("ep", 0, n + 1, "outside 1..n"),                       # ends after n
        ("sp", r, x.ep_arr[r] + 1, "outside 1..n"),             # sp > ep
        ("cls", 0, 3, "outside 1..k_max"),                      # class 8 > k_max
        ("cls", r, 0, "more candidates than its class"),        # class 1
        ("off", 0, 1, "offsets"),                               # do not start at 0
        ("off", r + 1, x.cand_off[r + 2] + 1, "offsets"),        # decrease
        ("off", last, x.cand_off[last] - 1, "offsets"),         # end short of c
        ("docs", c, 0, "outside 1..d"),                         # doc below 1
        ("docs", c + 1, x.cand_docs[c], "twice"),               # listed twice in one node
    ]
    for field, i, value, reason in corruptions:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(edited(blob, set_value(field, i, value)))
    # d = 3 documents take 2 bits, so no doc above d fits; d = 4 take 3.
    four = serialize_index(build_index(["abab", "abba", "bab", "ab"], g_prime=1, k_max=4,
                                       variant=variant))
    with pytest.raises(ContainerFormatError, match="outside 1..d"):
        deserialize_index(edited(four, set_value("docs", 0, 5)))


def test_candidate_store_bit_flips():
    # A single-bit flip of a light candidate's stored doc or frequency,
    # resealed so that the CRC passes, is rejected at load exactly when it
    # leaves a list that is no plausible answer: a doc outside 1..d or
    # repeated, a frequency outside 1..interval length, or an order other
    # than (-freq, doc).
    docs = random_docs(random.Random(229), max_docs=6, max_total=150, sigma=2)
    idx = build_index(docs, g_prime=1, k_max=4, variant="light")
    blob = serialize_index(idx)
    header, fields = unseal(blob)
    x, d = idx.sgst, idx.corpus.d
    assert fields["docs"][0] == x.cand_docs and fields["freqs"][0] == x.cand_freqs
    owner = [r for r in range(x.node_count)
             for _ in range(x.cand_off[r], x.cand_off[r + 1])]
    patterns = occurring_patterns(docs, 3)
    rejected = {"doc": 0, "freq": 0, "order": 0, "repeat": 0}
    loaded = 0
    for field in ("docs", "freqs"):
        for i, r in enumerate(owner):
            for bit in range(fields[field][1]):
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
                bad = dict(fields, docs=[cand_docs, fields["docs"][1]],
                           freqs=[cand_freqs, fields["freqs"][1]])
                try:
                    back = deserialize_index(reseal(header, bad))
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

    def reverse(header, fields):
        fields["docs"][0][lo:hi] = x.cand_docs[lo:hi][::-1]

    back = deserialize_index(edited(serialize_index(idx), reverse))
    assert back.sgst.cand_docs[lo:hi] == x.cand_docs[lo:hi][::-1]
    for pattern in patterns[rank]:
        freqs = doc_frequency_map(docs, pattern)
        for k in range(2, hi - lo + 1):
            r = query_topk(back, pattern, k)
            assert (r.stats.locus_sp, r.stats.locus_ep) == (node.sp, node.ep)
            assert len(r.pairs) == k
            assert r.pairs == sorted(r.pairs, key=lambda p: (-p[1], p[0]))
            assert all(freqs[doc] == f for doc, f in r.pairs)


def test_wavelet_bit_lengths_validated_at_load():
    # Each internal node must hold as many bits as its parent routes to it,
    # the root n; one bit more or less anywhere is rejected.
    rng = random.Random(239)
    docs = ["".join(rng.choice("ab") for _ in range(rng.randint(10, 30))) for _ in range(9)]
    idx = build_index(docs, g_prime=2, k_max=4)
    blob = serialize_index(idx)
    header, fields = unseal(blob)
    d = idx.corpus.d
    assert len(fields["bitmaps"]) == d - 1
    tried = 0
    for node, (nbits, words) in enumerate(fields["bitmaps"]):
        for delta in (-1, 1):
            if (nbits + delta + 63) // 64 != (nbits + 63) // 64:
                continue                       # would change the word count
            bitmaps = list(fields["bitmaps"])
            bitmaps[node] = [nbits + delta, words]
            with pytest.raises(ContainerFormatError, match="wavelet"):
                deserialize_index(reseal(header, dict(fields, bitmaps=bitmaps)))
            tried += 1
    assert tried >= d


def test_sampled_trees_validated_at_load():
    # The nodes must be stored once each, in preorder by (sp, -ep), and
    # nest or be disjoint: find_locus's binary search assumes all three.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=8, variant="light")
    blob = serialize_index(idx)
    x = idx.sgst
    sp, ep = list(x.sp_arr), list(x.ep_arr)
    # Node j starts strictly inside an earlier node i that ends before n.
    i, j = next((i, j) for j in range(x.node_count) for i in range(j)
                if sp[i] < sp[j] <= ep[j] <= ep[i] < idx.corpus.n)

    def with_nodes(changes):
        def edit(header, fields):
            for r, (new_sp, new_ep) in changes.items():
                fields["sp"][0][r] = new_sp
                fields["ep"][0][r] = new_ep
        return edited(blob, edit)

    corruptions = [
        (with_nodes({1: (sp[2], ep[2]), 2: (sp[1], ep[1])}), "preorder"),   # swapped
        (with_nodes({2: (sp[1], ep[1])}), "twice"),                         # duplicated
        (with_nodes({j: (sp[j], ep[i] + 1)}), "cross"),                     # crossing
    ]
    for bad, reason in corruptions:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(bad)


def test_sampled_tree_section_bit_flips():
    # Every single-bit flip of the sampled-tree section is rejected at
    # load, so none answers wrongly.  Without the CRC some flips left a
    # plausible node or candidate list that loaded and answered wrongly.
    rng = random.Random(257)
    docs = ["".join(rng.choice("abc") for _ in range(rng.randint(5, 15))) for _ in range(4)]
    idx = build_index(docs, g_prime=1, k_max=8, variant="light")
    assert idx.corpus.n <= 60
    blob = serialize_index(idx)
    (start, end), = [(start, end) for sec_id, start, end in section_spans(blob) if sec_id == 3]
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
    assert wrong == 0
    assert loaded == 0 and reasons["section 3 fails its CRC"] > 8 * (end - start - 16)
    print(f"section 3 bit flips: {sum(reasons.values())} rejected, {loaded} loaded, "
          f"{wrong} wrong answers")


def test_stored_suffix_array_validated_at_load():
    # Entries must be a permutation of 1..n, and the keys derived from them
    # (each suffix's first q symbols) may not descend.  A swap of two
    # entries whose suffixes differ within their first q symbols is
    # rejected; a swap of two entries with equal keys would still load,
    # but the CRC rejects it unless the section is resealed.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx, include_suffix_array=True)
    n = idx.corpus.n
    sa = list(idx.suffixes.sa)
    assert unseal(blob)[1]["sa"] == [sa, 4]
    for i, value in ((0, n + 1), (3, 0), (5, sa[6]), (13, 15)):
        with pytest.raises(ContainerFormatError, match="permutation"):
            deserialize_index(edited(blob, set_value("sa", i, value)))
    # Slot 1 holds a terminator's suffix and the last slot one starting "b".

    def swap(header, fields):
        values = fields["sa"][0]
        values[0], values[-1] = values[-1], values[0]

    with pytest.raises(ContainerFormatError, match="not sorted"):
        deserialize_index(edited(blob, swap))


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
