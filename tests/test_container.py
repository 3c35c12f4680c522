import hashlib
import itertools
import random
import struct
import time
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest

from topkdoc import (STRATEGIES, build_index, candidates_of, errors, find_locus, ingest,
                     load_index, pattern_interval, query_topk, save_index)
from topkdoc.container import (HEADER_BYTES, VERSION, Header, _corpus_payload, _pack,
                               _read_corpus, _read_sgst, _read_wavelet, _seal, _sgst_payload,
                               _unpack, _wavelet_payload, deserialize_index, read_frames,
                               serialize_index)
from topkdoc.errors import ContainerFormatError, VersionMismatchError
from topkdoc.sgst import most_marked
from topkdoc.wavelet import _Node, level_sizes

from conftest import (acgt_corpus, doc_frequency_map, document_path_calls, naive_topk,
                      occurring_patterns, random_docs, revisions_corpus)

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


# The fields of each section's byte-aligned form in stored order: u64
# scalars, packed fields and the wavelet section's levels.  xlight stores
# no freqs.
LAYOUT = {1: ("table", "codes", "ends"),
          2: ("levels",),
          3: ("nodes", "cands", "sp", "ep", "cls", "off", "docs", "freqs"),
          4: ("sa",)}
SCALARS = {"nodes", "cands"}


def unseal(blob):
    """(header, fields) of a container: the 7 header integers, and each
    field by name, a scalar as an int, a packed field as [values, width],
    the wavelet's levels as a list of [length in bits, packed bytes]; under
    "method", each section's method byte by section id."""
    header = list(struct.unpack_from("<7Q", blob, 6))
    fields = {"method": {}}
    for sec_id, start, end in read_frames(blob)[1]:
        method, payload, pos = blob[start], blob[start + 1:end - 4], 0
        fields["method"][sec_id] = method
        if method == 1:
            payload = zlib.decompress(payload)
        for name in LAYOUT[sec_id]:
            if pos == len(payload):
                break
            if name in SCALARS:
                (fields[name],) = struct.unpack_from("<Q", payload, pos)
                pos += 8
            elif name == "levels":
                fields[name] = []
                while pos < len(payload):
                    nbits, width = struct.unpack_from("<QB", payload, pos)
                    assert width == 1
                    data = payload[pos + 9:pos + 9 + (nbits + 7) // 8]
                    fields[name].append([nbits, data])
                    pos += 9 + len(data)
            else:
                count, width = struct.unpack_from("<QB", payload, pos)
                nbytes = (count * width + 7) // 8
                values = _unpack(payload[pos + 9:pos + 9 + nbytes], count, width)
                fields[name] = [values.tolist(), width]
                pos += 9 + nbytes
    return header, fields


def reseal(header, fields):
    """The container unseal took apart, as edited, each section written by
    the method it had, every CRC recomputed."""
    sections = []
    for sec_id, names in LAYOUT.items():
        if sec_id not in fields["method"]:
            continue
        parts = []
        for name in names:
            if name not in fields:
                continue
            value = fields[name]
            if name in SCALARS:
                parts.append(struct.pack("<Q", value))
            elif name == "levels":
                parts += [struct.pack("<QB", nbits, 1) + data for nbits, data in value]
            else:
                values, width = value
                assert all(0 <= v < 1 << width for v in values), (name, width)
                parts.append(struct.pack("<QB", len(values), width) + _pack(values, width))
        payload = b"".join(parts)
        method = fields["method"][sec_id]
        sections.append((sec_id, bytes([method]) + (zlib.compress(payload) if method else payload)))
    return _seal(struct.pack("<4sH7Q", b"TKDI", 5, *header), sections)


def level_bits(fields):
    """The wavelet's levels as arrays of 0/1 bytes, top first."""
    return [np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits, bitorder="little")
            for nbits, data in fields["levels"]]


def with_levels(fields, levels):
    """fields with the wavelet's levels replaced by these 0/1 arrays."""
    return dict(fields, levels=[[len(bits), np.packbits(bits, bitorder="little").tobytes()]
                                for bits in levels])


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
# version bump, not new digests; these are format version 5's.
FROZEN_CONTAINERS = {
    "acgt-light": (
        acgt_corpus, 211, dict(g_prime=10, k_max=16, variant="light"),
        "147a7436ce11b3989722ccee331f65c3135f1719be9e083738a6ef67af8da2d1"),
    # Revisions repeat long stretches: lcp values reach several hundred.
    "revisions-xlight": (
        revisions_corpus, 223, dict(g_prime=8, k_max=16, variant="xlight"),
        "a6d7db3cf026ddbbc3a2eba5744cc9f3d30bd507ad387b5292676182d474aa5b"),
    # g' = 1 samples every slot.
    "dense-light": (
        lambda rng: random_docs(rng, max_docs=6, max_total=150, sigma=2), 227,
        dict(g_prime=1, k_max=8, variant="light"),
        "34f0c29a7fe67d328545723e3acd7ae9c96ca62dea989ece8485fc06fc9a228a"),
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
    assert idx.sgst.node_count == 0
    blob = serialize_index(idx)
    back = deserialize_index(blob)
    assert back.sgst.node_count == 0
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
    if fields["method"][1]:         # a deflated corpus holds its codes one byte each
        widths = {name: 8 if name == "codes" else width for name, width in widths.items()}
    assert {name: fields[name][1] for name in widths} == widths
    assert reseal(header, fields) == blob
    if shape == "no marked node":
        assert fields["sp"][0] == [] and idx.sgst.node_count == 0
    back = deserialize_index(blob)
    assert serialize_index(back, include_sa) == blob
    assert back.store_suffix_array == include_sa
    assert back.corpus.text == idx.corpus.text
    assert np.array_equal(back.corpus.ends, idx.corpus.ends)
    assert (back.corpus.n, back.corpus.d, back.corpus.sigma) == \
        (idx.corpus.n, idx.corpus.d, idx.corpus.sigma)
    assert back.corpus.alphabet == idx.corpus.alphabet == bytes(sorted(set(idx.corpus.text) - {0}))
    assert list(back.suffixes.sa) == list(idx.suffixes.sa)
    assert answers(back, docs) == answers(idx, docs)


def fuzz(docs, idx, blob, label):
    """Every single-bit flip of blob, a container of idx over docs with a
    suffix-array section, header included, is rejected with a topkdoc
    error, and so is every cut of it short but one: the cut just before
    the suffix-array section loads, rebuilds the suffix array and answers
    every query exactly as the intact container does.  All within 5 s."""
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
            flips[outcome(bytes(bad))] += 1
    cuts = Counter(outcome(blob[:length]) for length in range(len(blob)))
    elapsed = time.perf_counter() - began
    assert flips["rejected"] == 8 * len(blob) and flips["loaded"] == 0
    assert cuts["loaded"] == 1 and outcome(blob[:sa_start]) == "loaded"
    assert outcome(blob) == "loaded"
    assert elapsed < 5, elapsed
    print(f"{label}: {len(blob)} bytes; bit flips {dict(flips)}; cuts {dict(cuts)}; "
          f"{elapsed:.2f} s")


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_whole_container_fuzz(variant):
    rng = random.Random(263)
    docs = ["".join(rng.choice("abc") for _ in range(rng.randint(4, 10))) for _ in range(4)]
    idx = build_index(docs, g_prime=2, k_max=4, variant=variant)
    fuzz(docs, idx, serialize_index(idx, include_suffix_array=True), variant)


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_whole_deflated_container_fuzz(variant):
    # Eight copies of one short text: the writer deflates the corpus, the
    # wavelet tree and the sampled tree.  A packed suffix array deflates
    # longer than it is stored at this size, so the container is resealed
    # with it deflated as well, which a load accepts: every section then
    # inflates, and the flips and cuts reach each inflate.
    docs = ["abababab"] * 8
    idx = build_index(docs, g_prime=2, k_max=4, variant=variant)
    header, fields = unseal(serialize_index(idx, include_suffix_array=True))
    assert fields["method"] == {1: 1, 2: 1, 3: 1, 4: 0}
    fields["method"][4] = 1
    blob = reseal(header, fields)
    back = deserialize_index(blob)
    assert np.array_equal(back.suffixes.sa, idx.suffixes.sa)
    fuzz(docs, idx, blob, f"deflated {variant}")


def with_payload(blob, sec_id, payload):
    """blob with section sec_id's payload, method byte included, replaced,
    every CRC recomputed."""
    sections = [(i, blob[start:end - 4]) for i, start, end in read_frames(blob)[1]]
    return _seal(blob[:HEADER_LEN], [(i, payload if i == sec_id else p) for i, p in sections])


def aligned_forms(blob):
    """Each section's byte-aligned form, inflated when deflated, by id."""
    return {sec_id: zlib.decompress(blob[start + 1:end - 4]) if blob[start] else
            blob[start + 1:end - 4] for sec_id, start, end in read_frames(blob)[1]}


@pytest.mark.parametrize("sec_id", [1, 2, 3, 4])
def test_deflate_bomb_rejected_within_a_memory_bound(sec_id):
    # A section whose stream holds its real byte-aligned form and then 64
    # MiB of zeros is inflated no further than its layout: the load parses
    # the form and rejects the rest, holding far less than the bomb.  The
    # stream is compressed in chunks, so the test never holds it inflated.
    docs = ["abababab"] * 8
    blob = serialize_index(build_index(docs, g_prime=2, k_max=4), include_suffix_array=True)
    form = aligned_forms(blob)[sec_id]
    packer, chunk = zlib.compressobj(), bytes(1 << 20)
    stream = [packer.compress(form)] + [packer.compress(chunk) for _ in range(64)]
    bomb = with_payload(blob, sec_id, b"\1" + b"".join(stream) + packer.flush())
    del stream
    assert len(bomb) < len(chunk)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerFormatError, match=f"section {sec_id}'s stream does not end"):
            deserialize_index(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _hostile_streams():
    """(name, edit of a container's payloads by section id, reason): each
    writes one section as no writer would."""
    def cut(payloads):
        payloads[1] = payloads[1][:-3]             # into the Adler-32 trailer
    def trailing(payloads):
        payloads[1] += b"\0"
    def cut_midway(payloads):
        payloads[2] = payloads[2][:len(payloads[2]) // 2]
    def method_2(payloads):
        payloads[3] = b"\2" + payloads[3][1:]
    def garbage(payloads):
        payloads[3] = b"\1" + bytes(range(7, 40))
    return [("stream cut short", cut, "does not end"),
            ("stream cut midway", cut_midway, "payload ended inside a field"),
            ("bytes after the stream", trailing, "bytes after its deflate stream"),
            ("method byte 2", method_2, "method 2"),
            ("no zlib stream", garbage, "does not inflate")]


@pytest.mark.parametrize("case", _hostile_streams(), ids=lambda case: case[0])
def test_hostile_deflate_streams_rejected(case):
    _, edit, reason = case
    blob = serialize_index(build_index(["abababab"] * 8, g_prime=2, k_max=4))
    payloads = {sec_id: blob[start:end - 4] for sec_id, start, end in read_frames(blob)[1]}
    assert {sec_id: p[0] for sec_id, p in payloads.items()} == {1: 1, 2: 1, 3: 1}
    edit(payloads)
    with pytest.raises(ContainerFormatError, match=reason):
        deserialize_index(_seal(blob[:HEADER_LEN], sorted(payloads.items())))


def test_corpus_codes_take_the_width_of_their_method():
    # A stored corpus must hold its codes at their minimal width, a deflated
    # one at width 8: each written the other way is rejected.
    blob = serialize_index(build_index(["abc", "cab", "bca"], g_prime=1, k_max=2))
    header, fields = unseal(blob)
    assert fields["method"][1] == 1 and fields["codes"][1] == 8
    for method, width in ((0, 8), (1, 2), (0, 2)):
        bad = dict(fields, codes=[fields["codes"][0], width],
                   method={**fields["method"], 1: method})
        if (method, width) == (0, 2):               # as a writer would store it
            assert query_topk(deserialize_index(reseal(header, bad)), "ab", 2).pairs == \
                [(1, 1), (2, 1)]
            continue
        with pytest.raises(ContainerFormatError, match="count or width"):
            deserialize_index(reseal(header, bad))


def _hostile_counts():
    """(name, section the bomb replaces, edit of the header giving the
    bytes the bomb's stream opens with, reason): each claims counts that no
    text of the header's n holds."""
    def nodes(header):
        return struct.pack("<QQ", 1 << 40, 0)

    def candidates(header):
        return struct.pack("<QQ", 1, most_marked(header[0], header[3], header[4])[1] + 1)

    def d(header):
        header[1] = 1 << 40
        return b""

    def sigma(header):
        header[2] = 1 << 40
        return b""

    return [("sampled-tree nodes", 3, nodes, "writes at most"),
            ("sampled-tree candidates", 3, candidates, "writes at most"),
            ("header d", 1, d, "not one a text of n = 72 holds"),
            ("header sigma", 1, sigma, "not one a text of n = 72 holds")]


@pytest.mark.parametrize("case", _hostile_counts(), ids=lambda case: case[0])
def test_hostile_counts_do_not_size_an_inflate(case):
    # The header's d and sigma size the corpus's inflate, and the sampled
    # tree's two leading counts its own: counts above what a text of n
    # symbols holds (d above n / 2, sigma above 255, more than
    # sgst.most_marked) are rejected before they do.  Here they stand in
    # front of 64 MiB of zeros, and the load holds far less than the bomb.
    _, sec_id, edit, reason = case
    blob = serialize_index(build_index(["abababab"] * 8, g_prime=2, k_max=4))
    header = list(struct.unpack_from("<7Q", blob, 6))
    packer, chunk = zlib.compressobj(), bytes(1 << 20)
    stream = [packer.compress(edit(header))] + [packer.compress(chunk) for _ in range(64)]
    sections = [(i, blob[start:end - 4]) for i, start, end in read_frames(blob)[1]]
    sections[sec_id - 1] = (sec_id, b"\1" + b"".join(stream) + packer.flush())
    del stream
    bomb = _seal(struct.pack("<4sH7Q", b"TKDI", 5, *header), sections)
    assert len(bomb) < len(chunk)
    tracemalloc.start()
    try:
        with pytest.raises(ContainerFormatError, match=reason):
            deserialize_index(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_sampled_tree_counts_are_held_to_most_marked():
    # A stored sampled tree is held to the same counts as a deflated one,
    # and counts at the bound pass on to the fields they size.
    blob = serialize_index(build_index(["abababab"] * 8, g_prime=2, k_max=4))
    header, fields = unseal(blob)
    most_nodes, most_cands = most_marked(header[0], header[3], header[4])
    for method in (0, 1):
        fields["method"][3] = method
        for nodes, cands, reason in ((most_nodes + 1, 0, "writes at most"),
                                     (1, most_cands + 1, "writes at most"),
                                     (most_nodes, most_cands, "count or width")):
            with pytest.raises(ContainerFormatError, match=reason):
                deserialize_index(reseal(header, dict(fields, nodes=nodes, cands=cands)))


def test_unknown_sections_are_rejected():
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=4)
    blob = serialize_index(idx)
    stranger = struct.pack("<QQ", 999, 5) + b"junk!"
    for spliced in (blob[:HEADER_LEN] + stranger + blob[HEADER_LEN:], blob + stranger):
        with pytest.raises(ContainerFormatError, match="section 999 at frame"):
            deserialize_index(spliced)


def _unwritten_layouts():
    """Section ids of CRC-valid layouts the writer never writes: 1 and 2
    swapped, an unknown id 5 before, between or after the sections, each
    section repeated, 4 before 3, and only 1 and 2."""
    layouts = [(2, 1, 3), (1, 2, 4, 3), (1, 2)]
    for ids in ((1, 2, 3), (1, 2, 3, 4)):
        layouts += [ids[:at] + (5,) + ids[at:] for at in range(len(ids) + 1)]
        layouts += [ids[:at + 1] + ids[at:] for at in range(len(ids))]
    return layouts


@pytest.mark.parametrize("ids", _unwritten_layouts(), ids=lambda ids: "-".join(map(str, ids)))
def test_layouts_the_writer_never_writes_are_rejected(ids):
    # Each container is sealed with valid CRCs around the real payloads;
    # the unknown id carries a copy of the corpus payload.
    idx = build_index([b"abab", b"abba", b"bab"], g_prime=1)
    blob = serialize_index(idx, include_suffix_array=True)
    payloads = {sec_id: blob[start:end - 4] for sec_id, start, end in read_frames(blob)[1]}
    payloads[5] = payloads[1]
    with pytest.raises(ContainerFormatError, match="at frame|missing required section 3"):
        deserialize_index(_seal(blob[:HEADER_LEN], [(i, payloads[i]) for i in ids]))


def test_every_wavelet_level_samples_every_word():
    # The tree's walks call _rank1_pair, which reads one rank sample per
    # word and does not check the step.
    idx = build_index(["abab", "abba", "bab", "aab", "bb"], g_prime=1)
    back = deserialize_index(serialize_index(idx))
    for tree in (idx.wavelet, back.wavelet):
        assert len(tree.levels) == 3
        assert [level.sample_step for level in tree.levels] == [64] * 3


def test_repeated_sections_rejected():
    # A second, CRC-valid copy of a known section is rejected, not read in
    # place of the first: here another corpus of the same shape, which
    # would answer "ab" with [(1, 1), (2, 1), (3, 1)].
    idx = build_index([b"abab", b"abba", b"bab"], g_prime=1)
    for include_sa in (False, True):
        blob = serialize_index(idx, include_sa)
        head = blob[:HEADER_LEN]
        sections = [(sec_id, blob[start:end - 4]) for sec_id, start, end in read_frames(blob)[1]]
        assert query_topk(deserialize_index(_seal(head, sections)), b"ab", 3).pairs \
            == [(1, 2), (2, 1), (3, 1)]
        other = _corpus_payload(ingest([b"baba", b"abba", b"bab"]))
        for repeat in [(1, other), *sections]:
            with pytest.raises(ContainerFormatError, match=f"section {repeat[0]} at frame"):
                deserialize_index(_seal(head, sections + [repeat]))


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
    assert struct.unpack_from("<H", blob, 4) == (VERSION,) == (5,)
    for version in (1, 2, 3, 4, VERSION + 1):
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
    assert unseal(blob)[1]["method"] == {1: 1, 2: 1, 3: 1}
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
    assert fields["method"][1] == 1
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
    # A code of 3 fits the codes' width and lies outside the sigma = 3 table.
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
    assert fields["method"][1] == 1 and fields["codes"][1] == 8     # deflated: a byte a code
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
    assert unseal(blob)[1]["sp"] == [x.sp_arr.tolist(), 4]
    assert unseal(blob)[1]["method"][3] == 1
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
    assert fields["method"][3] == 1
    assert fields["docs"][0] == x.cand_docs.tolist()
    assert fields["freqs"][0] == x.cand_freqs.tolist()
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
    # the root n; one bit more or less in any node is rejected.
    rng = random.Random(239)
    docs = ["".join(rng.choice("ab") for _ in range(rng.randint(10, 30))) for _ in range(9)]
    idx = build_index(docs, g_prime=2, k_max=4)
    blob = serialize_index(idx)
    header, fields = unseal(blob)
    assert fields["method"][2] == 1
    d = idx.corpus.d
    levels = level_bits(fields)
    assert len(levels) == (d - 1).bit_length()
    tried = 0
    for node in idx.wavelet.internal_nodes():
        end = node.offset + node.size
        bits = levels[node.level]
        for bad in (np.delete(bits, end - 1), np.insert(bits, end, 0)):
            changed = list(levels)
            changed[node.level] = bad
            with pytest.raises(ContainerFormatError, match="wavelet"):
                deserialize_index(reseal(header, with_levels(fields, changed)))
            tried += 1
    assert tried >= d


def swapped_bitmaps(blob):
    """Containers that swap one 1 and one 0 inside one node's bits, which
    keeps every routing length, resealed: two swaps per node that holds
    both bits."""
    header, fields = unseal(blob)
    levels = level_bits(fields)
    for node in deserialize_index(blob).wavelet.internal_nodes():
        bits = levels[node.level]
        ones = node.offset + np.flatnonzero(bits[node.offset:node.offset + node.size])
        zeros = node.offset + np.flatnonzero(bits[node.offset:node.offset + node.size] == 0)
        if not (len(ones) and len(zeros)):
            continue
        for one, zero in ((ones[0], zeros[-1]), (ones[-1], zeros[0])):
            bad = bits.copy()
            bad[one], bad[zero] = 0, 1
            changed = list(levels)
            changed[node.level] = bad
            yield reseal(header, with_levels(fields, changed))


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_document_path_proves_the_wavelet_bitmaps(variant, monkeypatch):
    # A load that rebuilds the suffix array through the document array
    # checks the result, which only the true suffix array passes, so a
    # CRC-valid bitmap edit that keeps the routing lengths is rejected.  A
    # load that sorts the whole text trusts the bitmaps: such an edit loads.
    calls = document_path_calls(monkeypatch)
    repetitive = revisions_corpus(random.Random(241))
    idx = build_index(repetitive, g_prime=4, k_max=4, variant=variant)
    blob = serialize_index(idx)
    assert answers(deserialize_index(blob), repetitive) == answers(idx, repetitive)
    assert len(calls) == 1
    rejected = 0
    for bad in swapped_bitmaps(blob):
        del calls[:]
        with pytest.raises(ContainerFormatError, match="wavelet bitmaps disagree"):
            deserialize_index(bad)
        assert len(calls) == 1
        rejected += 1
    assert rejected >= 2 * (idx.corpus.d - 1)

    uniform = acgt_corpus(random.Random(241))
    blob = serialize_index(build_index(uniform, g_prime=4, k_max=4, variant=variant))
    del calls[:]
    loaded = 0
    for bad in (blob, *swapped_bitmaps(blob)):
        deserialize_index(bad)
        loaded += 1
    assert calls == [] and loaded > 2 * (len(uniform) - 1)


def test_document_counts_checked_against_their_lengths():
    # Another corpus's wavelet section, of the same n and d, routes its
    # bits consistently but deals document 1 one slot too few.
    base = revisions_corpus(random.Random(251))
    idx = build_index(base, g_prime=4, k_max=4)
    other = build_index([base[0][:-1], base[1] + "a", *base[2:]], g_prime=4, k_max=4)
    assert other.corpus.n == idx.corpus.n
    header, fields = unseal(serialize_index(idx))
    assert fields["method"][2] == 1
    bad = reseal(header, dict(fields, levels=unseal(serialize_index(other))[1]["levels"]))
    with pytest.raises(ContainerFormatError, match="ids 1..2 holds .* ones"):
        deserialize_index(bad)


@pytest.mark.parametrize("variant, include_sa", [("xlight", False), ("light", True)])
def test_document_lengths_checked_on_every_load_path(variant, include_sa, monkeypatch):
    # The same splice into a container that takes the sort path, or that
    # stores its suffix array: each node's size and ones count come from
    # the document lengths, so it is rejected before any sort.
    calls = document_path_calls(monkeypatch)
    base = acgt_corpus(random.Random(251))
    other = [base[0][:-1], base[1] + "a", *base[2:]]
    blob = serialize_index(build_index(base, g_prime=4, k_max=4, variant=variant), include_sa)
    deserialize_index(blob)
    assert calls == []
    header, fields = unseal(blob)
    spliced = unseal(serialize_index(build_index(other, g_prime=4, k_max=4)))[1]["levels"]
    with pytest.raises(ContainerFormatError, match="ids 1..2 holds .* ones"):
        deserialize_index(reseal(header, dict(fields, levels=spliced)))


def abc_corpus(rng):
    """Twelve random abc documents of 50 to 200 symbols."""
    return ["".join(rng.choice("abc") for _ in range(rng.randint(50, 200)))
            for _ in range(12)]


def test_stored_suffix_array_trusts_the_bit_order():
    # A container is trusted with the order of the bits inside a node when
    # it stores its suffix array: the sortedness check proves the array,
    # not the tree, so a swap that keeps each node's ones count loads, even
    # on text whose rebuild would take the document path and reject it.
    repetitive = revisions_corpus(random.Random(241))
    idx = build_index(repetitive, g_prime=4, k_max=4)
    loaded = 0
    for bad in swapped_bitmaps(serialize_index(idx, include_suffix_array=True)):
        deserialize_index(bad)
        loaded += 1
    assert loaded >= 2 * (idx.corpus.d - 1)


def test_lowered_light_frequency_loads():
    # A container is trusted with the light layout's frequencies: they are
    # checked for range and rank, not recounted.  A node's last frequency
    # lowered by 1 keeps both, loads, and is returned as stored.
    idx = build_index(abc_corpus(random.Random(253)), g_prime=2, k_max=4, variant="light")
    blob = serialize_index(idx)
    x = idx.sgst
    loaded = 0
    for rank in range(1, x.node_count + 1):
        last = x.cand_off[rank] - 1
        if last < x.cand_off[rank - 1] or x.cand_freqs[last] < 2:
            continue
        back = deserialize_index(edited(blob, set_value("freqs", last, x.cand_freqs[last] - 1)))
        got = candidates_of(back.sgst, back.sgst.node_at(rank), back.wavelet)
        assert got[-1] == (x.cand_docs[last], x.cand_freqs[last] - 1)
        loaded += 1
    assert loaded > 200


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_shrunk_childless_marked_node_loads(variant):
    # A container is trusted with the marked intervals: they are checked
    # for order and nesting, not marked again.  A node with none nested in
    # it keeps both with its ep one smaller, and loads as stored.
    idx = build_index(abc_corpus(random.Random(257)), g_prime=2, k_max=4, variant=variant)
    blob = serialize_index(idx)
    x = idx.sgst
    sp, ep, off = x.sp_arr, x.ep_arr, x.cand_off
    loaded = 0
    for j in range(x.node_count):
        childless = j + 1 == x.node_count or sp[j + 1] > ep[j]
        if not childless or sp[j] == ep[j]:
            continue
        freqs = x.cand_freqs[off[j]:off[j + 1]] if x.cand_freqs else []
        if max(freqs, default=0) > ep[j] - sp[j]:
            continue                           # a frequency above the new length
        back = deserialize_index(edited(blob, set_value("ep", j, ep[j] - 1)))
        assert (back.sgst.sp_arr[j], back.sgst.ep_arr[j]) == (sp[j], ep[j] - 1)
        loaded += 1
    assert loaded > 200


def test_sampled_trees_validated_at_load():
    # The nodes must be stored once each, in preorder by (sp, -ep), and
    # nest or be disjoint: find_locus's binary search assumes all three.
    idx = build_index(["abab", "abba", "bab"], g_prime=1, k_max=8, variant="light")
    blob = serialize_index(idx)
    assert unseal(blob)[1]["method"][3] == 1
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


def test_stored_suffix_array_sorts_beyond_its_keys():
    # Keys cover a suffix's first q symbols; two adjacent slots with equal
    # keys swapped keep the keys ascending, yet answer longer patterns with
    # wrong frequencies.  Every such swap must be rejected.
    rng = random.Random(8)
    docs = ["".join(rng.choice("ab") for _ in range(60)) for _ in range(6)]
    idx = build_index(docs, g_prime=4, k_max=4)
    blob = serialize_index(idx, include_suffix_array=True)
    keys = idx.suffixes.keys
    assert 31 // idx.suffixes.width == 15
    ties = np.flatnonzero(keys[1:] == keys[:-1])
    assert len(ties) == 6

    def swap(j):
        def edit(header, fields):
            values = fields["sa"][0]
            values[j], values[j + 1] = values[j + 1], values[j]
        return edit

    for j in ties.tolist():
        with pytest.raises(ContainerFormatError, match="not sorted"):
            deserialize_index(edited(blob, swap(j)))


def test_oversized_header_rejected_before_allocating():
    # A 229-byte container with valid CRCs, sigma = d = 1 and n = 2**40,
    # every section stored: its n - 1 codes take 0 bits, so unpacking them
    # would allocate n bytes.
    n = 2**40

    def field(count, width, data=b""):
        return struct.pack("<QB", count, width) + data

    corpus = b"\0" + field(1, 8, b"a") + field(n - 1, 0) + field(1, 41, n.to_bytes(6, "little"))
    wavelet = b"\0"
    sgst = (b"\0" + struct.pack("<QQ", 0, 0) + field(0, 41) + field(0, 41) + field(0, 0)
            + field(1, 0) + field(0, 1) + field(0, 41))
    blob = _seal(struct.pack("<4sH7Q", b"TKDI", 5, n, 1, 1, 1, 1, 0, 64),
                 [(1, corpus), (2, wavelet), (3, sgst)])
    assert len(blob) == 229
    tracemalloc.start()
    try:
        with pytest.raises(ContainerFormatError, match="exceeds"):
            deserialize_index(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resident_suffix_arrays_take_twelve_bytes_per_symbol():
    # Built, or loaded with the suffix array rebuilt or stored: below 2**30
    # symbols the suffix array, its keys and the document array are int32.
    idx = build_index(acgt_corpus(random.Random(89)), g_prime=20, k_max=4)
    for include in (None, False, True):
        back = idx if include is None else deserialize_index(serialize_index(idx, include))
        s = back.suffixes
        assert s.sa.nbytes + s.keys.nbytes + s.doc_ids.nbytes <= 12 * back.corpus.n


def test_load_memory_budget():
    # Traced allocation per symbol for a load that rebuilds the suffix
    # array, at most 35 bytes, or checks a stored one, at most 34, on the
    # inputs of test_engine.py::test_whole_build_memory_budget.  They peak
    # at 33.07 and 32.19 bytes when rebuilding and 31.35 when checking.  A
    # document path that allocated sa before decoding the document order
    # peaked at 35.74 on the revisions.  The suffix sort is most of the peak.
    rng = random.Random(5)
    revisions = revisions_corpus(rng, bases=10, revisions=20, length=220)
    copies = ["".join(rng.choice("abcdefghij") for _ in range(10_000))] * 21
    for docs, include_sa in itertools.product((revisions, copies), (False, True)):
        idx = build_index(docs, g_prime=50, k_max=16)
        blob = serialize_index(idx, include_sa)
        n = idx.corpus.n
        del idx
        tracemalloc.start()
        try:
            deserialize_index(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (34 if include_sa else 35) * n, peak / n


def test_prefix_table_takes_half_a_byte_per_symbol():
    # The suffix index's table of first slots holds at most n // 8 + 1 int32
    # entries, on the corpora of test_load_memory_budget, built and loaded
    # with the suffix array rebuilt or stored.
    rng = random.Random(5)
    revisions = revisions_corpus(rng, bases=10, revisions=20, length=220)
    copies = ["".join(rng.choice("abcdefghij") for _ in range(10_000))] * 21
    for docs in (revisions, copies):
        idx = build_index(docs, g_prime=50, k_max=16)
        for include in (None, False, True):
            back = idx if include is None else deserialize_index(serialize_index(idx, include))
            n = back.corpus.n
            assert back.suffixes.first.nbytes <= n // 2 + 8, back.suffixes.first.nbytes / n


def test_loaded_wavelet_tree_memory():
    # A loaded tree keeps each level once: its u64 words and an int64 rank
    # sample per word, 2 bits per stored bit, about 2 bytes per symbol over
    # 8 levels.
    rng = random.Random(5)
    idx = build_index(revisions_corpus(rng, bases=10, revisions=20, length=220),
                      g_prime=50, k_max=16)
    corpus, payload = idx.corpus, _wavelet_payload(idx.wavelet)
    assert (corpus.n, corpus.d, idx.wavelet.height) == (215_259, 200, 8)
    del idx
    tracemalloc.start()
    try:
        wavelet = _read_wavelet(payload, corpus, level_sizes(corpus.lengths))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert wavelet.n == corpus.n
    assert retained <= 3 * corpus.n, retained / corpus.n


def retained_bytes(read):
    """(result of read(), bytes of traced allocation it still holds)."""
    tracemalloc.start()
    try:
        result = read()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_loaded_sampled_tree_memory(variant):
    # A loaded sampled tree keeps its six arrays and each level's keys and
    # ranks once, as int64 arrays: about 1 byte per symbol here.  Lists of
    # ints and (sp, -ep) tuples took 3.81 (light) and 3.58 (xlight).
    rng = random.Random(5)
    idx = build_index(revisions_corpus(rng, bases=10, revisions=20, length=220),
                      g_prime=50, k_max=16, variant=variant)
    corpus, x = idx.corpus, idx.sgst
    assert (corpus.n, x.node_count) == (215_259, 2_322)
    h = Header(corpus.n, corpus.d, corpus.sigma, x.g_prime, x.k_max, variant)
    payload = _sgst_payload(x, corpus.n, corpus.d)
    del idx, x
    sgst, retained = retained_bytes(lambda: _read_sgst(payload, h))
    assert sgst.node_count == 2_322
    assert retained <= 1.5 * corpus.n, retained / corpus.n


def test_loaded_corpus_memory():
    # A loaded corpus keeps its text and an int64 end per document: 2.6
    # bytes per symbol on 2**16 documents of four symbols.  A tuple of ends
    # took 9.00.
    codes = np.random.default_rng(263).integers(0, 4, size=(1 << 16, 4))
    corpus = ingest(row.tobytes() for row in np.frombuffer(b"acgt", dtype=np.uint8)[codes])
    payload = _corpus_payload(corpus)
    back, retained = retained_bytes(
        lambda: _read_corpus(payload, corpus.n, corpus.d, corpus.sigma))
    assert back == corpus and hash(back) == hash(corpus)
    assert retained <= 3 * corpus.n, retained / corpus.n


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_sampled_tree_reads_plain_ints_from_read_only_arrays(variant):
    # The sampled tree and the document ends are read-only int64 arrays:
    # what a query reads from them is a plain int, never a numpy scalar,
    # and a write to them raises, on a built index and on a loaded one.
    docs = revisions_corpus(random.Random(241))
    built = build_index(docs, g_prime=4, k_max=16, variant=variant)
    loaded = deserialize_index(serialize_index(built))
    patterns = occurring_patterns(docs, 3)
    for idx in (built, loaded):
        x, ints = idx.sgst, []
        for k in x.levels():
            for node in x.level_nodes(k):
                ints += [node.rank, node.sp, node.ep, node.cls]
                ints += [v for pair in candidates_of(x, node, idx.wavelet) for v in pair]
                found = find_locus(x, k, node.sp, node.ep)
                ints += [found.rank, found.sp, found.ep, found.cls]
        node = x.node_at(x.node_count)
        ints += [node.rank, node.sp, node.ep, node.cls]
        located = [r for r in (query_topk(idx, p, 3, strategy=s) for p in patterns
                               for s in STRATEGIES) if r.stats.locus_found]
        equal = set()
        for r in located:
            iv = pattern_interval(idx.suffixes, idx.corpus, r.pattern)
            equal.add((r.stats.locus_sp, r.stats.locus_ep) == (iv.sp, iv.ep))
            ints += [r.stats.locus_sp, r.stats.locus_ep] + [v for pair in r.pairs for v in pair]
        assert equal == {True, False}           # the equal and the flank regime
        assert len(ints) > 1000
        assert {type(v) for v in ints} == {int}

        stored = [x.sp_arr, x.ep_arr, x.cls_arr, x.cand_off, x.cand_docs]
        stored += [] if x.cand_freqs is None else [x.cand_freqs]
        stored += [a for k in x.levels() for a in x.by_level[k]]
        for arr in stored:
            assert arr.obj.dtype == np.int64 and not arr.obj.flags.writeable
            with pytest.raises(TypeError):
                arr[0] = 0
            with pytest.raises(ValueError):
                np.asarray(arr)[0] = 0
        assert idx.corpus.ends.dtype == np.int64
        with pytest.raises(ValueError):
            idx.corpus.ends[0] = 0
    assert loaded.corpus == built.corpus and hash(loaded.corpus) == hash(built.corpus)


def reachable_buffers(root):
    """Every numpy array and memoryview reachable from root through the
    attributes and slots of topkdoc objects, lists, tuples and dicts, and
    the arrays under the memoryviews, by id."""
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (np.ndarray, memoryview)):
            found[id(obj)] = obj
            if isinstance(obj, memoryview):
                stack.append(obj.obj)
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif type(obj).__module__.startswith("topkdoc"):
            stack += vars(obj).values() if hasattr(obj, "__dict__") else []
            stack += [getattr(obj, name) for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ()) if hasattr(obj, name)]
    return found


@pytest.mark.parametrize("variant", ["light", "xlight"])
def test_every_reachable_array_is_read_only(variant, monkeypatch):
    # No numpy array or memoryview that an index holds can be written: not
    # the corpus's, the suffix index's, the wavelet tree's levels and
    # layout, nor the sampled tree's and its levels', on a built index and
    # on loads by the sort path, the document path and a stored suffix array.
    calls = document_path_calls(monkeypatch)
    for docs, document_path in ((acgt_corpus(random.Random(263)), False),
                                (revisions_corpus(random.Random(263)), True)):
        built = build_index(docs, g_prime=4, k_max=8, variant=variant)
        rebuilt = deserialize_index(serialize_index(built))
        assert len(calls) == document_path
        del calls[:]
        stored = deserialize_index(serialize_index(built, include_suffix_array=True))
        assert calls == []
        for idx in (built, rebuilt, stored):
            s, w, x = idx.suffixes, idx.wavelet, idx.sgst
            found = reachable_buffers(idx)
            held = [idx.corpus.ends, s.sa, s.doc_ids, s.keys, s.first, *s._views, w._cum,
                    *w._offsets, *w._before, *(level.words for level in w.levels),
                    x.sp_arr, x.cand_docs, *(a for k in x.levels() for a in x.by_level[k])]
            assert {id(arr) for arr in held} <= found.keys()
            for buf in found.values():
                assert (buf.readonly if isinstance(buf, memoryview)
                        else not buf.flags.writeable), buf
            assert any(isinstance(v, memoryview) and v.obj is s.first for v in s._views)
            for arr in (s.sa, s.doc_ids, s.keys, s.first):
                with pytest.raises(ValueError):
                    arr[0] = 0
            assert query_topk(idx, docs[0][:3], 3).pairs == naive_topk(docs, docs[0][:3], 3)
        assert built == built and isinstance(built == rebuilt, bool)
        assert built != rebuilt and len({built, rebuilt, built}) == 2
        assert hash(built.suffixes) != hash(rebuilt.suffixes)


def test_many_documents_round_trip_in_time(tmp_path, monkeypatch):
    # 2**16 documents of four acgt symbols (n = 327,680) build, save, load
    # and answer one query within 2 s, about four times what they take on a
    # 2-vCPU VM.  A tree of one object per node, each stored with its own
    # length, took 4.1 s there.
    # Only the node handles a walk reaches are made: the two roots and the
    # paths of the documents the query recounts, far fewer than d - 1.
    made = []
    init = _Node.__init__

    def counting(node, *args):
        made.append(args[1:])
        init(node, *args)

    monkeypatch.setattr(_Node, "__init__", counting)
    d = 1 << 16
    codes = np.random.default_rng(263).integers(0, 4, size=(d, 4))
    docs = [row.tobytes() for row in np.frombuffer(b"acgt", dtype=np.uint8)[codes]]
    path = tmp_path / "many.idx"
    began = time.perf_counter()
    save_index(build_index(docs, g_prime=50, k_max=16, variant="xlight"), path)
    back = load_index(path)
    result = query_topk(back, "acg", 5)
    elapsed = time.perf_counter() - began
    assert back.corpus.d == d and back.wavelet.height == 16
    assert result.stats.locus_found
    assert sorted(f for _, f in result.pairs) == sorted(f for _, f in naive_topk(docs, "acg", 5))
    assert elapsed < 2, elapsed
    assert len(made) <= 2 + 5 * back.wavelet.height
    print(f"{d} documents: {elapsed:.2f} s, {len(made)} node handles made")
