"""Binary on-disk container for a built index.

Layout, all integers little-endian:

    magic   "TKDI"
    version u16
    header  7 x u64: n, d, sigma, g_prime, k_max, variant tag, rank step
            (always 64, the bits per rank directory sample)
    then sections until end of file, each:
            section id u64, payload length in bytes u64, payload

Sections, each payload a run of u64 fields unless noted:

    1 corpus        n, then the n text bytes
    2 wavelet       d, d - 1, then each internal node's bit vector
                    (length in bits, packed words)
    3 sampled tree  node count m, then m sp, m ep, m cls, m + 1 candidate
                    offsets, the candidate docs and, for the light layout,
                    their frequencies
    4 suffix array  n entries (optional, rebuilt from the text when absent)

The marked nodes are stored in preorder, sorted by (sp, -ep); they are the
whole sampled tree (see sgst).  At load the text must end with a terminator
and hold no empty document.  Unknown section ids are skipped so the format
can grow; a version mismatch or a rank step other than 64 is an error, as
is any declared length that does not match its payload, a stored suffix
array that is not a permutation of 1..n or whose suffixes' first symbols
descend somewhere (see _read_suffix_array), wavelet bitmaps whose lengths do
not follow the tree's routing, or sampled-tree nodes or candidate lists
that no build could have written (see _check_nodes and _check_candidates).
"""

import io
import struct

import numpy as np

from .bitrank import RankBitVector
from .corpus import SENTINEL, Corpus
from .engine import Index
from .errors import (ContainerFormatError, EmptyDocumentError, InconsistentIntervalsError,
                     VersionMismatchError)
from .sgst import SGST
from .suffixes import build_suffix_array, stored_suffix_index
from .wavelet import WaveletTree

MAGIC = b"TKDI"
VERSION = 2
RANK_STEP = 64      # rank directories are rebuilt at load with this step

SECTION_CORPUS = 1
SECTION_WAVELET = 2
SECTION_SGST = 3
SECTION_SUFFIX_ARRAY = 4

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_VARIANT_TAGS = {"light": 0, "xlight": 1}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}


def save_index(index: Index, path, include_suffix_array=None):
    """Serialize index to path.

    include_suffix_array defaults to whatever the index was loaded with
    (False for freshly built ones), so rewrite round-trips are
    bit-identical.
    """
    if include_suffix_array is None:
        include_suffix_array = index.store_suffix_array
    data = serialize_index(index, include_suffix_array)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_index(path) -> Index:
    with open(path, "rb") as fh:
        return deserialize_index(fh.read())


def serialize_index(index: Index, include_suffix_array=False) -> bytes:
    corpus = index.corpus
    x = index.sgst
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_U16.pack(VERSION))
    for value in (corpus.n, corpus.d, corpus.sigma, x.g_prime, x.k_max,
                  _VARIANT_TAGS[x.variant], RANK_STEP):
        out.write(_U64.pack(value))

    _write_section(out, SECTION_CORPUS, _U64.pack(corpus.n) + corpus.text)
    _write_section(out, SECTION_WAVELET, _wavelet_payload(index.wavelet))
    _write_section(out, SECTION_SGST, _sgst_payload(x))
    if include_suffix_array:
        _write_section(out, SECTION_SUFFIX_ARRAY,
                       np.asarray(index.suffixes.sa, dtype="<u8").tobytes())
    return out.getvalue()


def deserialize_index(data: bytes) -> Index:
    if len(data) < 6 + 7 * 8:
        raise ContainerFormatError("file shorter than the fixed header")
    if data[:4] != MAGIC:
        raise ContainerFormatError("bad magic; not an index container")
    (version,) = _U16.unpack_from(data, 4)
    if version != VERSION:
        raise VersionMismatchError(f"format version {version}, expected {VERSION}")
    header = struct.unpack_from("<7Q", data, 6)
    n, d, sigma, g_prime, k_max, variant_tag, step = header
    if variant_tag not in _TAG_VARIANTS:
        raise ContainerFormatError(f"unknown variant tag {variant_tag}")
    if step != RANK_STEP:
        raise ContainerFormatError(f"rank step {step}, expected {RANK_STEP}")
    variant = _TAG_VARIANTS[variant_tag]

    sections = {}
    offset = 6 + 7 * 8
    while offset < len(data):
        if offset + 16 > len(data):
            raise ContainerFormatError("truncated section header")
        (sec_id,) = _U64.unpack_from(data, offset)
        (length,) = _U64.unpack_from(data, offset + 8)
        offset += 16
        if offset + length > len(data):
            raise ContainerFormatError(f"section {sec_id} declares {length} bytes "
                                       f"but only {len(data) - offset} remain")
        if sec_id in (SECTION_CORPUS, SECTION_WAVELET, SECTION_SGST,
                      SECTION_SUFFIX_ARRAY):
            sections[sec_id] = data[offset:offset + length]
        offset += length  # unknown ids are skipped

    for required in (SECTION_CORPUS, SECTION_WAVELET, SECTION_SGST):
        if required not in sections:
            raise ContainerFormatError(f"missing required section {required}")

    corpus = _read_corpus(sections[SECTION_CORPUS], n)
    if corpus.d != d or corpus.sigma != sigma:
        raise ContainerFormatError("header does not match the stored corpus")

    if SECTION_SUFFIX_ARRAY in sections:
        suffixes = _read_suffix_array(sections[SECTION_SUFFIX_ARRAY], corpus)
        store_sa = True
    else:
        suffixes = build_suffix_array(corpus)
        store_sa = False

    wavelet = _read_wavelet(sections[SECTION_WAVELET], d, n)
    sgst = _read_sgst(sections[SECTION_SGST], n, d, g_prime, k_max, variant)
    return Index(corpus=corpus, suffixes=suffixes, wavelet=wavelet, sgst=sgst,
                 store_suffix_array=store_sa)


def _write_section(out, sec_id, payload):
    out.write(_U64.pack(sec_id))
    out.write(_U64.pack(len(payload)))
    out.write(payload)


def _bitvector_blob(bits: RankBitVector) -> bytes:
    words = np.asarray(bits.words, dtype="<u8")
    return _U64.pack(len(bits)) + words.tobytes()


class _Reader:
    def __init__(self, payload):
        self.data = payload
        self.pos = 0

    def u64(self):
        if self.pos + 8 > len(self.data):
            raise ContainerFormatError("payload ended inside an integer")
        (value,) = _U64.unpack_from(self.data, self.pos)
        self.pos += 8
        return value

    def raw(self, length):
        if self.pos + length > len(self.data):
            raise ContainerFormatError("payload ended inside a field")
        chunk = self.data[self.pos:self.pos + length]
        self.pos += length
        return chunk

    def u64_array(self, count):
        return np.frombuffer(self.raw(8 * count), dtype="<u8")

    def bitvector(self):
        nbits = self.u64()
        return RankBitVector.from_words(self.u64_array((nbits + 63) // 64), nbits)

    def done(self):
        if self.pos != len(self.data):
            raise ContainerFormatError("payload longer than its contents")


def _read_corpus(payload, n):
    r = _Reader(payload)
    if r.u64() != n:
        raise ContainerFormatError("stored text length disagrees with the header")
    text = r.raw(n)
    if text[-1:] != bytes([SENTINEL]):
        raise ContainerFormatError("stored text does not end with a terminator")
    r.done()
    try:
        return Corpus.from_text(text)
    except EmptyDocumentError as exc:
        raise ContainerFormatError("stored text holds an empty document") from exc


def _read_suffix_array(payload, corpus):
    """The stored suffix array, which must be a permutation of 1..n whose
    suffixes ascend by their first q symbols: their keys may not descend.
    That it sorts the suffixes beyond those symbols is not checked."""
    n = corpus.n
    if len(payload) != 8 * n:
        raise ContainerFormatError("suffix array section has the wrong length")
    sa = np.frombuffer(payload, dtype="<u8").astype(np.int64)   # 2**63 and up wrap below 1
    if not ((1 <= sa) & (sa <= n)).all() or np.bincount(sa).max() > 1:
        raise ContainerFormatError("stored suffix array is not a permutation of 1..n")
    s = stored_suffix_index(corpus, sa)
    if (s.keys[1:] < s.keys[:-1]).any():
        raise ContainerFormatError("stored suffix array is not sorted by its "
                                   "suffixes' first symbols")
    return s


def _wavelet_payload(w: WaveletTree) -> bytes:
    parts = [_U64.pack(w.d)]
    internal = w.internal_nodes()
    parts.append(_U64.pack(len(internal)))
    for node in internal:
        parts.append(_bitvector_blob(node.bits))
    return b"".join(parts)


def _read_wavelet(payload, d, n):
    r = _Reader(payload)
    if r.u64() != d:
        raise ContainerFormatError("wavelet alphabet disagrees with the header")
    if r.u64() != d - 1:
        raise ContainerFormatError("wavelet section has the wrong node count")
    bitmaps = [r.bitvector() for _ in range(d - 1)]
    r.done()
    try:
        return WaveletTree.from_bitmaps(bitmaps, d, n)
    except InconsistentIntervalsError as exc:
        raise ContainerFormatError(f"wavelet bitmaps disagree with the tree: {exc}") from exc


def _sgst_payload(x: SGST) -> bytes:
    parts = [_U64.pack(x.node_count)]
    for arr in (x.sp_arr, x.ep_arr, x.cls_arr, x.cand_off, x.cand_docs):
        parts.append(np.asarray(arr, dtype="<u8").tobytes())
    if x.cand_freqs is not None:
        parts.append(np.asarray(x.cand_freqs, dtype="<u8").tobytes())
    return b"".join(parts)


def _read_sgst(payload, n, d, g_prime, k_max, variant):
    r = _Reader(payload)
    node_count = r.u64()
    sp_arr = r.u64_array(node_count)
    ep_arr = r.u64_array(node_count)
    cls_arr = r.u64_array(node_count)
    cand_off = r.u64_array(node_count + 1)
    total = int(cand_off[-1])
    cand_docs = r.u64_array(total)
    cand_freqs = None if variant == "xlight" else r.u64_array(total)
    r.done()
    _check_nodes(sp_arr, ep_arr, cls_arr, n, k_max)
    _check_candidates(sp_arr, ep_arr, cls_arr, cand_off, cand_docs, cand_freqs, d)
    return SGST(g_prime, k_max, variant, sp_arr.tolist(), ep_arr.tolist(),
                cls_arr.tolist(), cand_off.tolist(), cand_docs.tolist(),
                None if cand_freqs is None else cand_freqs.tolist())


def _check_nodes(sp, ep, cls, n, k_max):
    """Reject node intervals outside 1..n, classes that are no level, and
    nodes that are not a laminar family listed once each in preorder, the
    order find_locus searches."""
    if not ((1 <= sp) & (sp <= ep) & (ep <= n)).all():
        raise ContainerFormatError("a marked node's interval lies outside 1..n")
    if not ((1 <= cls) & (cls <= k_max) & (cls & (cls - 1) == 0)).all():
        raise ContainerFormatError("a marked node's class is not a power of two "
                                   "up to k_max")
    same_sp = sp[1:] == sp[:-1]
    if (same_sp & (ep[1:] == ep[:-1])).any():
        raise ContainerFormatError("a marked node is stored twice")
    if ((sp[1:] < sp[:-1]) | (same_sp & (ep[1:] > ep[:-1]))).any():
        raise ContainerFormatError("marked nodes are not in preorder by (sp, -ep)")
    # Each node must nest in every earlier node still open at its start.
    open_ends = []
    for start, end in zip(sp.tolist(), ep.tolist()):
        while open_ends and open_ends[-1] < start:
            open_ends.pop()
        if open_ends and open_ends[-1] < end:
            raise ContainerFormatError("two marked intervals cross")
        open_ends.append(end)


def _check_candidates(sp, ep, cls, off, docs, freqs, d):
    """Reject candidate lists a query could not return as they are.

    Light nodes that span a pattern's interval exactly answer it from the
    store without a recount, so their lists must be plausible answers:
    distinct docs in 1..d, at most cls of them, frequencies in
    1..interval length, ranked by (-freq, doc).
    """
    if off[0] != 0 or not (off[1:] >= off[:-1]).all():
        raise ContainerFormatError("candidate offsets are not monotone from 0")
    counts = (off[1:] - off[:-1]).astype(np.int64)
    if not (counts <= cls).all():
        raise ContainerFormatError("a marked node stores more candidates than its class")
    if not ((1 <= docs) & (docs <= d)).all():
        raise ContainerFormatError("a candidate document lies outside 1..d")
    node = np.repeat(np.arange(len(counts)), counts)
    same = node[1:] == node[:-1]        # adjacent entries of one node
    order = np.lexsort((docs, node))
    if (same & (docs[order][1:] == docs[order][:-1])).any():
        raise ContainerFormatError("a marked node lists a document twice")
    if freqs is None:
        return
    if not ((1 <= freqs) & (freqs <= np.repeat(ep - sp + 1, counts))).all():
        raise ContainerFormatError("a candidate frequency lies outside 1..interval length")
    ranked = (freqs[:-1] > freqs[1:]) | ((freqs[:-1] == freqs[1:]) & (docs[:-1] < docs[1:]))
    if (same & ~ranked).any():
        raise ContainerFormatError("a marked node's candidates are not ranked "
                                   "by (-freq, doc)")
