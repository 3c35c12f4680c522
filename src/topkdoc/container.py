"""Binary on-disk container for a built index, format version 3.

Layout, all integers little-endian:

    magic   "TKDI"
    version u16
    header  7 x u64: n, d, sigma, g_prime, k_max, variant tag, rank step
            (always 64, the bits per rank directory sample)
    then sections until end of file, each:
            section id u64, payload length in bytes u64, payload

Every payload ends with a u32 CRC-32 (zlib.crc32) of the 62-byte fixed
header, the section's id and length fields, and the payload before it; the
length counts those 4 bytes.  Each known section's CRC is checked before
any payload is parsed, so a flipped bit in the header or in any known
section fails the load.

Integer arrays are stored as packed fields: a count u64, a width u8, then
the count values at width bits each, least significant bit first, in
ceil(count * width / 8) bytes (none at width 0).  Each field's count and
width must be the ones the header implies, the widths being minimal:

    1 corpus        the symbol table: sigma byte values, ascending, none
                    0x00 (width 8); the n - d document symbols, each as
                    its index in the table (ceil(log2 sigma) bits); the d
                    document ends, the 1-based positions of the
                    terminators (ceil(log2(n + 1)) bits)
    2 wavelet       u64 d, u64 d - 1, then each internal node's bit
                    vector: length in bits u64, packed u64 words
    3 sampled tree  u64 node count m, u64 candidate count c; m sp and m
                    ep (ceil(log2(n + 1)) bits), m class exponents
                    (ceil(log2(log2 k_max + 1)) bits), m + 1 candidate
                    offsets (ceil(log2(c + 1)) bits), c candidate docs
                    (ceil(log2(d + 1)) bits) and, for the light layout,
                    their c frequencies (ceil(log2(n + 1)) bits)
    4 suffix array  n entries of ceil(log2(n + 1)) bits (optional,
                    rebuilt from the text when absent)

The marked nodes are stored in preorder, sorted by (sp, -ep); they are the
whole sampled tree (see sgst).  Unknown section ids are skipped, their CRC
unchecked, so the format can grow.  A version mismatch is an error, as is
a rank step other than 64, a g_prime or k_max no build accepts, a CRC
mismatch, any declared length that does not match its payload, a symbol
table that is not strictly ascending above 0x00 or lists a symbol the text
lacks, a symbol code outside the table, document ends that do not rise by
at least 2 each up to n, a stored suffix array that is not a permutation
of 1..n or whose suffixes' first symbols descend somewhere (see
_read_suffix_array), wavelet bitmaps whose lengths do not follow the
tree's routing, or sampled-tree nodes or candidate lists that no build
could have written (see _check_nodes and _check_candidates).
"""

import struct
import zlib
from typing import NamedTuple

import numpy as np

from .bitrank import RankBitVector
from .corpus import SENTINEL, Corpus
from .engine import Index
from .errors import ContainerFormatError, InconsistentIntervalsError, VersionMismatchError
from .sgst import SGST
from .suffixes import build_suffix_array, stored_suffix_index
from .wavelet import WaveletTree

MAGIC = b"TKDI"
VERSION = 3
RANK_STEP = 64      # rank directories are rebuilt at load with this step

SECTION_CORPUS = 1
SECTION_WAVELET = 2
SECTION_SGST = 3
SECTION_SUFFIX_ARRAY = 4
SECTION_NAMES = {SECTION_CORPUS: "corpus", SECTION_WAVELET: "wavelet",
                 SECTION_SGST: "sgst", SECTION_SUFFIX_ARRAY: "suffix_array"}

_HEADER = struct.Struct("<4sH7Q")
_FRAME = struct.Struct("<QQ")
_CRC = struct.Struct("<I")
_FIELD = struct.Struct("<QB")
_U64 = struct.Struct("<Q")
_VARIANT_TAGS = {"light": 0, "xlight": 1}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}
HEADER_BYTES = _HEADER.size


class Header(NamedTuple):
    n: int
    d: int
    sigma: int
    g_prime: int
    k_max: int
    variant: str


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
    corpus, x = index.corpus, index.sgst
    n, d = corpus.n, corpus.d
    header = _HEADER.pack(MAGIC, VERSION, n, d, corpus.sigma, x.g_prime, x.k_max,
                          _VARIANT_TAGS[x.variant], RANK_STEP)
    sections = [(SECTION_CORPUS, _corpus_payload(corpus)),
                (SECTION_WAVELET, _wavelet_payload(index.wavelet)),
                (SECTION_SGST, _sgst_payload(x, n, d))]
    if include_suffix_array:
        sections.append((SECTION_SUFFIX_ARRAY, _field(index.suffixes.sa, _width(n))))
    return _seal(header, sections)


def _seal(header, sections):
    """The container of header and the (id, payload) sections, each payload
    followed by its CRC."""
    out = [header]
    head_crc = zlib.crc32(header)
    for sec_id, payload in sections:
        frame = _FRAME.pack(sec_id, len(payload) + _CRC.size)
        out += [frame, payload, _CRC.pack(zlib.crc32(payload, zlib.crc32(frame, head_crc)))]
    return b"".join(out)


def read_frames(data):
    """(Header, frames) of a container, each frame a section's (id, start,
    end), its payload data[start:end] with the CRC.  Checks the header
    and every known section's CRC, not the payloads."""
    if len(data) < HEADER_BYTES:
        raise ContainerFormatError("file shorter than the fixed header")
    magic, version, n, d, sigma, g_prime, k_max, variant_tag, step = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ContainerFormatError("bad magic; not an index container")
    if version != VERSION:
        raise VersionMismatchError(f"format version {version}, expected {VERSION}")
    if variant_tag not in _TAG_VARIANTS:
        raise ContainerFormatError(f"unknown variant tag {variant_tag}")
    if step != RANK_STEP:
        raise ContainerFormatError(f"rank step {step}, expected {RANK_STEP}")
    if g_prime < 1 or k_max < 1 or k_max & (k_max - 1):
        raise ContainerFormatError(f"g_prime {g_prime} or k_max {k_max} is not one "
                                   "a build accepts")
    view = memoryview(data)
    head_crc = zlib.crc32(view[:HEADER_BYTES])
    frames = []
    offset = HEADER_BYTES
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise ContainerFormatError("truncated section header")
        sec_id, length = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            raise ContainerFormatError(f"section {sec_id} declares {length} bytes "
                                       f"but only {len(data) - start} remain")
        if sec_id in SECTION_NAMES:
            if length < _CRC.size:
                raise ContainerFormatError(f"section {sec_id} is shorter than its CRC")
            crc = zlib.crc32(view[start:end - _CRC.size],
                             zlib.crc32(view[offset:start], head_crc))
            if _CRC.unpack_from(data, end - _CRC.size)[0] != crc:
                raise ContainerFormatError(f"section {sec_id} fails its CRC")
        frames.append((sec_id, start, end))
        offset = end
    return Header(n, d, sigma, g_prime, k_max, _TAG_VARIANTS[variant_tag]), frames


def deserialize_index(data: bytes) -> Index:
    h, frames = read_frames(data)
    view = memoryview(data)
    sections = {sec_id: view[start:end - _CRC.size] for sec_id, start, end in frames
                if sec_id in SECTION_NAMES}
    for required in (SECTION_CORPUS, SECTION_WAVELET, SECTION_SGST):
        if required not in sections:
            raise ContainerFormatError(f"missing required section {required}")

    corpus = _read_corpus(sections[SECTION_CORPUS], h.n, h.d, h.sigma)
    if SECTION_SUFFIX_ARRAY in sections:
        suffixes = _read_suffix_array(sections[SECTION_SUFFIX_ARRAY], corpus)
    else:
        suffixes = build_suffix_array(corpus)
    wavelet = _read_wavelet(sections[SECTION_WAVELET], h.d, h.n)
    sgst = _read_sgst(sections[SECTION_SGST], h)
    return Index(corpus=corpus, suffixes=suffixes, wavelet=wavelet, sgst=sgst,
                 store_suffix_array=SECTION_SUFFIX_ARRAY in sections)


def _width(limit):
    """Bits of a field whose values run up to limit: ceil(log2(limit + 1))."""
    return int(limit).bit_length()


def _pack(values, width) -> bytes:
    """values, each below 2**width, at width bits each, least significant
    bit first, in ceil(len(values) * width / 8) bytes."""
    values = np.asarray(values, dtype=np.int64)
    bits = np.empty((len(values), width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = (values >> j) & 1
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack(buf, count, width):
    """The count values of width bits that _pack stored in buf, as int64."""
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count * width,
                         bitorder="little").reshape(count, width)
    # Accumulate in the narrowest unsigned type that holds width bits.
    dtype = np.dtype(f"<u{1 << max(0, (width - 1).bit_length() - 3)}")
    values = np.zeros(count, dtype=dtype)
    for j in range(width):
        values |= bits[:, j].astype(dtype) << dtype.type(j)
    return values.astype(np.int64)


def _field(values, width) -> bytes:
    return _FIELD.pack(len(values), width) + _pack(values, width)


class _Reader:
    def __init__(self, payload):
        self.data = payload
        self.pos = 0

    def u64(self):
        (value,) = _U64.unpack(self.raw(8))
        return value

    def raw(self, length):
        if self.pos + length > len(self.data):
            raise ContainerFormatError("payload ended inside a field")
        chunk = self.data[self.pos:self.pos + length]
        self.pos += length
        return chunk

    def field(self, count, width):
        """A packed field, which must hold count values of width bits."""
        if _FIELD.unpack(self.raw(_FIELD.size)) != (count, width):
            raise ContainerFormatError("a packed field's count or width is not the one "
                                       "the header implies")
        return _unpack(self.raw((count * width + 7) // 8), count, width)

    def bitvector(self):
        nbits = self.u64()
        words = np.frombuffer(self.raw(8 * ((nbits + 63) // 64)), dtype="<u8")
        return RankBitVector.from_words(words, nbits)

    def done(self):
        if self.pos != len(self.data):
            raise ContainerFormatError("payload longer than its contents")


def _corpus_payload(corpus: Corpus) -> bytes:
    symbols = np.frombuffer(corpus.text, dtype=np.uint8)
    table = np.flatnonzero(np.bincount(symbols, minlength=256)[1:]) + 1
    code = np.zeros(256, dtype=np.uint8)
    code[table] = np.arange(len(table))
    return (_field(table, 8)
            + _field(code[symbols[symbols != SENTINEL]], _width(corpus.sigma - 1))
            + _field(corpus.ends, _width(corpus.n)))


def _read_corpus(payload, n, d, sigma):
    """The corpus whose text is the table's symbols at the stored codes,
    with a terminator at each stored end."""
    r = _Reader(payload)
    table = r.field(sigma, 8)
    codes = r.field(n - d, _width(sigma - 1))
    ends = r.field(d, _width(n))
    r.done()
    if (table[:1] == 0).any() or (table[1:] <= table[:-1]).any():
        raise ContainerFormatError("the symbol table is not strictly ascending above 0x00")
    present = np.bincount(codes, minlength=sigma)
    if len(present) > sigma:
        raise ContainerFormatError("a symbol code lies outside the symbol table")
    if not present.all():
        raise ContainerFormatError("the symbol table lists a symbol the text lacks")
    if not d or (np.diff(ends, prepend=0) < 2).any():
        raise ContainerFormatError("stored text holds an empty document or none")
    if ends[-1] != n:
        raise ContainerFormatError("stored text does not end with a terminator")
    symbols = np.full(n, SENTINEL, dtype=np.uint8)
    keep = np.ones(n, dtype=bool)
    keep[ends - 1] = False
    symbols[keep] = table.astype(np.uint8)[codes]
    return Corpus(text=symbols.tobytes(), n=n, d=d, sigma=sigma, ends=tuple(ends.tolist()))


def _read_suffix_array(payload, corpus):
    """The stored suffix array, which must be a permutation of 1..n whose
    suffixes ascend by their first q symbols: their keys may not descend.
    That it sorts the suffixes beyond those symbols is not checked."""
    n = corpus.n
    r = _Reader(payload)
    sa = r.field(n, _width(n))
    r.done()
    if not ((1 <= sa) & (sa <= n)).all() or np.bincount(sa).max() > 1:
        raise ContainerFormatError("stored suffix array is not a permutation of 1..n")
    s = stored_suffix_index(corpus, sa)
    if (s.keys[1:] < s.keys[:-1]).any():
        raise ContainerFormatError("stored suffix array is not sorted by its "
                                   "suffixes' first symbols")
    return s


def _wavelet_payload(w: WaveletTree) -> bytes:
    internal = w.internal_nodes()
    parts = [_U64.pack(w.d), _U64.pack(len(internal))]
    for node in internal:
        words = np.asarray(node.bits.words, dtype="<u8")
        parts += [_U64.pack(len(node.bits)), words.tobytes()]
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


def _sgst_payload(x: SGST, n, d) -> bytes:
    total = x.cand_off[-1]
    exponents = [c.bit_length() - 1 for c in x.cls_arr]
    parts = [_U64.pack(x.node_count), _U64.pack(total),
             _field(x.sp_arr, _width(n)), _field(x.ep_arr, _width(n)),
             _field(exponents, _width(x.k_max.bit_length() - 1)),
             _field(x.cand_off, _width(total)), _field(x.cand_docs, _width(d))]
    if x.cand_freqs is not None:
        parts.append(_field(x.cand_freqs, _width(n)))
    return b"".join(parts)


def _read_sgst(payload, h: Header):
    n = h.n
    r = _Reader(payload)
    node_count, total = r.u64(), r.u64()
    sp_arr = r.field(node_count, _width(n))
    ep_arr = r.field(node_count, _width(n))
    cls_arr = np.left_shift(1, r.field(node_count, _width(h.k_max.bit_length() - 1)))
    cand_off = r.field(node_count + 1, _width(total))
    cand_docs = r.field(total, _width(h.d))
    cand_freqs = None if h.variant == "xlight" else r.field(total, _width(n))
    r.done()
    _check_nodes(sp_arr, ep_arr, cls_arr, n, h.k_max)
    _check_candidates(sp_arr, ep_arr, cls_arr, cand_off, cand_docs, cand_freqs, h.d)
    return SGST(h.g_prime, h.k_max, h.variant, sp_arr.tolist(), ep_arr.tolist(),
                cls_arr.tolist(), cand_off.tolist(), cand_docs.tolist(),
                None if cand_freqs is None else cand_freqs.tolist())


def _check_nodes(sp, ep, cls, n, k_max):
    """Reject node intervals outside 1..n, classes above k_max, and nodes
    that are not a laminar family listed once each in preorder, the order
    find_locus searches."""
    if not ((1 <= sp) & (sp <= ep) & (ep <= n)).all():
        raise ContainerFormatError("a marked node's interval lies outside 1..n")
    if not ((1 <= cls) & (cls <= k_max)).all():
        raise ContainerFormatError("a marked node's class lies outside 1..k_max")
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
    if off[0] != 0 or not (off[1:] >= off[:-1]).all() or off[-1] != len(docs):
        raise ContainerFormatError("candidate offsets are not monotone from 0 "
                                   "to the candidate count")
    counts = off[1:] - off[:-1]
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
