"""Binary on-disk container for a built index, format version 5.

Layout, all integers little-endian:

    magic   "TKDI"
    version u16
    header  7 x u64: n, d, sigma, g_prime, k_max, variant tag, rank step
            (always 64, the bits per rank directory sample)
    then sections 1, 2 and 3, optionally 4, in that order, then the end
    of the file; each:
            section id u64, payload length in bytes u64, payload

Every payload ends with a u32 CRC-32 (zlib.crc32) of the 62-byte fixed
header, the section's id and length fields, and the payload before it; the
length counts those 4 bytes.  Each section's CRC is checked before any
payload is parsed or inflated, so a flipped bit in the header or in any
section fails the load.

A payload opens with a method byte, followed by the section's contents
either as they are (0, stored) or as one zlib stream (1, deflate) of
their byte-aligned form, whichever is shorter; on a tie, stored.  The
byte-aligned form of sections 2, 3 and 4 is their stored form.  That of
section 1 holds the same three fields with the symbol codes at width 8,
one byte each, since the repeats of a repetitive text are seldom byte
aligned at the minimal width, and DEFLATE only finds aligned ones.

Integer arrays are stored as packed fields: a count u64, a width u8, then
the count values at width bits each, least significant bit first, in
ceil(count * width / 8) bytes (none at width 0).  Each field's count and
width must be the ones the header implies, the widths being minimal
except for the codes of a deflated corpus:

    1 corpus        the symbol table: sigma byte values, ascending, none
                    0x00 (width 8); the n - d document symbols, each as
                    its index in the table (ceil(log2 sigma) bits when
                    stored, 8 when deflated); the d document ends, the
                    1-based positions of the terminators
                    (ceil(log2(n + 1)) bits)
    2 wavelet       one width-1 field per level of the tree, top first,
                    ceil(log2 d) of them: the bits of the level's internal
                    nodes, left to right, with no per-node length and no
                    padding between nodes; each level's count and each
                    node's ones count must be the ones the document
                    lengths give (see WaveletTree.from_levels)
    3 sampled tree  u64 node count m, u64 candidate count c; m sp and m
                    ep (ceil(log2(n + 1)) bits), m class exponents
                    (ceil(log2(log2 k_max + 1)) bits), m + 1 candidate
                    offsets (ceil(log2(c + 1)) bits), c candidate docs
                    (ceil(log2(d + 1)) bits) and, for the light layout,
                    their c frequencies (ceil(log2(n + 1)) bits)
    4 suffix array  n entries of ceil(log2(n + 1)) bits (optional,
                    rebuilt from the text when absent)

A deflated section is inflated just before it is parsed, to exactly the
length its layout implies, and dropped once parsed, so the suffix sort
never runs while an inflated section is held.  That length comes from the
header's n, d and sigma for the corpus, from the document lengths the
corpus gave for the wavelet tree, from its two leading counts, inflated
first, for the sampled tree, and from n for the suffix array.  Those two
counts must be at most the ones a build over the header's n, g_prime and
k_max writes (sgst.most_marked, about n / g_prime nodes), checked before
they size anything.  A stream that zlib rejects, that is not at its end
by that length, that ends short of it, or that is followed by more bytes
is an error, so no section allocates more than its layout's size.  The
stream's end is checked once the section has parsed, so that a field
which disagrees with the header is reported as that field.

Every load checks the wavelet tree against the document lengths, so that
it routes exactly each document's length to its leaf.  Without section 4
the suffix array is then rebuilt by suffixes.build_suffix_array, whose
first sorting round picks the path.  On repetitive text (more than
suffixes.DOCUMENT_PATH_TIES of the suffixes tied after that round) it
takes the document path: the tree's document array orders each
document's suffixes into their slots, and the result must pass the O(n)
sortedness check, which only the true suffix array passes.  On other
text it takes the sort path.

A container whose CRCs are valid is trusted, unchecked, with three things:

  - the order of the bits inside a wavelet node, on the sort path and
    with a stored suffix array: swapping a node's 1 and 0 keeps its ones
    count, loads, and may answer wrongly;
  - the light layout's candidate frequencies, beyond lying in 1..interval
    length and ranking the list: one lowered by 1 loads, and
    sgst.candidates_of returns it as stored, to equal and flank answers
    alike (no query recounts its heap; see engine);
  - the marked nodes' intervals, beyond their order and nesting: a
    childless node's ep shrunk by 1 loads, though no sampling marks it.

The marked nodes are stored in preorder, sorted by (sp, -ep); they are the
whole sampled tree (see sgst).  A version mismatch is an error, as is a
rank step other than 64, a g_prime or k_max no build accepts, an n above
corpus.MAX_SYMBOLS, a CRC mismatch, a section id other than the next in
the order above (an unknown, repeated or reordered section), fewer than
three sections, any declared length that does not match its payload, a
method byte other than 0 and 1, a d above n / 2 or a sigma above 255, a
symbol table that is not strictly ascending above 0x00 or lists a symbol
the text lacks, a symbol code outside the table, document ends that do
not rise by at least 2 each up to n, a stored suffix array that does not
sort the suffixes (see suffixes.sorts_suffixes), wavelet levels whose bit
counts, or nodes whose ones counts, are not the ones the document lengths
give or, on the document path, whose document array does not order the
suffixes, or sampled-tree nodes or candidate lists that no build could
have written (see _check_nodes and _check_candidates).  A single-symbol
text packs into a few bytes yet loads into n: a resource limit, not a
format error.
"""

import struct
import zlib
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .corpus import MAX_SYMBOLS, SENTINEL, Corpus
from .engine import Index
from .errors import ContainerFormatError, InconsistentIntervalsError, VersionMismatchError
from .sgst import SGST, most_marked
from .suffixes import SuffixIndex, _symbol_codes, build_suffix_array, sorts_suffixes
from .wavelet import WaveletTree, level_sizes

MAGIC = b"TKDI"
VERSION = 5
RANK_STEP = 64      # rank directories are rebuilt at load with this step

SECTION_CORPUS = 1
SECTION_WAVELET = 2
SECTION_SGST = 3
SECTION_SUFFIX_ARRAY = 4
SECTION_NAMES = {SECTION_CORPUS: "corpus", SECTION_WAVELET: "wavelet",
                 SECTION_SGST: "sgst", SECTION_SUFFIX_ARRAY: "suffix_array"}
STORED, DEFLATED = 0, 1     # the method byte that opens each payload

_HEADER = struct.Struct("<4sH7Q")
_FRAME = struct.Struct("<QQ")
_CRC = struct.Struct("<I")
_FIELD = struct.Struct("<QB")
_COUNTS = struct.Struct("<QQ")     # a sampled tree's node and candidate counts
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
    sections = [(SECTION_CORPUS, _shorter(_corpus_payload(corpus),
                                          _corpus_payload(corpus, aligned=True))),
                (SECTION_WAVELET, _shorter(_wavelet_payload(index.wavelet))),
                (SECTION_SGST, _shorter(_sgst_payload(x, n, d)))]
    if include_suffix_array:
        sections.append((SECTION_SUFFIX_ARRAY, _shorter(_field(index.suffixes.sa, _width(n)))))
    return _seal(header, sections)


def _shorter(stored, aligned=None):
    """A section's payload: its method byte, then stored as it is or its
    byte-aligned form (stored, unless given) deflated, whichever is
    shorter; on a tie, stored."""
    deflated = zlib.compress(stored if aligned is None else aligned)
    if len(deflated) < len(stored):
        return bytes([DEFLATED]) + deflated
    return bytes([STORED]) + stored


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
    end), its payload data[start:end] with the CRC; each frame begins where
    the header or the frame before it ends.  Checks the header, that the
    sections are 1, 2, 3 and optionally 4 in that order, and each section's
    CRC, not the payloads."""
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
    if n > MAX_SYMBOLS:
        raise ContainerFormatError(f"n = {n} exceeds the {MAX_SYMBOLS} symbols supported")
    if not (1 <= d <= n // 2 and 1 <= sigma <= 255):
        # Each document holds a symbol and its terminator, and the symbols
        # are byte values above 0x00: past these, d and sigma size the
        # corpus's inflate beyond any text of n symbols.
        raise ContainerFormatError(f"d = {d} or sigma = {sigma} is not one a text of n = {n} "
                                   "holds: 1..n/2 documents, 1..255 symbols")
    view = memoryview(data)
    head_crc = zlib.crc32(view[:HEADER_BYTES])
    frames = []
    offset = HEADER_BYTES
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise ContainerFormatError("truncated section header")
        sec_id, length = _FRAME.unpack_from(data, offset)
        if sec_id not in SECTION_NAMES or sec_id != len(frames) + 1:
            raise ContainerFormatError(f"section {sec_id} at frame {len(frames) + 1}: the "
                                       "sections must be 1, 2, 3, then optionally 4")
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            raise ContainerFormatError(f"section {sec_id} declares {length} bytes "
                                       f"but only {len(data) - start} remain")
        if length <= _CRC.size:
            raise ContainerFormatError(f"section {sec_id} is shorter than its method "
                                       "byte and CRC")
        crc = zlib.crc32(view[start:end - _CRC.size], zlib.crc32(view[offset:start], head_crc))
        if _CRC.unpack_from(data, end - _CRC.size)[0] != crc:
            raise ContainerFormatError(f"section {sec_id} fails its CRC")
        frames.append((sec_id, start, end))
        offset = end
    if len(frames) < 3:
        raise ContainerFormatError(f"missing required section {len(frames) + 1}")
    return Header(n, d, sigma, g_prime, k_max, _TAG_VARIANTS[variant_tag]), frames


def deserialize_index(data: bytes) -> Index:
    h, frames = read_frames(data)
    view = memoryview(data)
    sections = {sec_id: view[start:end - _CRC.size] for sec_id, start, end in frames}

    # Each reader inflates its section, if deflated, and drops the inflated
    # bytes before it returns.
    corpus = _load_corpus(sections[SECTION_CORPUS], h)
    # A stored suffix array is checked before the wavelet tree is read, so
    # that the tree is not held through the check; a rebuild needs the tree.
    if SECTION_SUFFIX_ARRAY in sections:
        suffixes = _read_suffix_array(sections[SECTION_SUFFIX_ARRAY], corpus)
        wavelet = _load_wavelet(sections[SECTION_WAVELET], corpus)
    else:
        wavelet = _load_wavelet(sections[SECTION_WAVELET], corpus)
        try:
            suffixes = build_suffix_array(corpus, wavelet)
        except InconsistentIntervalsError as exc:
            raise ContainerFormatError(f"wavelet bitmaps disagree with the text: "
                                       f"{exc}") from exc
    sgst = _load_sgst(sections[SECTION_SGST], h)
    return Index(corpus=corpus, suffixes=suffixes, wavelet=wavelet, sgst=sgst,
                 store_suffix_array=SECTION_SUFFIX_ARRAY in sections)


def section_method(data, start, end):
    """("stored" or "deflate", length of the byte-aligned form) of the
    section whose payload is data[start:end], CRC included, as read_frames
    gives it, in a container that loads."""
    body = data[start + 1:end - _CRC.size]
    if data[start] == DEFLATED:
        return "deflate", len(zlib.decompress(body))
    return "stored", len(body)


@contextmanager
def _opened(payload, sec_id, limit):
    """The byte-aligned form of a section, from its payload, CRC excluded:
    the bytes after a stored section's method byte, or a deflated one's
    stream inflated up to limit bytes, the length its layout implies.

    Once the form has parsed, a deflated section's stream must end there,
    with no bytes after it.  That is checked last, so that a field which
    disagrees with the header is reported as such, not as a stream of the
    wrong length."""
    method, body = payload[0], payload[1:]
    if method == STORED:
        yield body
        return
    if method != DEFLATED:
        raise ContainerFormatError(f"section {sec_id} has method {method}; only 0 (stored) "
                                   "and 1 (deflate) are defined")
    out, inflater = _inflate(body, sec_id, limit)
    yield out
    if len(out) != limit or not inflater.eof:
        raise ContainerFormatError(f"section {sec_id}'s stream does not end at the {limit} "
                                   "bytes its layout implies")
    if inflater.unused_data:
        raise ContainerFormatError(f"section {sec_id} holds bytes after its deflate stream")


def _inflate(body, sec_id, limit):
    """The bytes that the zlib stream body inflates to, at most limit of
    them, and the decompressobj that inflated them."""
    inflater = zlib.decompressobj()
    try:
        # A max_length of 0 would mean no limit: a layout of no bytes reads
        # one byte, which is rejected.
        return inflater.decompress(body, max(limit, 1)), inflater
    except zlib.error as exc:
        raise ContainerFormatError(f"section {sec_id} does not inflate: {exc}") from exc


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
    """The count values of width bits that _pack stored in buf, as int64.

    Value i starts at bit i * width, so values 8 apart start width bytes
    apart: each of the 8 residues is one strided read of unaligned u64
    words, shifted into place, plus the ninth byte when a value reaches
    past the word (width above 57)."""
    values = np.zeros(count, dtype=np.int64)
    if not width:
        return values
    data = np.frombuffer(bytes(buf) + bytes(9), dtype=np.uint8)
    mask = np.uint64((1 << width) - 1)
    for r in range(min(count, 8)):
        m = (count - r + 7) // 8
        byte, shift = divmod(r * width, 8)
        word = np.ndarray(m, dtype="<u8", buffer=data, offset=byte, strides=width)
        word = word >> np.uint64(shift)
        if shift + width > 64:
            ninth = np.ndarray(m, dtype=np.uint8, buffer=data, offset=byte + 8, strides=width)
            word |= ninth.astype(np.uint64) << np.uint64(64 - shift)
        word &= mask
        values[r::8] = word
    return values


def _field(values, width) -> bytes:
    return _FIELD.pack(len(values), width) + _pack(values, width)


def _field_bytes(count, width):
    """Length of a packed field of count values of width bits."""
    return _FIELD.size + (count * width + 7) // 8


class _Reader:
    def __init__(self, payload):
        self.data = payload
        self.pos = 0

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

    def bits(self, count):
        """A wavelet level, a width-1 packed field that must hold count
        bits, as (u64 words, count)."""
        got, width = _FIELD.unpack(self.raw(_FIELD.size))
        if (got, width) != (count, 1):
            raise ContainerFormatError(f"a wavelet level holds {got} bits of width {width}; "
                                       f"the document lengths give {count} of width 1")
        data = np.frombuffer(self.raw((count + 7) // 8), dtype=np.uint8)
        words = np.zeros((count + 63) // 64, dtype="<u8")
        words.view(np.uint8)[:len(data)] = data
        return words, count

    def done(self):
        if self.pos != len(self.data):
            raise ContainerFormatError("payload longer than its contents")


def _corpus_payload(corpus: Corpus, aligned=False) -> bytes:
    """The corpus section's fields, its codes at their minimal width, or
    one byte each when aligned."""
    symbols = np.frombuffer(corpus.text, dtype=np.uint8)
    code, _ = _symbol_codes(corpus.alphabet)        # table index + 2
    return (_field(list(corpus.alphabet), 8)
            + _field(code[symbols[symbols != SENTINEL]] - 2,
                     8 if aligned else _width(corpus.sigma - 1))
            + _field(corpus.ends, _width(corpus.n)))


def _load_corpus(payload, h: Header):
    """The corpus of a corpus section's payload, CRC excluded."""
    aligned = payload[0] == DEFLATED
    limit = (_field_bytes(h.sigma, 8) + _field_bytes(h.n - h.d, 8)
             + _field_bytes(h.d, _width(h.n)))
    with _opened(payload, SECTION_CORPUS, limit) as body:
        return _read_corpus(body, h.n, h.d, h.sigma, aligned)


def _read_corpus(payload, n, d, sigma, aligned=False):
    """The corpus whose text is the table's symbols at the stored codes,
    with a terminator at each stored end; the codes take one byte each
    when aligned, their minimal width otherwise."""
    r = _Reader(payload)
    table = r.field(sigma, 8).astype(np.uint8)
    codes = r.field(n - d, 8 if aligned else _width(sigma - 1))
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
    symbols[keep] = table[codes]
    return Corpus(text=symbols.tobytes(), n=n, d=d, alphabet=table.tobytes(), ends=ends)


def _read_suffix_array(payload, corpus):
    """The suffix array of a suffix-array section's payload, CRC excluded:
    a permutation of 1..n that must sort the suffixes (see
    suffixes.sorts_suffixes).  The section is inflated, if deflated, and
    dropped before the check."""
    n = corpus.n
    with _opened(payload, SECTION_SUFFIX_ARRAY, _field_bytes(n, _width(n))) as body:
        r = _Reader(body)
        sa = r.field(n, _width(n))
        r.done()
    del r, body
    if not ((1 <= sa) & (sa <= n)).all() or np.bincount(sa).max() > 1:
        raise ContainerFormatError("stored suffix array is not a permutation of 1..n")
    s = SuffixIndex(corpus, sa)
    del sa
    if not sorts_suffixes(corpus.text, s.sa):
        raise ContainerFormatError("stored suffix array is not sorted by its suffixes")
    return s


def _wavelet_payload(w: WaveletTree) -> bytes:
    parts = []
    for level in w.levels:
        nbits = len(level)
        parts += [_FIELD.pack(nbits, 1), level.words.tobytes()[:(nbits + 7) // 8]]
    return b"".join(parts)


def _load_wavelet(payload, corpus):
    """The wavelet tree of a wavelet section's payload, CRC excluded."""
    sizes = level_sizes(corpus.lengths)
    limit = sum(_field_bytes(nbits, 1) for nbits in sizes)
    with _opened(payload, SECTION_WAVELET, limit) as body:
        return _read_wavelet(body, corpus, sizes)


def _read_wavelet(payload, corpus, sizes):
    """The stored tree, whose levels must hold the sizes the corpus's
    document lengths give (level_sizes): a level's bit count is checked
    before its bits are read, and each node's ones count by from_levels."""
    r = _Reader(payload)
    levels = [r.bits(nbits) for nbits in sizes]
    r.done()
    try:
        return WaveletTree.from_levels(levels, corpus.lengths)
    except InconsistentIntervalsError as exc:
        raise ContainerFormatError(f"wavelet bitmaps disagree with the tree: {exc}") from exc


def _sgst_shapes(node_count, total, n, d, k_max, variant):
    """(count, width) of each packed field of a sampled tree of node_count
    nodes and total candidates, in stored order: sp, ep, class exponents,
    offsets, docs and, for the light layout, freqs."""
    shapes = [(node_count, _width(n)), (node_count, _width(n)),
              (node_count, _width(k_max.bit_length() - 1)), (node_count + 1, _width(total)),
              (total, _width(d))]
    return shapes if variant == "xlight" else shapes + [(total, _width(n))]


def _sgst_payload(x: SGST, n, d) -> bytes:
    total = x.cand_off[-1]
    exponents = [c.bit_length() - 1 for c in x.cls_arr]
    arrays = [x.sp_arr, x.ep_arr, exponents, x.cand_off, x.cand_docs, x.cand_freqs]
    shapes = _sgst_shapes(x.node_count, total, n, d, x.k_max, x.variant)
    return b"".join([_COUNTS.pack(x.node_count, total)]
                    + [_field(values, width) for values, (_, width) in zip(arrays, shapes)])


def _sgst_counts(head, h: Header):
    """The node and candidate counts that open a sampled-tree section, from
    its first 16 bytes.  Counts above those a build over the header's n,
    g_prime and k_max writes (sgst.most_marked) are rejected before they
    size anything."""
    node_count, total = _COUNTS.unpack(head)
    most = most_marked(h.n, h.g_prime, h.k_max)
    if node_count > most[0] or total > most[1]:
        raise ContainerFormatError(f"the sampled tree claims {node_count} nodes and {total} "
                                   f"candidates; a build over n = {h.n} with g_prime = "
                                   f"{h.g_prime} and k_max = {h.k_max} writes at most "
                                   f"{most[0]} and {most[1]}")
    return node_count, total


def _load_sgst(payload, h: Header):
    """The sampled tree of a sampled-tree section's payload, CRC excluded.
    A deflated one's two leading counts are inflated first, to size it."""
    limit = _COUNTS.size
    if payload[0] == DEFLATED:
        head, _ = _inflate(payload[1:], SECTION_SGST, limit)
        if len(head) == limit:      # else the parse finds the stream short
            shapes = _sgst_shapes(*_sgst_counts(head, h), h.n, h.d, h.k_max, h.variant)
            limit += sum(_field_bytes(count, width) for count, width in shapes)
    with _opened(payload, SECTION_SGST, limit) as body:
        return _read_sgst(body, h)


def _read_sgst(payload, h: Header):
    r = _Reader(payload)
    node_count, total = _sgst_counts(r.raw(_COUNTS.size), h)
    sp_arr, ep_arr, exponents, cand_off, cand_docs, *freqs = [
        r.field(count, width)
        for count, width in _sgst_shapes(node_count, total, h.n, h.d, h.k_max, h.variant)]
    r.done()
    cls_arr = np.left_shift(1, exponents)
    cand_freqs = freqs[0] if freqs else None
    _check_nodes(sp_arr, ep_arr, cls_arr, h.n, h.k_max)
    _check_candidates(sp_arr, ep_arr, cls_arr, cand_off, cand_docs, cand_freqs, h.d)
    return SGST(h.g_prime, h.k_max, h.variant, sp_arr, ep_arr, cls_arr, cand_off,
                cand_docs, cand_freqs)


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
    for start, end in zip(memoryview(sp), memoryview(ep)):
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
