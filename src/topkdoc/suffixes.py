"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots.

Next to them the index keeps each slot's key: the codes (see _symbol_codes)
of its suffix's first q symbols packed into an int32, q = 31 // width for
codes of width bits (10 on DNA, 6 on 27 symbols).  The suffixes are
sorted, so the keys never decrease, and a pattern of m symbols has its
interval found by two binary searches over them, on the codes of its
first min(m, q) symbols.  Only a pattern longer than q is then searched
byte by byte, by two bisects over the occ slots of that range keyed by
each suffix's first m bytes: O(m log occ) byte comparisons.
prefix_interval runs the same byte search over the whole suffix array.

Suffixes are sorted by prefix doubling in numpy.  The first round sorts
every suffix once by its first symbols, as many as pack into one int64
key (21 on DNA, 12 on 27 symbols); the keys above are its top q symbols.
Each later round doubles the sorted prefix length but re-sorts only the
suffixes still tied with another, one argsort of a packed int64 key: the
rank of a suffix's first h symbols times a radix, plus the rank of the
next h.

Loading a container without a stored suffix array reruns the sort, given
the wavelet tree it read, and takes one of two paths after the first
round.  The tree's node sizes were checked against the document lengths
when it was read (WaveletTree.from_bitmaps), so each document holds as
many of its slots as it owns positions.  Where at most DOCUMENT_PATH_TIES
of the suffixes are still tied, the sort path goes on as a build does and
trusts the order of the bits inside each node.  Where more are, the ties
run across documents, as in revisions of one text: the document path
sorts by (document, suffix), which within a document is the generalized
order, and deals each document's order out to its slots of the tree's
document array.  It then checks the result with sorts_suffixes
(Burkhardt and Kärkkäinen, CPM 2003), which only the true suffix array
passes; that proves the tree's bitmaps too.  A container with a stored
suffix array derives the keys from the text, and the same check proves
the stored order.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .corpus import SENTINEL, Corpus
from .errors import (EmptyPatternError, InconsistentIntervalsError, OutOfRangeError,
                     SentinelInPatternError)

# A sort given the document array (build_suffix_array's wavelet) takes the
# document path when more than this share of the suffixes is still tied
# after the first round.  Measured on the benchmark's workloads at seed
# 201: 0.000% on uniform DNA, where the sort ends after that round and the
# document path, forced, took 2.1 times as long (114 against 53 ms); 99.3%
# on revised documents, where the ties run across revisions for about
# eight rounds and the document path took 106 against 231 ms.
DOCUMENT_PATH_TIES = 0.5


@dataclass(frozen=True)
class PatternInterval:
    """Suffix-array index range [sp, ep] of a pattern; empty when ep < sp.

    `pattern` is the searched bytes, as pattern_interval normalised them;
    it takes no part in comparisons."""

    sp: int
    ep: int
    pattern: bytes = field(default=b"", compare=False, repr=False)

    @property
    def is_empty(self):
        return self.ep < self.sp

    @property
    def occurrences(self):
        return 0 if self.is_empty else self.ep - self.sp + 1


@dataclass(frozen=True)
class SuffixIndex:
    sa: np.ndarray       # 1-based text positions, suffix-sorted, int32
    doc_ids: np.ndarray  # doc_ids[i] = document owning position sa[i], int32
    keys: np.ndarray     # int32, never decreasing: suffix sa[i]'s first q codes, packed
    code: tuple          # symbol -> code, 1..sigma + 1 (1 for the terminator); 0 if absent
    width: int           # bits per code; q = 31 // width
    _views: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # memoryviews yield plain ints, which bisect and slicing want.
        object.__setattr__(self, "_views", (memoryview(self.keys), memoryview(self.sa)))

    def __len__(self):
        return len(self.sa)

    def interval(self, text, pat: bytes) -> PatternInterval:
        """Suffix-array interval of the suffixes of text starting with pat.

        pat is not checked: it may be empty, giving (1, n), or hold
        terminators, as a common prefix of two suffixes may.  Its first
        t = min(m, q) symbols, coded and packed like the keys, bound the
        keys of the suffixes that start with them: [key, key + 1) shifted
        past the q - t symbols left.  A symbol absent from the text has no
        code, and no suffix starts with pat.  A longer pat is then searched
        byte by byte within that range, as prefix_interval searches.
        """
        code, width = self.code, self.width
        q = 31 // width
        key = 0
        for symbol in pat[:q]:
            c = code[symbol]
            if not c:
                return PatternInterval(1, 0, pat)
            key = key << width | c
        shift = width * (q - min(len(pat), q))
        keys, sa = self._views
        lo = bisect_left(keys, key << shift)
        hi = bisect_left(keys, (key + 1) << shift, lo)
        if len(pat) > q and lo < hi:
            lo, hi = _byte_search(sa, text, pat, lo, hi)
        if lo >= hi:
            return PatternInterval(1, 0, pat)
        return PatternInterval(lo + 1, hi, pat)

    def top_documents(self, sp, ep, k):
        """The k documents owning the most slots of [sp, ep], as (doc, freq)
        pairs by (-freq, doc): WaveletTree.greedy_topk's answer, and like it
        raising OutOfRangeError unless 1 <= sp <= ep <= n.  Both counts
        list ids ascending and the stable argsort keeps ties in that order.
        bincount's array runs to the slice's largest id, so past 16 times
        the slice's length L one sort counts instead: O(L log L) at most,
        whatever the number of documents."""
        if not 1 <= sp <= ep <= len(self.sa):
            raise OutOfRangeError(f"interval [{sp}, {ep}] outside 1..{len(self.sa)}")
        ids = self.doc_ids[sp - 1:ep]
        if ids.max() < 16 * len(ids):
            freq = np.bincount(ids)
            docs = np.flatnonzero(freq)
            freq = freq[docs]
        else:
            docs, freq = np.unique(ids, return_counts=True)
        top = np.argsort(-freq, kind="stable")[:k]
        return list(zip(docs[top].tolist(), freq[top].tolist()))


def build_suffix_array(corpus: Corpus, wavelet=None) -> SuffixIndex:
    """SuffixIndex of corpus, by the sort of _suffix_order.

    A load passes the wavelet tree it read, which WaveletTree.from_bitmaps
    checked to route each document's length to its leaf.  When the text is
    repetitive (see DOCUMENT_PATH_TIES), its document array orders the
    sort: the later rounds sort each document's suffixes apart, and the
    tree's document order deals each document's order out to its slots.
    That path checks the result with sorts_suffixes, which only the true
    suffix array passes, so it also proves the tree's bitmaps; it raises
    InconsistentIntervalsError when the check fails.
    """
    code, width = _symbol_codes(corpus.alphabet)
    order, keys, by_document = _suffix_order(
        code[np.frombuffer(corpus.text, dtype=np.uint8)], width,
        None if wavelet is None else corpus.lengths)
    code = tuple(code.tolist())
    if not by_document:
        order += 1                              # 1-based start positions
        return SuffixIndex(order, corpus.doc_ids(order), keys, code, width)
    slots = wavelet.document_order()
    sa = np.empty(corpus.n, dtype=np.int32)
    sa[slots] = order + 1
    del order, slots
    if not sorts_suffixes(corpus.text, sa):
        raise InconsistentIntervalsError("the document array does not order the "
                                         "text's suffixes")
    return SuffixIndex(sa, corpus.doc_ids(sa), keys, code, width)


def stored_suffix_index(corpus: Corpus, sa) -> SuffixIndex:
    """SuffixIndex over a suffix array that was stored, not sorted here.

    sa must be a permutation of 1..n.  Its keys are derived from the text:
    every position's first q codes are packed in text order, then gathered
    through sa - 1.  A sa that does not sort the suffixes would make
    searches wrong; the caller checks that it does.
    """
    sa = np.asarray(sa, dtype=np.int32)
    code, width = _symbol_codes(corpus.alphabet)
    codes = code[np.frombuffer(corpus.text, dtype=np.uint8)]
    keys = _packed(codes, width, 31 // width, np.int32)[sa - 1]
    return SuffixIndex(sa, corpus.doc_ids(sa), keys, tuple(code.tolist()), width)


def _symbol_codes(alphabet: bytes):
    """(code, width): code[b] is 1 for the terminator, 2..sigma + 1 for the
    bytes of alphabet in order and 0 for others; codes take width bits."""
    code = np.zeros(256, dtype=np.uint16)
    code[[SENTINEL, *alphabet]] = np.arange(1, len(alphabet) + 2)
    return code, (len(alphabet) + 1).bit_length()


def sorts_suffixes(text: bytes, sa) -> bool:
    """Whether sa, a permutation of 1..n as int32, sorts the suffixes of
    text: adjacent ones rise in their first symbol, or tie and the suffixes
    one symbol on ascend (Burkhardt and Kärkkäinen, CPM 2003).  O(n)."""
    n = len(sa)
    isa = np.full(n + 1, -1, dtype=np.int32)    # slot of each 0-based start, -1 past the end
    isa[sa - 1] = np.arange(n, dtype=np.int32)
    rise = np.diff(np.frombuffer(text, dtype=np.uint8)[sa - 1].astype(np.int16))
    return not ((rise < 0) | (rise == 0) & (np.diff(isa[sa]) < 0)).any()


def _packed(codes, width, count, dtype):
    """key[i] = codes[i:i + count] packed, first code highest, 0 past the end."""
    n = len(codes)
    key = np.zeros(n, dtype=dtype)
    for j in range(count):
        key <<= width
        key[:max(n - j, 0)] |= codes[j:]
    return key


def _suffix_order(codes, width, lengths=None):
    """(order, keys, by_document): the 0-based start positions of the
    suffixes of a text coded by _symbol_codes, in sorted order, and the
    keys SuffixIndex searches.

    The first round packs h = 63 // width codes per position into one
    int64 (0 past the end) and sorts all positions once.  In slot order the
    sorted keys' top q = 31 // width codes are the int32 keys.  A suffix's
    rank is the first slot of its group, the run of equal keys holding it.

    The suffixes of groups of two or more stay active, carried with their
    slots in slot order.  Each later round, with ranks sorted on h
    symbols, sorts only them, by rank[i] * (n + 1) + rank[i + h] + 1 (0
    past the end): the first term keeps every group in its own slots, the
    rest orders it on 2h symbols.  Ranks are below n, so keys stay below
    n * (n + 1), within int64, and positions plus h below 2n, within int32
    up to corpus.MAX_SYMBOLS.  Groups left with one member drop out, their
    rank final (Larsson and Sadakane, "Faster suffix sorting", 2007).
    Suffixes differ in length, hence are distinct: the rounds end once no
    group is left, and the final ranks are the inverse of the suffix array.

    Given lengths, the positions each document owns (Corpus.lengths), and a
    first round that leaves more than DOCUMENT_PATH_TIES of the suffixes
    tied, by_document is True and the later rounds sort by (document,
    suffix) instead: order lists each document's suffixes in their order,
    document after document.  The first round's order, stably sorted by
    document, starts them; its keys stay those of the whole text.  Two
    suffixes of one document that tie on h symbols hold no terminator in
    them, so position i + h stays in the document and the rounds never
    compare across documents.
    """
    # Each array is dropped as soon as it is spent, which keeps the peak
    # near 40 bytes per symbol, 4 of them the int32 keys.
    n = len(codes)
    h = 63 // width
    key = _packed(codes, width, h, np.int64)
    del codes                               # freed unless the caller kept a reference
    order = np.argsort(key)
    key = key[order]
    keys = (key >> width * (h - 31 // width)).astype(np.int32)
    pos = order.astype(np.int32)            # the active suffixes, in slot order
    del order
    start = _group_starts(key)
    del key
    by_document = lengths is not None and _tied_share(start) > DOCUMENT_PATH_TIES
    if by_document:
        pos, start = _by_document(pos, start, lengths)
    slots = np.arange(n, dtype=np.int32)    # and their slots
    rank = np.empty(n + 1, dtype=np.int32)
    rank[n] = -1                            # past the end
    while True:
        group = np.where(start, slots, 0)   # slots ascend: max is the last start
        np.maximum.accumulate(group, out=group)
        rank[pos] = group
        start[:-1] &= start[1:]             # now: alone in its group
        if start.all():
            break
        active = ~start
        pos, slots, group = pos[active], slots[active], group[active]
        del active, start
        key = group.astype(np.int64)
        del group
        key *= n + 1
        nxt = pos + h
        np.minimum(nxt, n, out=nxt)         # rank[n] is past the end
        key += rank[nxt]
        del nxt
        key += 1
        order = np.argsort(key)
        key = key[order]
        pos = pos[order]
        del order
        start = _group_starts(key)
        del key
        h <<= 1
    sa = np.empty(n, dtype=np.int32)
    sa[rank[:n]] = np.arange(n, dtype=np.int32)
    return sa, keys, by_document


def _group_starts(key):
    """start[i]: sorted key[i] begins a run of equal keys."""
    start = np.empty(len(key), dtype=bool)
    start[:1] = True
    np.not_equal(key[1:], key[:-1], out=start[1:])
    return start


def _tied_share(start):
    """The share of suffixes in a group of two or more, given group starts."""
    alone = start.copy()
    alone[:-1] &= start[1:]
    return 1 - np.count_nonzero(alone) / len(start)


def _by_document(pos, start, lengths):
    """The first round's (pos, start), stably sorted by document (a radix
    sort below 2**16 documents).  Groups need no break between documents:
    a document's smallest suffix, its terminator's, never ties the previous
    document's largest, which starts with a symbol."""
    owner = np.repeat(np.arange(len(lengths), dtype=np.min_scalar_type(len(lengths))),
                      lengths)[pos]
    group = np.cumsum(start, dtype=np.int32)
    del start
    shuffle = np.argsort(owner, kind="stable")
    del owner
    return pos[shuffle], _group_starts(group[shuffle])


def as_pattern_bytes(pattern) -> bytes:
    """Normalize a query pattern to bytes; rejects empty or terminator-bearing input."""
    pat = pattern.encode("utf-8") if isinstance(pattern, str) else bytes(pattern)
    if not pat:
        raise EmptyPatternError("pattern must contain at least one symbol")
    if SENTINEL in pat:
        raise SentinelInPatternError("pattern may not contain byte 0x00")
    return pat


def pattern_interval(s: SuffixIndex, corpus: Corpus, pattern) -> PatternInterval:
    """Suffix-array interval of all suffixes starting with pattern, which is
    normalised by as_pattern_bytes; the interval carries the bytes."""
    return s.interval(corpus.text, as_pattern_bytes(pattern))


def prefix_interval(sa, text: bytes, pat: bytes) -> PatternInterval:
    """Suffix-array interval of the suffixes of text starting with pat, by
    binary search comparing byte slices.

    `sa` is the suffix array as a sequence of Python ints.  pat is not
    checked: it may be empty, giving (1, len(sa)), or hold terminators.
    """
    sp, ep = _byte_search(sa, text, pat, 0, len(sa))
    return PatternInterval(sp + 1, ep, pat) if sp < ep else PatternInterval(1, 0, pat)


def _byte_search(sa, text, pat, lo, hi):
    """[sp, ep): the slots of [lo, hi) whose suffixes start with pat.

    Sorted suffixes keep their first m = len(pat) bytes in order, so two
    bisects over them find the first slot at or above pat and the first
    above it (Manber and Myers, SIAM J. Comput. 1993)."""
    m = len(pat)
    prefix = lambda p: text[p - 1:p - 1 + m]
    sp = bisect_left(sa, pat, lo, hi, key=prefix)
    return sp, bisect_right(sa, pat, sp, hi, key=prefix)
