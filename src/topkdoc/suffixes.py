"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots.

Next to them the index keeps each slot's key: the codes (see _symbol_codes)
of its suffix's first q symbols packed into an int32, q = 31 // width for
codes of width bits (10 on DNA, 6 on 27 symbols).  The suffixes are
sorted, so the keys never decrease, and a pattern's first min(m, q)
symbols, coded, bound the keys of the suffixes that start with them.  A
table of first slots narrows that search, as Manber and Myers' buckets do
(SIAM J. Comput. 1993): first[p] is the first slot whose key's top t codes
are at least p, t the most codes whose 2**(t * width) entries stay within
n // 8 (at most half a byte per symbol; 5 on DNA and 3 on 27 symbols at
half a million symbols, 0 below 16).  A pattern of m <= t symbols reads
its interval from two entries; a longer one runs two binary searches over
the keys between the entries of its first t symbols.  Only a pattern
longer than q is then searched byte by byte, by two bisects over the occ
slots of that range keyed by each suffix's first m bytes (_byte_search):
O(m log occ) byte comparisons.

Suffixes are sorted by prefix doubling in numpy.  The first round sorts
every suffix once by its first h symbols, as many as fit one int64 key
next to the bits of the suffix's index (at half a million symbols, 14 on
DNA and 8 on 27 symbols); the keys above are its top q symbols.  Each
later round doubles the sorted prefix length but re-sorts only the
suffixes still tied with another, by a packed int64 key: the rank of a
suffix's first h symbols times a radix, plus the rank of the next h.
Every sort is one _sort: numpy's value sort of each key packed with its
index, which is faster than an argsort of the keys.

Loading a container without a stored suffix array reruns the sort, given
the wavelet tree it read, and takes one of two paths after the first
round.  The tree's node sizes were checked against the document lengths
when it was read (WaveletTree.from_levels), so each document holds as
many of its slots as it owns positions.  Where at most DOCUMENT_PATH_TIES
of the suffixes are still tied, the sort path goes on as a build does and
trusts the order of the bits inside each node.  Where more are, the ties
run across documents, as in revisions of one text: the document path
sorts by (document, suffix), which within a document is the generalized
order, and deals each document's order out to its slots of the tree's
document array.  It then checks the result with sorts_suffixes
(Burkhardt and Kärkkäinen, CPM 2003), which only the true suffix array
passes; that proves the tree's bitmaps too.  A container with a stored
suffix array skips the sort: the keys are derived from the text, and the
same check proves the stored order.

Every path ends in the one constructor, SuffixIndex(corpus, sa, keys),
which derives the document array, the table of first slots and, given no
keys, the keys, and makes the four arrays read-only.
"""

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .corpus import SENTINEL, Corpus
from .errors import (EmptyPatternError, InconsistentIntervalsError, OutOfRangeError,
                     SentinelInPatternError, positive)

# A sort given the document array (build_suffix_array's wavelet) takes the
# document path when more than this share of the suffixes is still tied
# after the first round.  Measured on the benchmark's workloads at seed
# 201: 0.22% on uniform DNA, where one later round of those few ends the
# sort and the document path, forced, took 2.8 times as long (104 against
# 37 ms); 99.67% on revised documents, where the ties run across revisions
# for eight more rounds and the document path took 101 against 173 ms.
DOCUMENT_PATH_TIES = 0.5

# top_documents counts a slice of at most this many slots in Python, past
# it in numpy; the bound rests on the slice's length alone.  It was fixed
# before the benchmark was measured, where a probe over random slices of
# versioned-xlight's document array found numpy ahead at 48 slots (8.5
# against 9.2 µs).  tools/slice_count_crossover.py times both counts: at
# seed 201, on a 2-vCPU VM, the Python sort took 2.0 / 3.2 / 5.5 µs at 8 /
# 16 / 32 slots against numpy's 14.1 / 14.5 / 9.7, and the two met near 64.
SHORT_SLICE = 32


def top_of_few(ids, k):
    """The k (doc, freq) pairs of most slots among ids, a non-empty list of
    plain ints, by (-freq, doc): ids sorted in Python and counted in one
    pass over their runs, for lists of at most SHORT_SLICE ids."""
    ids = sorted(ids)
    pairs = []
    doc, freq = ids[0], 0
    for d in ids:
        if d != doc:
            pairs.append((doc, freq))
            doc, freq = d, 0
        freq += 1
    pairs.append((doc, freq))
    pairs.sort(key=itemgetter(1), reverse=True)    # keeps tied docs ascending
    return pairs[:k]


class PatternInterval(NamedTuple):
    """Suffix-array index range [sp, ep] of a pattern; empty when ep < sp.

    `pattern` is the searched bytes, as pattern_interval normalised them;
    it takes no part in equality, hashing or the repr.  An interval equals
    only another PatternInterval, never a plain tuple.  It is a named
    tuple, so immutable, and it unpacks and indexes as (sp, ep, pattern)."""

    sp: int
    ep: int
    pattern: bytes = b""

    @property
    def is_empty(self):
        return self.ep < self.sp

    @property
    def occurrences(self):
        return 0 if self.is_empty else self.ep - self.sp + 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:2] == other[:2]

    __ne__ = object.__ne__          # not tuple's: the negation of __eq__

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"PatternInterval(sp={self.sp!r}, ep={self.ep!r})"


class SuffixIndex:
    """The suffix array of a corpus, with its document array, keys and
    table of first slots.

    sa holds the 1-based text positions, suffix-sorted; doc_ids[i] is the
    document owning position sa[i]; keys[i], never decreasing, packs the
    codes of suffix sa[i]'s first q = 31 // width symbols; first[p], for p
    in 0..2**(t * width), is the first slot whose key's top t codes are at
    least p (t = _table_codes(n, width)), so it starts at 0, ends at n and
    never decreases.  All four are int32 arrays and read-only.  code maps
    each byte to its code, 1..sigma + 1 (1 for the terminator) or 0 if
    absent; codes take width bits.

    SuffixIndex(corpus, sa, keys=None) is the one place an index is
    assembled.  sa is a permutation of 1..n that sorts the suffixes of
    corpus.text; an int32 array is taken over, as keys are, not copied,
    and any other is converted to one.  Without keys it derives them from
    the text: every position's first q codes are packed in text order,
    then gathered through sa - 1.  The table is one binary search of the
    keys per entry.  A sa that does not sort the suffixes would make
    searches wrong; the caller checks that it does (sorts_suffixes).
    """

    __slots__ = ("sa", "doc_ids", "keys", "first", "code", "width", "t", "_views")

    def __init__(self, corpus: Corpus, sa, keys=None):
        code, width = _symbol_codes(corpus.alphabet)
        q = 31 // width
        sa = np.asarray(sa, dtype=np.int32)
        if keys is None:
            codes = code[np.frombuffer(corpus.text, dtype=np.uint8)]
            keys = _packed(codes, width, q, np.int32)[sa - 1]
            del codes
        t = _table_codes(len(sa), width)
        # Bounds below 2**(q * width) <= 2**30 stay int32, as the keys are:
        # searchsorted then copies neither.
        bounds = np.arange((1 << t * width) + 1, dtype=np.int32) << width * (q - t)
        first = np.searchsorted(keys, bounds).astype(np.int32)
        self.sa, self.doc_ids, self.keys, self.first = sa, corpus.doc_ids(sa), keys, first
        for arr in (self.sa, self.doc_ids, self.keys, self.first):
            arr.flags.writeable = False
        self.code, self.width, self.t = tuple(code.tolist()), width, t
        # memoryviews yield plain ints, which bisect, slicing and sorted want.
        self._views = (memoryview(keys), memoryview(sa), memoryview(self.doc_ids),
                       memoryview(first))

    def __len__(self):
        return len(self.sa)

    def interval(self, text, pat: bytes) -> PatternInterval:
        """Suffix-array interval of the suffixes of text starting with pat.

        pat is not checked: it may be empty, giving (1, n), or hold
        terminators, as a common prefix of two suffixes may.  Its first
        r = min(m, q) symbols, coded and packed like the keys, bound the
        keys of the suffixes that start with them: [key, key + 1) shifted
        past the q - r symbols left.  A symbol absent from the text has no
        code, and no suffix starts with pat.  When m <= t those bounds are
        two entries of first, [key, key + 1) shifted past t - m symbols.
        Otherwise two bisects find them among the keys from first[top] to
        first[top + 1], top being pat's first t codes.  A pat longer than q
        is then searched byte by byte within that range, by _byte_search.
        """
        code, width, t = self.code, self.width, self.t
        q = 31 // width
        key = 0
        for symbol in pat[:q]:
            c = code[symbol]
            if not c:
                return PatternInterval(1, 0, pat)
            key = key << width | c
        keys, sa, _, first = self._views
        m = len(pat)
        if m <= t:
            shift = width * (t - m)
            lo, hi = first[key << shift], first[(key + 1) << shift]
        else:
            r = min(m, q)
            top = key >> width * (r - t)
            shift = width * (q - r)
            end = first[top + 1]
            lo = bisect_left(keys, key << shift, first[top], end)
            hi = bisect_left(keys, (key + 1) << shift, lo, end)
            if m > q and lo < hi:
                lo, hi = _byte_search(sa, text, pat, lo, hi)
        if lo >= hi:
            return PatternInterval(1, 0, pat)
        return PatternInterval(lo + 1, hi, pat)

    def top_documents(self, sp, ep, k):
        """The k documents owning the most slots of [sp, ep], as (doc, freq)
        pairs by (-freq, doc): WaveletTree.greedy_topk's answer, and like it
        raising OutOfRangeError unless 1 <= sp <= ep <= n and
        InvalidParameterError unless k is an integer >= 1.

        A slice of L <= SHORT_SLICE slots is sorted in Python, read as
        plain ints, and counted in one pass over its runs: on slices that
        short numpy's fixed cost per call is most of its time (SHORT_SLICE
        = 32 keeps the bound below where the two counts meet).  A longer one
        is counted by counts and ranked by ranked, as the build's preorder
        pass ranks a node's sparse counts, so every count is O(L log L) at
        most, whatever the number of documents."""
        if not 1 <= sp <= ep <= len(self.sa):
            raise OutOfRangeError(f"interval [{sp}, {ep}] outside 1..{len(self.sa)}")
        k = positive("k", k)
        if ep - sp < SHORT_SLICE:
            return top_of_few(self._views[2][sp - 1:ep], k)
        return ranked(*self.counts(sp, ep), k)

    def counts(self, sp, ep):
        """(docs, freqs): count of the slice [sp, ep] of the document array,
        1 <= sp <= ep <= n unchecked, for top_documents and the exact
        frequencies a locus-served query reads (engine.frequencies)."""
        return count(self.doc_ids[sp - 1:ep])


def count(ids, weights=None):
    """(ids, counts): the distinct values of ids, a non-empty array of ints
    >= 0, ascending, and how often each occurs or, given weights (floats
    >= 1 holding whole numbers, one per id), the sum of its weights, as
    int64.

    The one count of the document array, for a slice of it
    (SuffixIndex.counts) and for the parts a node of the build's preorder
    pass sums (sgst._summed): bincount, whose array runs to the largest
    id, or past 16 L one np.unique sort, so it is O(L log L) at most for L
    ids, whatever the number of documents."""
    if ids.max() < 16 * len(ids):
        counts = np.bincount(ids, weights)
        ids = np.flatnonzero(counts)
        return ids, counts[ids].astype(np.int64, copy=False)
    if weights is None:
        return np.unique(ids, return_counts=True)
    ids, ranks = np.unique(ids, return_inverse=True)
    return ids, np.bincount(ranks, weights).astype(np.int64)


def ranked(ids, counts, k):
    """The first k (id, count) pairs of count's output by (-count, id), as
    plain ints, fewer when fewer ids were counted: the ids ascend, so one
    stable sort by -count keeps ties in that order."""
    top = np.argsort(-counts, kind="stable")[:k]
    return list(zip(ids[top].tolist(), counts[top].tolist()))


def build_suffix_array(corpus: Corpus, wavelet=None) -> SuffixIndex:
    """SuffixIndex of corpus, by the sort of _suffix_order.

    A load passes the wavelet tree it read, which WaveletTree.from_levels
    checked to route each document's length to its leaf.  When the text is
    repetitive (see DOCUMENT_PATH_TIES), its document array orders the
    sort: the later rounds sort each document's suffixes apart, and the
    tree's document order deals each document's order out to its slots.
    That path checks the result with sorts_suffixes, which only the true
    suffix array passes, so it also proves the tree's bitmaps; it raises
    InconsistentIntervalsError when the check fails.  The two paths differ
    only in how sa is laid out; both pass the first round's keys to the
    constructor, which would otherwise derive them in one more pass over
    the text.
    """
    code, width = _symbol_codes(corpus.alphabet)
    order, keys, by_document = _suffix_order(
        code[np.frombuffer(corpus.text, dtype=np.uint8)], width,
        None if wavelet is None else corpus.doc_ids)
    order += 1                                  # 1-based start positions
    if by_document:
        slots = wavelet.document_order()        # decoded before sa is allocated
        sa = np.empty(corpus.n, dtype=np.int32)
        sa[slots] = order
        del order, slots
        if not sorts_suffixes(corpus.text, sa):
            raise InconsistentIntervalsError("the document array does not order the "
                                             "text's suffixes")
    else:
        sa = order
    return SuffixIndex(corpus, sa, keys)


def _symbol_codes(alphabet: bytes):
    """(code, width): code[b] is 1 for the terminator, 2..sigma + 1 for the
    bytes of alphabet in order and 0 for others; codes take width bits."""
    code = np.zeros(256, dtype=np.uint16)
    code[[SENTINEL, *alphabet]] = np.arange(1, len(alphabet) + 2)
    return code, (len(alphabet) + 1).bit_length()


def _table_codes(n, width):
    """t: the codes of width bits SuffixIndex.first is indexed by for n
    suffixes, the most whose 2**(t * width) entries stay within n // 8, at
    most q = 31 // width; 0 below 16 symbols."""
    return max(0, min(31 // width, ((n // 8).bit_length() - 1) // width))


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


def _suffix_order(codes, width, doc_ids=None):
    """(order, keys, by_document): the 0-based start positions of the
    suffixes of a text coded by _symbol_codes, in sorted order, and the
    keys SuffixIndex searches.

    The first round packs h = _first_round_length(n, width) codes per
    position into one int64 (0 past the end), which leaves _sort the low
    bits for the position, and sorts all positions once.  h >= q for every
    n up to corpus.MAX_SYMBOLS, so in slot order the sorted keys' top
    q = 31 // width codes are the int32 keys.  A suffix's rank is the first
    slot of its group, the run of equal keys holding it.

    The suffixes of groups of two or more stay active, carried with their
    slots in slot order.  Each later round, with ranks sorted on h
    symbols, sorts only them, by rank[i] * (n + 1) + rank[i + h] + 1 (0
    past the end): the first term keeps every group in its own slots, the
    rest orders it on 2h symbols.  Ranks are below n, so keys stay below
    n * (n + 1), within int64, and positions plus h below 2n, within int32
    up to corpus.MAX_SYMBOLS.  _sort packs them with their index while the
    largest key fits 63 bits next to it, below about 2**21 symbols, and
    argsorts them past that.  Groups left with one member drop out, their
    rank final (Larsson and Sadakane, "Faster suffix sorting", 2007).
    Suffixes differ in length, hence are distinct: the rounds end once no
    group is left, and the final ranks are the inverse of the suffix array.

    Given doc_ids, the owner of each 1-based position (Corpus.doc_ids), and a
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
    # near 36 bytes per symbol, 4 of them the int32 keys.
    n = len(codes)
    h = _first_round_length(n, width)
    key = _packed(codes, width, h, np.int64)
    del codes                               # freed unless the caller kept a reference
    key, order = _sort(key)
    keys = (key >> width * (h - 31 // width)).astype(np.int32)
    pos = order.astype(np.int32)            # the active suffixes, in slot order
    del order
    start = _group_starts(key)
    del key
    by_document = doc_ids is not None and _tied_share(start) > DOCUMENT_PATH_TIES
    if by_document:
        pos, start = _by_document(pos, start, doc_ids)
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
        key, order = _sort(key)
        pos = pos[order]
        del order
        start = _group_starts(key)
        del key
        h <<= 1
    sa = np.empty(n, dtype=np.int32)
    sa[rank[:n]] = np.arange(n, dtype=np.int32)
    return sa, keys, by_document


def _index_bits(n):
    """Bits that hold every index of n elements: b = bit length of n - 1."""
    return max(n - 1, 0).bit_length()


def _first_round_length(n, width):
    """h: the codes of width bits one first-round key packs for a text of
    n symbols, leaving _index_bits(n) of 63 bits to _sort."""
    return (63 - _index_bits(n)) // width


def _sort(key):
    """(key sorted, order): order sorts key, an int64 array of values >= 0,
    which the call consumes.

    With b = _index_bits(len(key)), each key is shifted left by b bits and
    its index ORed into them, and one in-place sort sorts the packed values:
    numpy sorts plain int64 values with its SIMD sort, which np.argsort
    does not use.  Packed values are distinct, so ties keep index order:
    order is the stable argsort of key.  A key past 63 - b bits cannot
    pack, and np.argsort sorts instead, whose order among ties is its own.
    """
    n = len(key)
    b = _index_bits(n)
    if int(key.max(initial=0)) >> (63 - b):
        order = np.argsort(key)
        return key[order], order
    order = np.arange(n)                    # the indexes, then the order
    key <<= b
    key |= order
    key.sort()
    np.bitwise_and(key, (1 << b) - 1, out=order)
    key >>= b
    return key, order


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


def _by_document(pos, start, doc_ids):
    """The first round's (pos, start), stably sorted by document: _sort
    packs each position's owner with its index, whatever the number of
    documents.  Groups need no break between documents: a document's
    smallest suffix, its terminator's, never ties the previous document's
    largest, which starts with a symbol."""
    owner = doc_ids(pos + 1).astype(np.int64)
    group = np.cumsum(start, dtype=np.int32)
    del start
    shuffle = _sort(owner)[1]
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


def _byte_search(sa, text, pat, lo, hi):
    """[sp, ep): the slots of [lo, hi) whose suffixes start with pat.

    Sorted suffixes keep their first m = len(pat) bytes in order, so two
    bisects over them find the first slot at or above pat and the first
    above it (Manber and Myers, SIAM J. Comput. 1993)."""
    m = len(pat)
    prefix = lambda p: text[p - 1:p - 1 + m]
    sp = bisect_left(sa, pat, lo, hi, key=prefix)
    return sp, bisect_right(sa, pat, sp, hi, key=prefix)
