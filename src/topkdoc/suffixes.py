"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots.

Next to them the index keeps each slot's key: the codes of its suffix's
first q symbols packed into an int32, q = 31 // width for codes of width
bits (10 on DNA, 6 on 27 symbols).  The suffixes are sorted, so the keys
never decrease, and a pattern of m symbols has its interval found by two
binary searches over them, on the codes of its first min(m, q) symbols.
Only a pattern longer than q is then searched byte by byte, by two bisects
over the occ slots of that range keyed by each suffix's first m bytes:
O(m log occ) byte comparisons.  prefix_interval runs the same byte search
over the whole suffix array.

Suffixes are sorted by prefix doubling in numpy.  The first round sorts
every suffix once by its first symbols, as many as pack into one int64
key (21 on DNA, 12 on 27 symbols); the keys above are its top q symbols.
Each later round doubles the sorted prefix length but re-sorts only the
suffixes still tied with another, one argsort of a packed int64 key: the
rank of a suffix's first h symbols times a radix, plus the rank of the
next h.  Loading a container without a stored suffix array reruns the same
sort; one with a stored suffix array derives the keys from the text.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .corpus import SENTINEL, Corpus
from .errors import EmptyPatternError, SentinelInPatternError


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
    sa: np.ndarray       # 1-based text positions, suffix-sorted; int32 below 2**30 symbols
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
        pairs by (-freq, doc): WaveletTree.greedy_topk's answer.  Both counts
        list ids ascending and the stable argsort keeps ties in that order.
        bincount's array runs to the slice's largest id, so past 16 times
        the slice's length L one sort counts instead: O(L log L) at most,
        whatever the number of documents."""
        ids = self.doc_ids[sp - 1:ep]
        if ids.max() < 16 * len(ids):
            freq = np.bincount(ids)
            docs = np.flatnonzero(freq)
            freq = freq[docs]
        else:
            docs, freq = np.unique(ids, return_counts=True)
        top = np.argsort(-freq, kind="stable")[:k]
        return list(zip(docs[top].tolist(), freq[top].tolist()))


def build_suffix_array(corpus: Corpus) -> SuffixIndex:
    order, keys = _suffix_order(corpus.text)
    sa = order + 1                              # 1-based start positions
    code, width = _symbol_codes(corpus.text)
    return SuffixIndex(sa, corpus.doc_ids(sa), keys, tuple(code.tolist()), width)


def stored_suffix_index(corpus: Corpus, sa) -> SuffixIndex:
    """SuffixIndex over a suffix array that was stored, not sorted here.

    sa must be a permutation of 1..n.  Its keys are derived from the text:
    every position's first q codes are packed in text order, then gathered
    through sa - 1.  Keys that descend anywhere would make searches wrong;
    the caller checks them (a partial check that sa sorts the suffixes).
    """
    n = corpus.n
    sa = np.asarray(sa).astype(np.int32 if n < 2**30 else np.int64)
    code, width = _symbol_codes(corpus.text)
    codes = code[np.frombuffer(corpus.text, dtype=np.uint8)]
    keys = _packed(codes, width, 31 // width, np.int32)[sa - 1]
    return SuffixIndex(sa, corpus.doc_ids(sa), keys, tuple(code.tolist()), width)


def _symbol_codes(text: bytes):
    """(code, width): code[b] is 1..P for the P distinct bytes of text, in
    byte order, and 0 for bytes absent from it; codes take width bits."""
    present = np.bincount(np.frombuffer(text, dtype=np.uint8), minlength=256) > 0
    code = np.where(present, np.cumsum(present), 0).astype(np.uint16)
    return code, int(present.sum()).bit_length()


def _packed(codes, width, count, dtype):
    """key[i] = codes[i:i + count] packed, first code highest, 0 past the end."""
    n = len(codes)
    key = np.zeros(n, dtype=dtype)
    for j in range(count):
        key <<= width
        key[:max(n - j, 0)] |= codes[j:]
    return key


def _suffix_order(text: bytes):
    """(order, keys): the 0-based start positions of text's suffixes in
    sorted order, and the int32 keys SuffixIndex searches.

    The first round packs h symbols per position into one int64 and sorts
    all positions once: the symbols present get codes 1..sigma (0 past the
    end) of b = sigma.bit_length() bits, and h = 63 // b codes fit below
    the sign bit.  In slot order the sorted keys' top q = 31 // b codes are
    the int32 keys.  A suffix's rank is the slot where its group, the run
    of equal keys holding it, starts.

    The suffixes of groups of two or more stay active, carried with their
    slots in slot order.  Each later round, with ranks sorted on h
    symbols, sorts only them, by rank[i] * (n + 1) + rank[i + h] + 1 (0
    past the end): the first term keeps every group in its own slots, the
    rest orders it on 2h symbols.  Ranks are below n, so keys stay below
    n * (n + 1), within int64 for n up to 3 * 10**9.  Groups left with one
    member drop out, their rank final (Larsson and Sadakane, "Faster
    suffix sorting", 2007).  Suffixes differ in length, hence are
    distinct: the rounds end once no group is left, and the final ranks
    are the inverse of the suffix array.
    """
    # Each array is dropped as soon as it is spent, which keeps the peak
    # near 40 bytes per symbol, 4 of them the int32 keys.
    n = len(text)
    itype = np.int32 if n < 2**30 else np.int64  # i + h < 2n must fit
    code, width = _symbol_codes(text)
    h = 63 // width
    key = _packed(code[np.frombuffer(text, dtype=np.uint8)], width, h, np.int64)
    order = np.argsort(key)
    key = key[order]
    keys = (key >> width * (h - 31 // width)).astype(np.int32)
    pos = order.astype(itype)               # the active suffixes, in slot order
    del order
    slots = np.arange(n, dtype=itype)       # and their slots
    rank = np.empty(n + 1, dtype=itype)
    rank[n] = -1                            # past the end
    while True:
        start = np.empty(len(key), dtype=bool)
        start[:1] = True
        np.not_equal(key[1:], key[:-1], out=start[1:])
        del key
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
        h <<= 1
    sa = np.empty(n, dtype=itype)
    sa[rank[:n]] = np.arange(n, dtype=itype)
    return sa, keys


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
