"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots,
found by binary search in O(m log n) byte comparisons.

Suffixes are sorted by prefix doubling in numpy.  The first round sorts
every suffix once by its first symbols, as many as pack into one int64
key (21 on DNA, 12 on 27 symbols).  Each later round doubles the sorted
prefix length but re-sorts only the suffixes still tied with another, one
argsort of a packed int64 key: the rank of a suffix's first h symbols
times a radix, plus the rank of the next h.  Loading a container without
a stored suffix array reruns the same sort.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import SENTINEL, Corpus
from .errors import EmptyPatternError, SentinelInPatternError


@dataclass(frozen=True)
class PatternInterval:
    """Suffix-array index range [sp, ep] of a pattern; empty when ep < sp."""

    sp: int
    ep: int

    @property
    def is_empty(self):
        return self.ep < self.sp

    @property
    def occurrences(self):
        return 0 if self.is_empty else self.ep - self.sp + 1

    @classmethod
    def empty(cls):
        return cls(1, 0)


@dataclass(frozen=True)
class SuffixIndex:
    sa: np.ndarray       # 1-based text positions, suffix-sorted
    doc_ids: np.ndarray  # doc_ids[i] = document owning position sa[i]

    def __len__(self):
        return len(self.sa)

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
    sa = _suffix_order(corpus.text) + 1         # 1-based start positions
    return SuffixIndex(sa=sa, doc_ids=corpus.doc_ids(sa))


def _suffix_order(text: bytes) -> np.ndarray:
    """0-based start positions of text's suffixes, in sorted order.

    The first round packs q symbols per position into one int64 and sorts
    all positions once: the symbols present get codes 1..sigma (0 past the
    end) of b = sigma.bit_length() bits, and q = 63 // b codes fit below
    the sign bit.  A suffix's rank is the slot where its group, the run of
    equal keys holding it, starts.

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
    # near 36 bytes per symbol.
    n = len(text)
    itype = np.int32 if n < 2**30 else np.int64  # i + h < 2n must fit
    symbols = np.frombuffer(text, dtype=np.uint8)
    present = np.bincount(symbols, minlength=256) > 0
    codes = np.cumsum(present, dtype=np.uint16)[symbols]
    width = int(present.sum()).bit_length()
    h = 63 // width
    key = np.zeros(n, dtype=np.int64)
    for j in range(h):
        key <<= width
        key[:max(n - j, 0)] |= codes[j:]
    del codes
    order = np.argsort(key)
    key = key[order]
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
    sa = np.empty(n, dtype=np.int64)
    sa[rank[:n]] = np.arange(n)
    return sa


def as_pattern_bytes(pattern) -> bytes:
    """Normalize a query pattern to bytes; rejects empty or terminator-bearing input."""
    pat = pattern.encode("utf-8") if isinstance(pattern, str) else bytes(pattern)
    if not pat:
        raise EmptyPatternError("pattern must contain at least one symbol")
    if SENTINEL in pat:
        raise SentinelInPatternError("pattern may not contain byte 0x00")
    return pat


def pattern_interval(s: SuffixIndex, corpus: Corpus, pattern) -> PatternInterval:
    """Suffix-array interval of all suffixes starting with pattern."""
    return prefix_interval(memoryview(s.sa), corpus.text, as_pattern_bytes(pattern))


def prefix_interval(sa, text: bytes, pat: bytes) -> PatternInterval:
    """Suffix-array interval of the suffixes of text starting with pat.

    `sa` is the suffix array as a sequence of Python ints.  pat is not
    checked: it may be empty, giving (1, n), or hold terminators, as a
    common prefix of two suffixes may.
    """
    m = len(pat)

    lo, hi = 0, len(sa)                 # first suffix with prefix >= pat
    above = hi                          # a suffix with prefix > pat, if any
    while lo < hi:
        mid = (lo + hi) // 2
        a = sa[mid] - 1
        prefix = text[a:a + m]
        if prefix < pat:
            lo = mid + 1
        else:
            hi = mid
            if prefix != pat:
                above = mid
    sp = lo

    hi = above                          # first suffix with prefix > pat
    while lo < hi:
        mid = (lo + hi) // 2
        a = sa[mid] - 1
        if text[a:a + m] <= pat:
            lo = mid + 1
        else:
            hi = mid
    ep = lo

    if sp >= ep:
        return PatternInterval.empty()
    return PatternInterval(sp + 1, ep)
