"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots,
found by binary search in O(m log n) byte comparisons.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import SENTINEL, Corpus
from .errors import EmptyPatternError, SentinelInPatternError

_SMALL_N = 512


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


def build_suffix_array(corpus: Corpus) -> SuffixIndex:
    order = _suffix_order(corpus.text)          # 0-based start positions
    sa = order.astype(np.int64) + 1
    return SuffixIndex(sa=sa, doc_ids=corpus.doc_ids(sa))


def _suffix_order(text: bytes) -> np.ndarray:
    n = len(text)
    if n <= _SMALL_N:
        return np.asarray(sorted(range(n), key=lambda i: text[i:]), dtype=np.int64)
    # Prefix doubling: sort by (rank[i], rank[i+k]) and refine until all
    # ranks are distinct.  Terminators guarantee distinct suffixes.
    data = np.frombuffer(text, dtype=np.uint8)
    rank = data.astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[:-k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1 = rank[order]
        r2 = key2[order]
        diff = np.empty(n, dtype=np.int64)
        diff[0] = 0
        diff[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(diff)
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64)
        k <<= 1


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
    pat = as_pattern_bytes(pattern)
    text = corpus.text
    sa = memoryview(s.sa)               # plain ints, not numpy scalars
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
