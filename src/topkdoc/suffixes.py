"""Suffix array construction and pattern interval search.

The suffix array holds 1-based text positions sorted by the suffixes they
start; the parallel document array records which document owns each sorted
suffix.  Pattern occurrences form one contiguous run of suffix-array slots,
found by binary search in O(m log n) byte comparisons.

Suffixes are sorted by prefix doubling in numpy, one argsort of a packed
int64 key per round: the rank of a suffix's first k symbols times a radix,
plus the rank of the next k.  Loading a container without a stored suffix
array reruns the same sort.
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


def build_suffix_array(corpus: Corpus) -> SuffixIndex:
    sa = _suffix_order(corpus.text) + 1         # 1-based start positions
    return SuffixIndex(sa=sa, doc_ids=corpus.doc_ids(sa))


def _suffix_order(text: bytes) -> np.ndarray:
    """0-based start positions of text's suffixes, in sorted order.

    Round k sorts the key rank[i] * m + rank[i + k] + 1 (0 past the end).
    Ranks never exceed max(n - 1, 255), so m = max(n, 256) + 1 keeps the
    halves apart.  Suffixes differ in length, hence are distinct: the
    rounds end once every rank is, and the order is then unique.
    """
    n = len(text)
    m = max(n, 256) + 1
    rank = np.frombuffer(text, dtype=np.uint8).astype(np.int64)
    k = 1
    while True:
        key = rank * m
        key[:-k] += rank[k:] + 1
        order = np.argsort(key)
        key = key[order]
        rank[order] = np.cumsum(np.concatenate(([False], key[1:] != key[:-1])))
        if rank[order[-1]] == n - 1:
            return order
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
