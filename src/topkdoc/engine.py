"""Query engine tying the pieces together.

A query locates the pattern's suffix-array interval, asks the sampled tree
for a marked ancestor contained in it, seeds a bounded min-heap with that
node's precomputed candidates, and repairs the two uncovered flanks with
the chosen strategy: a length-ordered greedy traversal, a pruned DFS, or a
per-position select scan.  Whenever no marked ancestor applies (sampling
too sparse, k above the precomputed ceiling, or the sampled tree disabled)
the engine falls back to a full greedy traversal of the whole interval.
Final frequencies are recounted exactly over the full interval: they are
the exact top-k, listed by (-freq, doc).  Among documents tied at the k-th
frequency, a query answered through a marked node may return any of them;
only the full traversal picks the lowest ids.
"""

import heapq
from dataclasses import dataclass, field

from .corpus import Corpus, ingest
from .errors import OutOfRangeError, UnknownStrategyError
from .sgst import SGST, build_sgst, candidates_of, find_locus
from .suffixes import SuffixIndex, as_pattern_bytes, build_suffix_array, pattern_interval
from .wavelet import WaveletTree, tracked_root

GREEDY = "greedy"
DFS = "dfs"
SELECT = "select"
STRATEGIES = (GREEDY, DFS, SELECT)


def kstar(k):
    """Smallest power of two >= k; the candidate level serving k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return 1 if k == 1 else 1 << (k - 1).bit_length()


class CandidateHeap:
    """Min-heap of at most `capacity` (doc, freq) candidates.

    The top is the current k-th best frequency (ties surface the largest
    doc id first, so lower ids survive eviction).  Offering a document
    already present updates its frequency in place; membership is checked
    by scanning, which is the right trade-off at these capacities.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries = []  # (freq, -doc)

    def __len__(self):
        return len(self._entries)

    def offer(self, doc, freq):
        entries = self._entries
        for i, (f, negd) in enumerate(entries):
            if negd == -doc:
                if freq != f:
                    entries[i] = (freq, negd)
                    heapq.heapify(entries)
                return
        if len(entries) < self.capacity:
            heapq.heappush(entries, (freq, -doc))
        elif freq > entries[0][0]:
            heapq.heapreplace(entries, (freq, -doc))

    def kth_frequency(self):
        """Current k-th best frequency; 0 while below capacity."""
        if len(self._entries) < self.capacity:
            return 0
        return self._entries[0][0]

    def members(self):
        return [(-negd, f) for f, negd in self._entries]


def select_scan(w: WaveletTree, sp, ep, cov_sp, cov_ep, heap: CandidateHeap):
    """Offer every document of [sp, ep] outside the covered [cov_sp, cov_ep].

    The covered interval may be empty (cov_ep < cov_sp), in which case the
    whole of [sp, ep] is scanned.  Each position costs one access; each
    distinct document costs one exact count over [sp, ep] (repeats would be
    idempotent offers, so they are skipped).  Returns (positions scanned,
    offers made).
    """
    if cov_ep >= cov_sp and not (sp <= cov_sp and cov_ep <= ep):
        raise OutOfRangeError("covered interval must sit inside the scanned one")
    if cov_ep >= cov_sp:
        ranges = (range(sp, cov_sp), range(cov_ep + 1, ep + 1))
    else:
        ranges = (range(sp, ep + 1),)
    access = w.access
    doc_freq = w.doc_freq
    seen = set()
    scanned = 0
    for rng in ranges:
        for pos in rng:
            scanned += 1
            doc = access(pos)
            if doc not in seen:
                seen.add(doc)
                heap.offer(doc, doc_freq(doc, sp, ep))
    return scanned, len(seen)


@dataclass
class QueryStats:
    """Work counters and locus information for one query."""

    kstar: int = 0
    g: int = 0
    used_sgst: bool = False
    locus_found: bool = False
    locus_sp: int = 0
    locus_ep: int = 0
    positions_scanned: int = 0
    docs_emitted: int = 0
    heap_offers: int = 0


@dataclass(frozen=True)
class TopKResult:
    """Ranked (doc, freq) pairs, listed by (-freq, doc).

    The frequencies are the exact top-k.  Which documents tied at the k-th
    frequency are listed is up to the strategy unless the query took the
    full traversal, which lists the lowest ids.
    """

    pairs: list
    pattern: bytes
    k: int
    variant: str
    stats: QueryStats = field(compare=False, repr=False, default=None)


@dataclass
class Index:
    """Everything needed to answer queries over one ingested collection."""

    corpus: Corpus
    suffixes: SuffixIndex
    wavelet: WaveletTree
    sgst: SGST
    rank_step: int = 64
    store_suffix_array: bool = False


def build_index(documents, *, g_prime=400, k_max=16, variant="light",
                rank_step=64) -> Index:
    """Ingest documents and build every query structure over them."""
    if rank_step < 1:
        raise ValueError("rank_step must be positive")
    corpus = documents if isinstance(documents, Corpus) else ingest(documents)
    s = build_suffix_array(corpus)
    w = WaveletTree(s.doc_ids, corpus.d, sample_step=rank_step)
    x = build_sgst(corpus, s, w, g_prime=g_prime, k_max=k_max,
                   variant=variant, sample_step=rank_step)
    return Index(corpus=corpus, suffixes=s, wavelet=w, sgst=x, rank_step=rank_step)


def query_topk(index: Index, pattern, k, strategy=GREEDY, use_sgst=True) -> TopKResult:
    """The k documents where pattern occurs most often.

    Returns fewer than k pairs when fewer documents match, and an empty
    result when the pattern does not occur at all.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategyError(f"strategy must be one of {STRATEGIES}")
    if k < 1:
        raise ValueError("k must be at least 1")
    w = index.wavelet
    x = index.sgst
    stats = QueryStats(kstar=kstar(k), g=kstar(k) * x.g_prime)

    pat = as_pattern_bytes(pattern)
    interval = pattern_interval(index.suffixes, index.corpus, pat)
    if interval.is_empty:
        return TopKResult([], pat, k, x.variant, stats)
    sp, ep = interval.sp, interval.ep

    locus = None
    if use_sgst and stats.kstar <= x.k_max:
        stats.used_sgst = True
        locus = find_locus(x, stats.kstar, sp, ep)

    if locus is None:
        pairs = w.greedy_topk(sp, ep, k)
        return TopKResult(pairs, pat, k, x.variant, stats)

    stats.locus_found = True
    stats.locus_sp, stats.locus_ep = locus.sp, locus.ep

    heap = CandidateHeap(k)
    for doc, freq in candidates_of(x, locus, w)[:k]:
        heap.offer(doc, freq)
        stats.heap_offers += 1

    if strategy == SELECT:
        scanned, offered = select_scan(w, sp, ep, locus.sp, locus.ep, heap)
        stats.positions_scanned = scanned
        stats.heap_offers += offered
    else:
        t = tracked_root(w, sp, ep, sp, locus.sp - 1, locus.ep + 1, ep)
        walk = w.restricted_greedy if strategy == GREEDY else w.restricted_dfs
        for doc, freq in walk(t, heap.kth_frequency):
            heap.offer(doc, freq)
            stats.docs_emitted += 1
            stats.heap_offers += 1

    pairs = [(doc, w.doc_freq(doc, sp, ep)) for doc, _ in heap.members()]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return TopKResult(pairs[:k], pat, k, x.variant, stats)
