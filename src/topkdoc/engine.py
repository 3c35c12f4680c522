"""Query engine tying the pieces together.

A query locates the pattern's suffix-array interval and asks the sampled
tree for a marked ancestor contained in it.  When that node spans the
whole interval, its stored candidates, counted over that same interval,
are the answer.  Otherwise a bounded min-heap is seeded with them, and the
chosen strategy repairs the flanks, the positions of [sp, ep] outside the
node's interval (the covered core).  All three take the same
(sp, ep, core_sp, core_ep): a length-ordered greedy traversal, a pruned
DFS, or a per-position select scan.  The heap's members are then recounted
exactly over the full interval.  A query no marked node serves counts its
slice of the document array instead (SuffixIndex.top_documents).  With k
within the precomputed ceiling and the sampled tree in use, that interval
holds no two consecutive level-k* sampled slots (it would hold their
marked node) and the last slot lies within g - 1 of the end, so wherever
the level is non-empty it is shorter than 2g; otherwise it can reach n.
Either way the frequencies are the exact top-k, listed by (-freq, doc).
Among documents tied at the k-th frequency, a query answered through a
marked node may return any of them; the count lists the lowest ids.
"""

import heapq
from dataclasses import dataclass, field

from .corpus import Corpus, ingest
from .errors import OutOfRangeError, UnknownStrategyError
from .sgst import SGST, build_sgst, candidates_of, find_locus
from .suffixes import SuffixIndex, build_suffix_array, pattern_interval
from .wavelet import WaveletTree

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


def select_scan(w: WaveletTree, sp, ep, core_sp, core_ep, heap: CandidateHeap):
    """Offer every document of [sp, ep] outside the covered core
    [core_sp, core_ep].

    The core may be empty (core_ep < core_sp), in which case the whole of
    [sp, ep] is scanned.  Each position costs one access; each distinct
    document costs one exact count over [sp, ep] (repeats would be
    idempotent offers, so they are skipped).  Returns (positions scanned,
    offers made).
    """
    if core_ep >= core_sp and not (sp <= core_sp and core_ep <= ep):
        raise OutOfRangeError("covered core must sit inside the scanned interval")
    if core_ep >= core_sp:
        ranges = (range(sp, core_sp), range(core_ep + 1, ep + 1))
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
    frequency are listed is up to the strategy unless no marked node served
    the query: the count over the document array lists the lowest ids.
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
    store_suffix_array: bool = False


def build_index(documents, *, g_prime=400, k_max=16, variant="light") -> Index:
    """Ingest documents and build every query structure over them."""
    corpus = documents if isinstance(documents, Corpus) else ingest(documents)
    s = build_suffix_array(corpus)
    w = WaveletTree(s.doc_ids, corpus.d)
    x = build_sgst(corpus, s, g_prime=g_prime, k_max=k_max, variant=variant)
    return Index(corpus=corpus, suffixes=s, wavelet=w, sgst=x)


def query_topk(index: Index, pattern, k, strategy=GREEDY, use_sgst=True) -> TopKResult:
    """The k documents where pattern occurs most often.

    Returns fewer than k pairs when fewer documents match, and an empty
    result when the pattern does not occur at all.  When the marked node
    found spans exactly the pattern's interval, its first k stored
    candidates are the answer, already ranked by candidates_of: no heap,
    flank traversal, final recount or sort runs, and only xlight counts,
    once per candidate returned.  When flanks remain, the node's first k
    candidates seed a heap, the flanks are repaired with the chosen
    strategy, and every heap member is recounted over the whole interval.  With no marked node inside, or with k* above
    k_max or use_sgst=False, the interval's document array is counted.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategyError(f"strategy must be one of {STRATEGIES}")
    if k < 1:
        raise ValueError("k must be at least 1")
    w = index.wavelet
    x = index.sgst
    k_star = kstar(k)
    stats = QueryStats(kstar=k_star, g=k_star * x.g_prime)

    interval = pattern_interval(index.suffixes, index.corpus, pattern)
    pat = interval.pattern
    if interval.is_empty:
        return TopKResult([], pat, k, x.variant, stats)
    sp, ep = interval.sp, interval.ep

    locus = None
    if use_sgst and k_star <= x.k_max:
        stats.used_sgst = True
        # A level-k* node spans at least g + 1 slots: none fits a shorter
        # interval.
        if ep - sp >= stats.g:
            locus = find_locus(x, k_star, sp, ep)

    if locus is None:
        pairs = index.suffixes.top_documents(sp, ep, k)
        return TopKResult(pairs, pat, k, x.variant, stats)

    stats.locus_found = True
    stats.locus_sp, stats.locus_ep = locus.sp, locus.ep
    seeds = candidates_of(x, locus, w, k)

    if (locus.sp, locus.ep) == (sp, ep):
        # The node's candidates are counted over [sp, ep] itself and ranked.
        stats.heap_offers = len(seeds)
        return TopKResult(seeds, pat, k, x.variant, stats)

    heap = CandidateHeap(k)
    for doc, freq in seeds:
        heap.offer(doc, freq)
        stats.heap_offers += 1

    if strategy == SELECT:
        scanned, offered = select_scan(w, sp, ep, locus.sp, locus.ep, heap)
        stats.positions_scanned = scanned
        stats.heap_offers += offered
    else:
        walk = w.restricted_greedy if strategy == GREEDY else w.restricted_dfs
        for doc, freq in walk(sp, ep, locus.sp, locus.ep, heap.kth_frequency):
            heap.offer(doc, freq)
            stats.docs_emitted += 1
            stats.heap_offers += 1

    pairs = [(doc, w.doc_freq(doc, sp, ep)) for doc, _ in heap.members()]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return TopKResult(pairs[:k], pat, k, x.variant, stats)
