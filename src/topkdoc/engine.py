"""Query engine tying the pieces together.

A query locates the pattern's suffix-array interval and asks the sampled
tree for a marked ancestor contained in it.  When that node spans the
whole interval, its stored candidates, counted over that same interval,
are the answer.  Otherwise a bounded min-heap is seeded with them, and the
chosen strategy repairs the flanks, the positions of [sp, ep] outside the
node's interval (the covered core).  All three take the same
(sp, ep, core_sp, core_ep): a length-ordered greedy traversal, a pruned
DFS, or a per-position select scan.  The heap's members, ranked, are the
answer.  The exact frequencies such a query reads (xlight's candidates
over the core, the select scan's documents over [sp, ep]) come from one
count of that interval's slice of the document array, or, when it holds
more than RECOUNT_SLOTS slots per frequency read, from
WaveletTree.doc_freq (frequencies).  The walks count nothing: a leaf's
outer length is its document's frequency over [sp, ep].

Every heap member ends with its exact frequency f over [sp, ep], so
nothing is recounted.  Let T be the heap's k-th frequency
(kth_frequency, 0 until the heap is full).  T never decreases, since
offer admits a new document only above it.  Every value held is at most
the member's f: a seed holds its count over the core, a select offer or
an emitted leaf holds f itself.  A seed absent from the flanks has core
count f.  A seed present in them is either offered again, and then holds
f, or pruned under a node whose outer length, at least f, is at most the
T of that moment, so f <= T at the end.  If it is still a member then, it
holds a value c >= T, the heap's minimum, and c <= f, so c = f.  While
the heap is not full T is 0 and nothing is pruned.  This rests on the
light layout's stored frequencies, which a load trusts unchecked (see
container): a tampered one can reach a flank answer as stored, as it
reaches an equal one.

A query no marked node serves counts its slice of the document array
instead (SuffixIndex.top_documents), by a Python sort when the slice holds
at most suffixes.SHORT_SLICE slots and in numpy when it is longer.  With k
within the precomputed ceiling and the sampled tree in use, that interval
holds no two consecutive level-k* sampled slots (it would hold their
marked node) and the last slot lies within g - 1 of the end, so wherever
the level is non-empty it is shorter than 2g; otherwise it can reach n.
Either way the frequencies are the exact top-k, listed by (-freq, doc).
Among documents tied at the k-th frequency, a query answered through a
marked node may return any of them; the count lists the lowest ids.
"""

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, ingest
from .errors import OutOfRangeError, UnknownStrategyError, positive
from .sgst import SGST, build_sgst, candidates_of, find_locus
from .suffixes import SuffixIndex, build_suffix_array, pattern_interval
from .wavelet import WaveletTree

GREEDY = "greedy"
DFS = "dfs"
SELECT = "select"
STRATEGIES = (GREEDY, DFS, SELECT)

# frequencies counts an interval's slice of the document array when it holds
# at most this many slots per frequency read, and past that calls
# WaveletTree.doc_freq per document; the bound rests on the slice's length
# and the frequencies alone.  It was fixed before the benchmark was
# measured, from tools/slice_count_crossover.py's recount mode at seed 201
# on a 2-vCPU VM: a count of L slots and a read of m documents took about
# 11 µs plus 1.5 ns per slot, a doc_freq call about 7 µs, and the count
# won up to 2,746-3,065 slots per frequency at m = 4 and 3,587-4,059 at
# m = 10 and 16 on both workloads (it never wins at m = 1).  2048 stays
# below every one of those crossovers.
RECOUNT_SLOTS = 2048


def kstar(k):
    """Smallest power of two >= k; the candidate level serving k, an
    integer >= 1 (InvalidParameterError otherwise).  A plain int >= 1, as
    query_topk passes after checking k itself, is not checked again."""
    if k.__class__ is not int or k < 1:
        k = positive("k", k)
    return 1 << (k - 1).bit_length()


class CandidateHeap:
    """Min-heap of at most `capacity` (doc, freq) candidates.

    The top is the current k-th best frequency (ties surface the largest
    doc id first, so lower ids survive eviction).  Offering a document
    already present updates its frequency in place; membership is checked
    by scanning, which is the right trade-off at these capacities.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity):
        self.capacity = positive("capacity", capacity)
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


def frequencies(index, sp, ep, m):
    """A function from a list of documents to their frequencies in [sp,
    ep], plain ints (0 for a document that owns no slot there), for a
    caller about to read about m of them.

    The one place a locus-served query decides how to count an interval:
    xlight's core, for its candidates, and [sp, ep] for the select scan.
    It counts the slice of the document array once (SuffixIndex.counts)
    and reads every document from that count, unless the interval holds
    more than RECOUNT_SLOTS slots per frequency, m * RECOUNT_SLOTS in all;
    then each document is counted by WaveletTree.doc_freq.  The count costs
    O(L) for L slots, doc_freq O(log d) per document.
    """
    if ep - sp + 1 > RECOUNT_SLOTS * m:
        doc_freq = index.wavelet.doc_freq
        return lambda docs: [doc_freq(doc, sp, ep) for doc in docs]
    ids, counts = index.suffixes.counts(sp, ep)
    last = len(ids) - 1

    def read(docs):
        docs = np.array(docs, dtype=ids.dtype)
        at = ids.searchsorted(docs)
        np.minimum(at, last, out=at)
        return np.where(ids[at] == docs, counts[at], 0).tolist()
    return read


def select_scan(doc_ids, freqs, sp, ep, core_sp, core_ep, heap: CandidateHeap):
    """Offer every document of [sp, ep] outside the covered core
    [core_sp, core_ep].

    The core may be empty (core_ep < core_sp), in which case the whole of
    [sp, ep] is scanned.  Each position is one read of doc_ids, the
    document array (SuffixIndex.doc_ids).  Each distinct document is offered
    once, in the order of its first position, with its frequency over
    [sp, ep] read from freqs (see frequencies); repeats would be idempotent
    offers.  Returns (positions scanned, offers made).
    """
    if core_ep >= core_sp:
        if not (sp <= core_sp and core_ep <= ep):
            raise OutOfRangeError("covered core must sit inside the scanned interval")
        flanks = doc_ids[sp - 1:core_sp - 1].tolist() + doc_ids[core_ep:ep].tolist()
    else:
        flanks = doc_ids[sp - 1:ep].tolist()
    docs = list(dict.fromkeys(flanks))
    for doc, freq in zip(docs, freqs(docs)):
        heap.offer(doc, freq)
    return len(flanks), len(docs)


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


class TopKResult(NamedTuple):
    """Ranked (doc, freq) pairs, listed by (-freq, doc).

    The frequencies are the exact top-k.  Which documents tied at the k-th
    frequency are listed is up to the strategy unless no marked node served
    the query: the count over the document array lists the lowest ids.

    A named tuple, so immutable; it unpacks and indexes as (pairs,
    pattern, k, variant, stats).  `stats` takes no part in equality or the
    repr, so two strategies' equal answers compare equal, and a result
    equals only another TopKResult.  Its pairs are a list: it is not
    hashable.
    """

    pairs: list
    pattern: bytes
    k: int
    variant: str
    stats: QueryStats = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:4] == other[:4]

    __ne__ = object.__ne__          # not tuple's: the negation of __eq__
    __hash__ = None

    def __repr__(self):
        return (f"TopKResult(pairs={self.pairs!r}, pattern={self.pattern!r}, k={self.k!r}, "
                f"variant={self.variant!r})")


@dataclass(eq=False)
class Index:
    """Everything needed to answer queries over one ingested collection.

    Indexes compare and hash by identity."""

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
    flank traversal or sort runs, and only xlight counts, reading the
    candidates returned from one count of the node's slice (frequencies).
    When flanks remain, the node's first k candidates seed a heap, the
    flanks are repaired with the chosen strategy, and the heap's members,
    each holding its exact frequency (see the module docstring), are
    ranked; only the select scan counts the whole interval, and only
    xlight the core.  With no marked node inside,
    or with k* above k_max or use_sgst=False, the interval's document array
    is counted.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategyError(f"strategy must be one of {STRATEGIES}")
    k = positive("k", k)            # as an int: offset + np.uint8 overflows past 255
    k_star = kstar(k)
    x = index.sgst
    g = k_star * x.g_prime
    variant = x.variant
    sp, ep, pat = pattern_interval(index.suffixes, index.corpus, pattern)
    if ep < sp:
        return TopKResult([], pat, k, variant, QueryStats(k_star, g))

    used_sgst = k_star <= x.k_max if use_sgst else False
    # A level-k* node spans at least g + 1 slots: none fits a shorter interval.
    locus = find_locus(x, k_star, sp, ep) if used_sgst and ep - sp >= g else None
    if locus is None:
        pairs = index.suffixes.top_documents(sp, ep, k)
        return TopKResult(pairs, pat, k, variant, QueryStats(k_star, g, used_sgst))

    w = index.wavelet
    _, core_sp, core_ep, _ = locus
    core = None if x.cand_freqs is not None else frequencies(index, core_sp, core_ep, k)
    seeds = candidates_of(x, locus, w, k, core)
    if core_sp == sp and core_ep == ep:
        # The node's candidates are counted over [sp, ep] itself and ranked.
        return TopKResult(seeds, pat, k, variant,
                          QueryStats(k_star, g, True, True, sp, ep, 0, 0, len(seeds)))

    heap = CandidateHeap(k)
    for doc, freq in seeds:
        heap.offer(doc, freq)
    scanned = emitted = 0
    if strategy == SELECT:
        scanned, offered = select_scan(index.suffixes.doc_ids, frequencies(index, sp, ep, k),
                                       sp, ep, core_sp, core_ep, heap)
    else:
        walk = w.restricted_greedy if strategy == GREEDY else w.restricted_dfs
        for doc, freq in walk(sp, ep, core_sp, core_ep, heap.kth_frequency):
            heap.offer(doc, freq)
            emitted += 1
        offered = emitted

    pairs = sorted(heap.members(), key=lambda p: (-p[1], p[0]))
    return TopKResult(pairs, pat, k, variant,
                      QueryStats(k_star, g, True, True, core_sp, core_ep, scanned, emitted,
                                 len(seeds) + offered))
