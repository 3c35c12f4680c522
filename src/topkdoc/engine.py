"""Query engine tying the pieces together.

A query locates the pattern's suffix-array interval and asks the sampled
tree for a marked ancestor contained in it.  When that node spans the
whole interval, its stored candidates, counted over that same interval,
are the answer.  Otherwise a bounded min-heap is seeded with them, and the
chosen strategy repairs the flanks, the positions of [sp, ep] outside the
node's interval (the covered core).  All three take the same
(sp, ep, core_sp, core_ep): a length-ordered greedy traversal, a pruned
DFS, or a per-position select scan.  The heap's members, ranked, are the
answer.

Such a query counts nothing but its core, through one reader of it
(frequencies), and each slot of [sp, ep] at most once:
- equal: light reads its stored pairs; xlight reads its candidates'
  frequencies from the reader of the core, which is [sp, ep] itself;
- flank, greedy and DFS: light counts nothing, and xlight reads only its
  seeds from the core's reader.  The walks count nothing: a leaf's outer
  length is its document's frequency over [sp, ep];
- flank, select: the scan tallies each flank slot as it reads it and adds
  the document's frequency in the core, read from the core's reader, the
  one xlight's seeds already read.
The reader counts the core's slice of the document array once
(SuffixIndex.counts) and keeps the count, unless the core holds more than
RECOUNT_SLOTS slots per document a read asks for; then that read calls
WaveletTree.doc_freq per document.

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
from collections import Counter
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

# A read of frequencies' reader counts its interval's slice of the document
# array when the interval holds at most this many slots per document the
# read asks for, and past that calls WaveletTree.doc_freq per document; the
# bound rests on the slice's length and the documents alone.  It was fixed
# before the benchmark was measured, from tools/slice_count_crossover.py's
# recount mode at seed 201 on a 2-vCPU VM.  On dense counts (four runs on
# versioned-xlight, one on dna-uniform) a count of L slots and a read took
# about 4.5 µs plus 1.5 ns per slot and a doc_freq call about 7.5 µs: the
# count won up to 2,401-4,126 slots at m = 1, 4,191-6,267 slots per
# document at m = 4, 4,228-5,166 at m = 10, and 4,045 on dna-uniform and
# past 65,536 slots on versioned-xlight at m = 16.  2048 stays below every
# one of those crossovers.
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
    already present updates its frequency in place; a dict of the members
    answers membership, since a select scan may offer hundreds of
    documents.  A locus-served query seeds the heap with its node's first
    k candidates in one step (seed), then offers what its flanks add.
    """

    __slots__ = ("capacity", "_entries", "_held")

    def __init__(self, capacity):
        self.capacity = positive("capacity", capacity)
        self._entries = []  # (freq, -doc)
        self._held = {}     # doc: freq, of the entries

    def __len__(self):
        return len(self._entries)

    def offer(self, doc, freq):
        entries, held = self._entries, self._held
        f = held.get(doc)
        if f is not None:
            if freq != f:
                entries[entries.index((f, -doc))] = (freq, -doc)
                heapq.heapify(entries)
                held[doc] = freq
        elif len(entries) < self.capacity:
            heapq.heappush(entries, (freq, -doc))
            held[doc] = freq
        elif freq > entries[0][0]:
            del held[-heapq.heapreplace(entries, (freq, -doc))[1]]
            held[doc] = freq

    def seed(self, pairs):
        """Fill the empty heap with pairs, (doc, freq) of distinct documents
        and at most capacity of them, by one heapify: the entries that an
        offer of each would leave, since none is evicted."""
        self._entries = [(freq, -doc) for doc, freq in pairs]
        heapq.heapify(self._entries)
        self._held = dict(pairs)

    def kth_frequency(self):
        """Current k-th best frequency; 0 while below capacity."""
        if len(self._entries) < self.capacity:
            return 0
        return self._entries[0][0]

    def members(self):
        return [(-negd, f) for f, negd in self._entries]


def frequencies(index, sp, ep):
    """A reader of [sp, ep], sp <= ep: a function from a list of documents
    to their frequencies there, plain ints (0 for a document that owns no
    slot there).

    The one place a locus-served query decides how to count an interval,
    the covered core, for xlight's seeds and the select scan's documents.
    Each read decides for itself, by the documents it asks for: when the
    interval holds more than RECOUNT_SLOTS slots per document, each is
    counted by WaveletTree.doc_freq, O(log d) apiece, and an empty read
    makes no count.  Otherwise the slice of the document array is counted
    once (SuffixIndex.counts), O(L) for L slots, and this read and every
    later one read that count: a dense one by index, a compact one by
    binary search.
    """
    slots = ep - sp + 1
    counted = None

    def read(docs):
        nonlocal counted
        if counted is None:
            if slots > RECOUNT_SLOTS * len(docs):
                doc_freq = index.wavelet.doc_freq
                return [doc_freq(doc, sp, ep) for doc in docs]
            counted = index.suffixes.counts(sp, ep)
        ids, freqs = counted
        last = len(ids) - 1
        docs = np.array(docs, dtype=ids.dtype)
        if ids[last] == last:           # dense: id i reads freqs[i]
            out = freqs.take(docs, mode="clip")
            out[docs > last] = 0
            return out.tolist()
        at = ids.searchsorted(docs)
        np.minimum(at, last, out=at)
        return np.where(ids[at] == docs, freqs[at], 0).tolist()
    return read


def select_scan(doc_ids, core, sp, ep, core_sp, core_ep, heap: CandidateHeap):
    """Offer every document of [sp, ep] outside the covered core
    [core_sp, core_ep], with its frequency over [sp, ep].

    The core may be empty (core_ep < core_sp), in which case the whole of
    [sp, ep] is scanned.  Each position is one read of doc_ids, the
    document array (SuffixIndex.doc_ids), tallied as it is read.  Each
    distinct document is offered once, in the order of its first position,
    with its tally plus its frequency in the core, read from core, a reader
    of the core (see frequencies) that an empty core leaves unread: no slot
    of [sp, ep] is counted twice.  Returns (positions scanned, offers made).
    """
    if core_ep < core_sp:
        flanks, core = doc_ids[sp - 1:ep].tolist(), lambda docs: [0] * len(docs)
    elif sp <= core_sp and core_ep <= ep:
        flanks = doc_ids[sp - 1:core_sp - 1].tolist() + doc_ids[core_ep:ep].tolist()
    else:
        raise OutOfRangeError("covered core must sit inside the scanned interval")
    tally = Counter(flanks)
    for (doc, outer), inner in zip(tally.items(), core(list(tally))):
        heap.offer(doc, outer + inner)
    return len(flanks), len(tally)


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
    ranked; only xlight's seeds and the select scan count, and only the
    core, once.  With no marked node inside,
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
    core = None if x.cand_freqs is not None else frequencies(index, core_sp, core_ep)
    seeds = candidates_of(x, locus, w, k, core)
    if core_sp == sp and core_ep == ep:
        # The node's candidates are counted over [sp, ep] itself and ranked.
        return TopKResult(seeds, pat, k, variant,
                          QueryStats(k_star, g, True, True, sp, ep, 0, 0, len(seeds)))

    heap = CandidateHeap(k)
    heap.seed(seeds)
    scanned = emitted = 0
    if strategy == SELECT:
        scanned, offered = select_scan(index.suffixes.doc_ids,
                                       core or frequencies(index, core_sp, core_ep),
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
