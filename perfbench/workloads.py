"""Seeded corpus and pattern generators of the benchmark's workloads.

Every workload is a pure function of its seed: the same seed gives the
same documents and the same patterns.  The seed draws the sample; the
distribution (alphabet, word list, Zipf exponent, sizes) is fixed, so runs
under different seeds measure the same kind of input.  The index only ever
sees the generated documents.

Why these two.  Each is about half a million symbols, so that a run,
which builds the index three times, stays near a minute on a two-core
machine.  Between them they cover the three query regimes: dna-uniform
never repairs a flank or falls back to the full traversal, so it is the
control for changes to either, which versioned-xlight exercises.

- ``dna-uniform``: uniform ``acgt`` documents, length-3 patterns.  Every
  pattern interval is exactly a precomputed node, so queries run interval
  search, locus descent, stored candidates and the final recount, and never
  repair a flank.
- ``versioned-xlight``: base documents of Zipf words, each followed by
  lightly mutated revisions.  The text is highly repetitive, so lcp values
  are long and many nodes are marked, and the query stream mixes all three
  regimes (about 98% fallback, 1% each equal and flank), including the only
  flank repair of the two workloads.  The xlight layout recounts
  candidates through the wavelet tree.
"""

import functools
from dataclasses import dataclass

import numpy as np

from oracle import window_codes

K_MAX = 16
VOCAB_SIZE = 5000
ZIPF_S = 1.1
_VOCAB_SEED = 20111118

EQUAL, FLANK, FALLBACK = "equal", "flank", "fallback"
REGIMES = (EQUAL, FLANK, FALLBACK)


@dataclass(frozen=True)
class Workload:
    name: str
    docs: list          # bytes; document ids are 1-based list positions
    patterns: list      # bytes, all of length pattern_len, repeats allowed
    pattern_len: int
    k: int
    g_prime: int
    variant: str
    regimes: tuple      # the regimes every run must show, and no others
    k_max: int = K_MAX

    @property
    def n(self):
        return sum(len(doc) + 1 for doc in self.docs)

    @property
    def sigma(self):
        return len(set().union(*map(set, self.docs)))


@functools.lru_cache(maxsize=1)
def vocabulary():
    """VOCAB_SIZE distinct lowercase words of 2..8 letters, in Zipf rank order."""
    rng = np.random.default_rng(_VOCAB_SEED)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words = []
    seen = set()
    while len(words) < VOCAB_SIZE:
        word = letters[rng.integers(0, 26, size=int(rng.integers(2, 9)))].tobytes()
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(words)


@functools.lru_cache(maxsize=1)
def zipf_weights():
    """Probability of each word of vocabulary(), by rank."""
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1, dtype=np.float64) ** ZIPF_S
    return weights / weights.sum()


def sample_patterns(docs, length, count, rng, distinct=False):
    """`count` patterns cut from in-document windows, common ones more often.

    A distinct pattern is drawn in proportion to its occurrences, as in a
    query log.  By default the draw is stratified: distinct patterns are
    ordered by frequency and one is taken from each of `count` equal
    slices of their cumulative frequency, so every seed gets the same mix
    of rare and common patterns.  With `distinct`, patterns are drawn
    without replacement instead, each at most once.  Patterns come back in
    random order.
    """
    text = np.frombuffer(b"\x00".join(docs), dtype=np.uint8)
    starts = np.nonzero(window_codes(text == 0, length) == 0)[0]
    if not len(starts):
        raise ValueError(f"no document holds a window of length {length}")
    codes, first, freq = np.unique(window_codes(text, length)[starts],
                                   return_index=True, return_counts=True)
    if distinct:
        # choice() lists heavier patterns first; permute into random order.
        picked = rng.permutation(rng.choice(len(freq), size=min(count, len(freq)),
                                            replace=False, p=freq / freq.sum()))
    else:
        order = np.lexsort((codes, freq))
        cumulative = np.cumsum(freq[order])
        slots = (np.arange(count) + rng.random(count)) * cumulative[-1] / count
        picked = rng.permutation(order[np.searchsorted(cumulative, slots, side="right")])
    return [text[p:p + length].tobytes() for p in starts[first[picked]].tolist()]


def dna_uniform(seed, num_docs=500, doc_len=1000, num_patterns=1000):
    rng = np.random.default_rng([seed, 1])
    letters = np.frombuffer(b"acgt", dtype=np.uint8)
    docs = [letters[rng.integers(0, 4, size=doc_len)].tobytes()
            for _ in range(num_docs)]
    return Workload("dna-uniform", docs, sample_patterns(docs, 3, num_patterns, rng),
                    pattern_len=3, k=10, g_prime=200, variant="light",
                    regimes=(EQUAL,))


def _revise(words, rng, edits):
    """Copy of words with `edits` random replacements, insertions or deletions."""
    vocab = vocabulary()
    out = list(words)
    for op, pos, word in zip(rng.integers(0, 3, size=edits),
                             rng.random(size=edits),
                             rng.choice(VOCAB_SIZE, size=edits, p=zipf_weights())):
        pos = int(pos * len(out))
        if op == 0:
            out[pos] = vocab[word]
        elif op == 1:
            out.insert(pos, vocab[word])
        elif len(out) > 1:
            del out[pos]
    return out


def versioned_xlight(seed, num_bases=40, revisions=10, words_per_doc=180,
                     edits=3, num_patterns=3000):
    rng = np.random.default_rng([seed, 2])
    vocab = vocabulary()
    docs = []
    for _ in range(num_bases):
        words = [vocab[i] for i in rng.choice(VOCAB_SIZE, size=words_per_doc,
                                              p=zipf_weights())]
        docs.append(b" ".join(words))
        for _ in range(revisions):
            words = _revise(words, rng, edits)
            docs.append(b" ".join(words))
    # Distinct patterns: with repeats, the p99 would be the cost of the few
    # 4-grams of the most frequent words, whose flank lengths, and so their
    # cost, change with every seed.
    patterns = sample_patterns(docs, 4, num_patterns, rng, distinct=True)
    return Workload("versioned-xlight", docs, patterns,
                    pattern_len=4, k=10, g_prime=50, variant="xlight",
                    regimes=REGIMES)


WORKLOADS = {
    "dna-uniform": dna_uniform,
    "versioned-xlight": versioned_xlight,
}


def make(name, seed):
    return WORKLOADS[name](seed)
