"""Shared fixtures and independent oracles.

The oracles here deliberately avoid every data structure under test:
occurrence counting walks the raw bytes, suffix ordering uses Python's
sort on suffix slices, and top-k answers come from a dict of exact
frequencies.  Expected values in the test modules were produced by these
oracles (or worked out by hand for the small fixed corpus) and then
frozen.
"""

import random

import pytest

from topkdoc import build_index, build_suffix_array, ingest
from topkdoc.wavelet import WaveletTree

# Small fixed corpus used across the suite.  All derived constants below
# were computed by hand and cross-checked against brute_suffix_array /
# naive_topk before freezing.
WORKED_DOCS = ["abab", "abba", "bab"]
WORKED_TEXT = b"abab\x00abba\x00bab\x00"
WORKED_SA = [14, 5, 10, 9, 12, 3, 1, 6, 13, 4, 8, 11, 2, 7]
WORKED_D = [3, 1, 2, 2, 3, 1, 1, 2, 3, 1, 2, 3, 1, 2]
WORKED_ROOT_BITMAP = "10001000100100"  # doc id > 2 at each slot of WORKED_D

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def count_occurrences(haystack: bytes, needle: bytes) -> int:
    """Overlapping occurrence count, straight off the bytes."""
    count = 0
    start = 0
    while True:
        hit = haystack.find(needle, start)
        if hit < 0:
            return count
        count += 1
        start = hit + 1


def doc_frequency_map(docs, pattern):
    """doc id -> occurrence count, omitting docs with zero occurrences."""
    pat = pattern.encode() if isinstance(pattern, str) else bytes(pattern)
    freqs = {}
    for i, doc in enumerate(docs, start=1):
        raw = doc.encode() if isinstance(doc, str) else bytes(doc)
        c = count_occurrences(raw, pat)
        if c:
            freqs[i] = c
    return freqs


def naive_topk(docs, pattern, k):
    """Exact answer: k docs with most occurrences, ties to lower ids."""
    freqs = doc_frequency_map(docs, pattern)
    ranked = sorted(freqs.items(), key=lambda df: (-df[1], df[0]))
    return ranked[:k]


def brute_suffix_array(text: bytes):
    """1-based suffix array via sorting actual suffix slices."""
    n = len(text)
    order = sorted(range(n), key=lambda i: text[i:])
    return [i + 1 for i in order]


def brute_doc_array(docs, sa):
    """Document id per suffix-array slot, from raw document lengths."""
    ends = []
    pos = 0
    for doc in docs:
        raw = doc.encode() if isinstance(doc, str) else bytes(doc)
        pos += len(raw) + 1
        ends.append(pos)
    out = []
    for p in sa:
        doc = next(i for i, e in enumerate(ends, start=1) if p <= e)
        out.append(doc)
    return out


def random_docs(rng: random.Random, max_docs=10, max_total=500, sigma=3):
    """Random corpus skewed small; every document non-empty."""
    d = rng.randint(1, max_docs)
    docs = []
    budget = rng.randint(d, max_total)
    for i in range(d):
        remaining = d - i - 1
        most = max(1, budget - remaining)
        length = rng.randint(1, most)
        budget = max(remaining, budget - length)
        docs.append("".join(rng.choice(ALPHABET[:sigma]) for _ in range(length)))
    return docs


def acgt_corpus(rng):
    """Thirty uniform random acgt documents of 200 symbols each."""
    return ["".join(rng.choice("acgt") for _ in range(200)) for _ in range(30)]


def revisions_corpus(rng, bases=4, revisions=6, length=60):
    """Base texts of words, each followed by revisions that change a few words."""
    words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 6)))
             for _ in range(40)]
    docs = []
    for _ in range(bases):
        text = [rng.choice(words) for _ in range(length)]
        for _ in range(revisions):
            docs.append(" ".join(text))
            text = list(text)
            for _ in range(2):
                text[rng.randrange(len(text))] = rng.choice(words)
    return docs


def document_path_calls(monkeypatch):
    """A list that gains the tree each time a suffix sort takes the document
    path, the only caller of WaveletTree.document_order."""
    calls = []
    decode = WaveletTree.document_order

    def spy(tree):
        calls.append(tree)
        return decode(tree)

    monkeypatch.setattr(WaveletTree, "document_order", spy)
    return calls


def occurring_patterns(docs, max_len):
    """Every distinct substring of each length 1..max_len, sorted."""
    seen = set()
    for doc in docs:
        for length in range(1, max_len + 1):
            for i in range(len(doc) - length + 1):
                seen.add(doc[i:i + length])
    return sorted(seen)


@pytest.fixture(scope="session")
def worked_corpus():
    return ingest(WORKED_DOCS)


@pytest.fixture(scope="session")
def worked_suffixes(worked_corpus):
    return build_suffix_array(worked_corpus)


@pytest.fixture(scope="session")
def worked_wavelet(worked_suffixes, worked_corpus):
    return WaveletTree(worked_suffixes.doc_ids, worked_corpus.d)


@pytest.fixture(scope="session")
def worked_index():
    return build_index(WORKED_DOCS, g_prime=7, k_max=1)


@pytest.fixture(scope="session")
def dense_index():
    # Every suffix sampled, levels 1/2/4: exercises levels and loci.
    return build_index(WORKED_DOCS, g_prime=1, k_max=4)
