import random
from collections import Counter

import numpy as np
import pytest

from topkdoc import build_suffix_array, ingest, pattern_interval
from topkdoc.errors import EmptyPatternError, SentinelInPatternError
from topkdoc.suffixes import (PatternInterval, _suffix_order, prefix_interval,
                              stored_suffix_index)
from topkdoc.wavelet import WaveletTree

from conftest import (
    WORKED_D,
    WORKED_SA,
    brute_doc_array,
    brute_suffix_array,
    count_occurrences,
    occurring_patterns,
    random_docs,
    revisions_corpus,
)


def doubling_suffix_order(text: bytes):
    """Prefix doubling that re-sorts every suffix in every round, as the
    reference for long repeats, where the brute-force sort is too slow."""
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


def test_worked_suffix_array(worked_suffixes):
    assert list(worked_suffixes.sa) == WORKED_SA
    assert list(worked_suffixes.doc_ids) == WORKED_D
    assert len(worked_suffixes) == 14


def test_worked_pattern_intervals(worked_suffixes, worked_corpus):
    assert pattern_interval(worked_suffixes, worked_corpus, "ab") == PatternInterval(5, 8)
    assert pattern_interval(worked_suffixes, worked_corpus, "ba") == PatternInterval(11, 13)
    assert pattern_interval(worked_suffixes, worked_corpus, "b") == PatternInterval(9, 14)
    assert pattern_interval(worked_suffixes, worked_corpus, "abab") == PatternInterval(7, 7)


def test_absent_pattern_interval_empty(worked_suffixes, worked_corpus):
    iv = pattern_interval(worked_suffixes, worked_corpus, "zz")
    assert iv.is_empty
    assert iv.occurrences == 0
    assert not pattern_interval(worked_suffixes, worked_corpus, "ab").is_empty


def test_pattern_validation(worked_suffixes, worked_corpus):
    with pytest.raises(EmptyPatternError):
        pattern_interval(worked_suffixes, worked_corpus, "")
    with pytest.raises(SentinelInPatternError):
        pattern_interval(worked_suffixes, worked_corpus, b"a\x00")


def test_empty_interval_constant():
    iv = PatternInterval(1, 0)
    assert iv.is_empty
    assert iv.occurrences == 0


def test_suffix_array_random_vs_oracle():
    rng = random.Random(41)
    for _ in range(25):
        docs = random_docs(rng, max_docs=6, max_total=120)
        c = ingest(docs)
        s = build_suffix_array(c)
        assert list(s.sa) == brute_suffix_array(c.text)
        assert list(s.doc_ids) == brute_doc_array(docs, list(s.sa))


def test_suffix_array_large_path_vs_oracle():
    # Corpora of more than 600 symbols over one to four letters.
    rng = random.Random(43)
    for sigma in (1, 2, 4):
        docs = random_docs(rng, max_docs=4, max_total=3000, sigma=sigma)
        while sum(len(d) for d in docs) < 600:
            docs.append(docs[0])
        c = ingest(docs)
        s = build_suffix_array(c)
        assert list(s.sa) == brute_suffix_array(c.text)


def test_suffix_order_vs_oracle_across_alphabets_and_lengths():
    # Short texts over high bytes: the first round ranks raw bytes up to
    # 0xff, so a key radix of n + 1 would let the two halves of a key
    # collide there.  Lengths around 512 cover both sides of the old
    # cutoff between the sorted() path and the doubling path.
    rng = random.Random(59)
    lengths = [1, 2, 3, 7, 64, 200, 255, 256, 257, 500, 511, 512, 513, 530]
    alphabets = [b"\xff", b"\xfe\xff", b"\x01\xff", b"a", b"ab",
                 bytes(range(1, 256)), bytes(range(256))]
    for n in lengths:
        for alphabet in alphabets:
            text = bytes(rng.choice(alphabet) for _ in range(n))
            assert (_suffix_order(text)[0] + 1).tolist() == brute_suffix_array(text)


def test_suffix_order_unary_runs_vs_oracle():
    # Runs of one symbol share the longest prefixes, so they need the
    # most doubling rounds.
    for text in (b"a" * 300, b"\xff" * 600, b"a" * 200 + b"\x00" + b"a" * 199,
                 (b"\xff" * 40 + b"\x00") * 13):
        assert (_suffix_order(text)[0] + 1).tolist() == brute_suffix_array(text)


PACKING_SIGMAS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 255, 256)


def test_suffix_order_across_packing_widths_vs_oracle():
    # The first round packs 63 // sigma.bit_length() symbols per key; each
    # sigma here is the last or first of a bit width.  Every alphabet holds
    # 0x00, and each text ends with a copy of its start, so later rounds
    # have groups to split.
    rng = random.Random(61)
    for sigma in PACKING_SIGMAS:
        alphabet = bytes(range(sigma))
        for n in (sigma, 300):
            head = bytearray(alphabet + bytes(rng.choice(alphabet) for _ in range(n - sigma)))
            rng.shuffle(head)
            text = bytes(head) + bytes(head[:n // 2])
            assert (_suffix_order(text)[0] + 1).tolist() == brute_suffix_array(text)


def test_keyed_interval_equals_byte_search_at_every_width():
    # SuffixIndex.interval must give exactly prefix_interval over the whole
    # suffix array, on an index built here and on one over a stored suffix
    # array, at every packing width; both bisect, so prefix_interval is
    # checked in turn against a scan of every slot.  Each sigma of
    # PACKING_SIGMAS counts the terminator (sigma 1 gets one letter too), so
    # q = 31 // width runs from 15 down to 3.  Patterns are shorter than q, q long and longer; some
    # hold a symbol absent from the text; the windows marking searches may
    # be empty or run across terminators.
    rng = random.Random(293)
    cases = Counter()
    for sigma in PACKING_SIGMAS:
        letters = bytes(range(1, max(sigma, 2)))
        absent = bytes(b for b in range(1, 256) if b not in letters)
        for _ in range(3):
            body = bytearray(letters + bytes(rng.choice(letters)
                                             for _ in range(rng.randint(0, 300))))
            rng.shuffle(body)
            cuts = sorted(rng.sample(range(1, len(body)), min(len(body) - 1, 5)))
            docs = [bytes(body[a:b]) for a, b in zip([0] + cuts, cuts + [len(body)])]
            docs += docs[:rng.randint(1, len(docs))]     # repeats longer than q
            c = ingest(docs)
            built = build_suffix_array(c)
            stored = stored_suffix_index(c, built.sa)
            assert np.array_equal(stored.keys, built.keys)
            text, q = c.text, 31 // built.width
            pats = [b""]
            for m in (1, q - 1, q, q + 1, q + 7):
                for _ in range(8):
                    a = rng.randrange(c.n)
                    window = text[a:a + m]
                    pats.append(window)
                    if window and absent:
                        i = rng.randrange(len(window))
                        pats.append(window[:i] + bytes([rng.choice(absent)]) + window[i + 1:])
                    if window:
                        i = rng.randrange(len(window))
                        pats.append(window[:i] + bytes([rng.choice(letters)]) + window[i + 1:])
            sa = built.sa.tolist()
            for pat in pats:
                want = prefix_interval(memoryview(built.sa), text, pat)
                hits = [i for i, p in enumerate(sa, 1) if text[p - 1:p - 1 + len(pat)] == pat]
                assert hits == list(range(want.sp, want.ep + 1))
                for s in (built, stored):
                    got = s.interval(text, pat)
                    assert (got.sp, got.ep) == (want.sp, want.ep)
                    assert got.pattern == pat
                m = len(pat)
                cases["empty" if not m else "absent" if want.is_empty
                      else "terminator" if 0 in pat
                      else "short" if m < q else "q" if m == q else "long"] += 1
    assert cases.pop("empty") == 3 * len(PACKING_SIGMAS)
    assert len(cases) == 5 and min(cases.values()) > 250, cases


def test_suffix_order_shorter_than_one_packed_key():
    rng = random.Random(67)
    for sigma in PACKING_SIGMAS:
        q = 63 // sigma.bit_length()
        alphabet = bytes(range(256 - sigma, 256))
        for n in range(1, q):
            text = bytes(rng.choice(alphabet) for _ in range(n))
            assert (_suffix_order(text)[0] + 1).tolist() == brute_suffix_array(text)


def test_suffix_order_long_repeats_vs_full_doubling():
    rng = random.Random(71)
    document = "".join(rng.choice("abcdefghij") for _ in range(10_000))
    for text in (ingest([document] * 21).text, b"a" * 50_000, b"\x00" * 50_000 + b"a"):
        assert np.array_equal(_suffix_order(text)[0], doubling_suffix_order(text))


def test_later_rounds_sort_only_unfinished_groups(monkeypatch):
    # Finished groups drop out: each round after the first sorts fewer
    # keys than the text has suffixes, and the last one few of them.  How
    # few depends on how far the longest repeats reach past the last
    # doubling step; on these revisions (documents under 1 k symbols) it
    # was 1-4% of n over 16 seeds.
    c = ingest(revisions_corpus(random.Random(73), bases=26, revisions=10, length=160))
    assert c.n >= 200_000
    sizes = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sizes.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    order, _ = _suffix_order(c.text)
    monkeypatch.undo()
    assert np.array_equal(order, doubling_suffix_order(c.text))
    assert sizes[0] == c.n and len(sizes) >= 3
    assert all(size < c.n for size in sizes[1:])
    assert sizes[-1] < c.n / 10


def test_interval_size_counts_occurrences():
    rng = random.Random(47)
    for _ in range(15):
        docs = random_docs(rng, max_docs=5, max_total=80)
        c = ingest(docs)
        s = build_suffix_array(c)
        for pat in occurring_patterns(docs, 3):
            iv = pattern_interval(s, c, pat)
            want = count_occurrences(c.text, pat.encode())
            assert iv.occurrences == want
            assert want > 0
        iv = pattern_interval(s, c, "z" * 4)
        assert iv.is_empty


def test_interval_slots_all_match_pattern():
    rng = random.Random(53)
    docs = random_docs(rng, max_docs=8, max_total=200)
    c = ingest(docs)
    s = build_suffix_array(c)
    for pat in occurring_patterns(docs, 2):
        raw = pat.encode()
        iv = pattern_interval(s, c, pat)
        for slot in range(1, c.n + 1):
            start = int(s.sa[slot - 1]) - 1
            matches = c.text[start:start + len(raw)] == raw
            assert matches == (iv.sp <= slot <= iv.ep)


def test_top_documents_equals_greedy_topk_with_ties():
    # The document-array count and the wavelet traversal must list the same
    # pairs in the same order, ties at the k-th frequency included (lowest
    # ids).  Ties abound here: few documents, alphabets of one to three
    # symbols, and every third corpus made of repeated documents.  Corpora
    # of up to 60 documents give short slices whose largest id is at least
    # 16 times their length, which are counted by sorting, not bincount.
    rng = random.Random(271)
    compared = cut_in_a_tie = sorted_slices = 0
    for trial in range(60):
        max_docs = rng.choice((1, 3, 8, 60))
        docs = random_docs(rng, max_docs=max_docs, sigma=rng.randint(1, 3),
                           max_total=max(rng.choice((20, 150)), 3 * max_docs))
        if trial % 3 == 0:
            docs = docs * rng.randint(2, 4)
        c = ingest(docs)
        s = build_suffix_array(c)
        w = WaveletTree(s.doc_ids, c.d)
        n = len(s)
        intervals = [(1, n)] + [(i, i) for i in rng.sample(range(1, n + 1), min(n, 4))]
        for _ in range(12):
            sp = rng.randint(1, n)
            intervals.append((sp, rng.randint(sp, n)))
            intervals.append((sp, min(n, sp + rng.randint(1, 3))))
        for sp, ep in intervals:
            sorted_slices += s.doc_ids[sp - 1:ep].max() >= 16 * (ep - sp + 1)
            freqs = [f for _, f in s.top_documents(sp, ep, c.d)]
            for k in range(1, c.d + 3):
                got = s.top_documents(sp, ep, k)
                assert got == w.greedy_topk(sp, ep, k)
                assert all(type(v) is int for pair in got for v in pair)
                compared += 1
                cut_in_a_tie += k < len(freqs) and freqs[k - 1] == freqs[k]
    assert compared > 6000 and cut_in_a_tie > 1000 and sorted_slices > 30
