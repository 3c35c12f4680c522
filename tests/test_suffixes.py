import random
from collections import Counter

import numpy as np
import pytest

from topkdoc import build_index, build_suffix_array, ingest, pattern_interval, suffixes
from topkdoc.container import deserialize_index, serialize_index
from topkdoc.corpus import MAX_SYMBOLS
from topkdoc.errors import EmptyPatternError, OutOfRangeError, SentinelInPatternError
from topkdoc.suffixes import (PatternInterval, SuffixIndex, _first_round_length, _index_bits,
                              _sort, _suffix_order, _symbol_codes)
from topkdoc.wavelet import WaveletTree

from conftest import (
    WORKED_D,
    WORKED_SA,
    acgt_corpus,
    brute_doc_array,
    brute_suffix_array,
    count_occurrences,
    document_path_calls,
    occurring_patterns,
    random_docs,
    revisions_corpus,
)


def sort_raw(text: bytes):
    """_suffix_order over raw bytes, which may lack terminators or hold them
    anywhere, coded as a corpus with those bytes would be."""
    code, width = _symbol_codes(bytes(sorted(set(text) - {0})))
    return _suffix_order(code[np.frombuffer(text, dtype=np.uint8)], width)[0]


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


def test_pattern_interval_fields_cannot_be_assigned(worked_suffixes, worked_corpus):
    iv = pattern_interval(worked_suffixes, worked_corpus, "ab")
    for name in ("sp", "ep", "pattern"):
        with pytest.raises(AttributeError):
            setattr(iv, name, 1)
    assert (iv.sp, iv.ep, iv.pattern) == (5, 8, b"ab")


def test_pattern_interval_equality_and_hash_ignore_the_pattern():
    a, b = PatternInterval(5, 8, b"ab"), PatternInterval(5, 8, b"xyz")
    assert a == b and not a != b and hash(a) == hash(b)
    assert a == PatternInterval(5, 8) and hash(a) == hash(PatternInterval(5, 8))
    assert a != PatternInterval(5, 9, b"ab") and a != PatternInterval(4, 8, b"ab")
    assert PatternInterval(5, 8) != (5, 8) and not PatternInterval(5, 8) == (5, 8)
    assert len({a, b, PatternInterval(1, 0)}) == 2


def test_pattern_interval_repr(worked_suffixes, worked_corpus):
    assert repr(pattern_interval(worked_suffixes, worked_corpus, "ab")) == \
        "PatternInterval(sp=5, ep=8)"


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
            assert (sort_raw(text) + 1).tolist() == brute_suffix_array(text)


def test_suffix_order_unary_runs_vs_oracle():
    # Runs of one symbol share the longest prefixes, so they need the
    # most doubling rounds.
    for text in (b"a" * 300, b"\xff" * 600, b"a" * 200 + b"\x00" + b"a" * 199,
                 (b"\xff" * 40 + b"\x00") * 13):
        assert (sort_raw(text) + 1).tolist() == brute_suffix_array(text)


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
            assert (sort_raw(text) + 1).tolist() == brute_suffix_array(text)


def test_keyed_interval_equals_byte_search_at_every_width():
    # SuffixIndex.interval must give exactly the slots that a byte-by-byte
    # scan of the whole suffix array finds, which must form one run, on an
    # index built here and on one over a stored suffix array, at every
    # packing width.  Each sigma of PACKING_SIGMAS counts the terminator
    # (sigma 1 gets one letter too), so q = 31 // width runs from 15 down
    # to 3.  Patterns are shorter than q, q long and longer; some hold a
    # symbol absent from the text; the windows marking searches may be
    # empty or run across terminators.
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
            stored = SuffixIndex(c, built.sa)
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
                hits = [i for i, p in enumerate(sa, 1) if text[p - 1:p - 1 + len(pat)] == pat]
                want = PatternInterval(hits[0], hits[-1]) if hits else PatternInterval(1, 0)
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


def table_codes(n, width):
    """The rule SuffixIndex.first is sized by, as a loop: the most codes t
    <= q whose 2**(t * width) entries stay within n // 8."""
    t = 0
    while t < 31 // width and 1 << (t + 1) * width <= n // 8:
        t += 1
    return t


def check_prefix_table(s, n):
    """s.first has 2**(t * width) + 1 entries, starts at 0, ends at n, never
    decreases, and counts the slots whose key's top t codes lie below each
    entry's index; t follows the n // 8 rule."""
    t, width = s.t, s.width
    assert t == table_codes(n, width)
    assert s.first.dtype == np.int32 and len(s.first) == (1 << t * width) + 1
    assert s.first[0] == 0 and s.first[-1] == n and (np.diff(s.first) >= 0).all()
    top = s.keys.astype(np.int64) >> width * (31 // width - t)
    below = np.cumsum(np.bincount(top, minlength=1 << t * width))
    assert np.array_equal(s.first[1:], below)


def test_interval_from_the_prefix_table_equals_a_byte_scan():
    # Every branch of SuffixIndex.interval against a scan of the whole
    # suffix array: patterns of m <= t symbols, which the table of first
    # slots answers alone, t < m <= q, m > q, a symbol absent from the
    # text, windows holding terminators, and the empty pattern.  Corpora of
    # 4,096 symbols and more give t >= 3 on DNA (width 3), t = 2 at width 5
    # and t = 1 at width 8 (254 letters and the terminator); one of 12
    # symbols has t = 0 and one of a single letter has width 2.
    rng = random.Random(311)
    corpora = {
        "dna": [bytes(rng.choice(b"acgt") for _ in range(rng.randint(200, 300)))
                for _ in range(20)],
        "width 5": [bytes(rng.choice(b"abcdefghijklmnopqrst") for _ in range(300))
                    for _ in range(30)],
        "width 8": [bytes(rng.randrange(1, 255) for _ in range(500)) for _ in range(9)],
        "unary": [b"a" * rng.randint(400, 600) for _ in range(10)],
    }
    for docs in corpora.values():
        docs += docs[:3]                        # repeats longer than q
    corpora["tiny"] = [b"acga", b"tac", b"acga"]
    cases = Counter()
    for name, docs in corpora.items():
        c = ingest(docs)
        s = build_suffix_array(c)
        check_prefix_table(s, c.n)
        t, q = s.t, 31 // s.width
        assert (s.width, t) == {"dna": (3, 3), "width 5": (5, 2), "width 8": (8, 1),
                                "unary": (2, 4), "tiny": (3, 0)}[name]
        assert c.n < 16 if name == "tiny" else c.n >= 4096
        text, letters = c.text, c.alphabet
        absent = bytes(b for b in range(1, 256) if b not in letters)
        pats = [b""]
        for m in {*range(1, t + 2), q - 1, q, q + 1, q + 6} - {0}:
            for _ in range(12):
                a = rng.randrange(c.n)
                window = text[a:a + m]
                pats.append(window)
                i = rng.randrange(len(window))
                if absent:
                    pats.append(window[:i] + bytes([rng.choice(absent)]) + window[i + 1:])
                pats.append(window[:i] + bytes([rng.choice(letters)]) + window[i + 1:])
        prefixes = [text[p - 1:p + q + 6] for p in s.sa.tolist()]
        for pat in pats:
            hits = [i for i, x in enumerate(prefixes, 1) if x.startswith(pat)]
            want = (hits[0], hits[-1]) if hits else (1, 0)
            assert hits == list(range(want[0], want[1] + 1))
            got = s.interval(text, pat)
            assert got[:2] == want, (name, pat)
            assert got.pattern == pat
            m = len(pat)
            if any(b in absent for b in pat):
                cases["absent"] += 1
            elif 0 in pat:
                cases["terminator"] += 1
            branch = "table" if m <= t else "keyed" if m <= q else "bytes"
            cases[branch, name, bool(hits)] += 1
    for name in ("dna", "width 5", "width 8", "unary"):
        for branch in ("table", "keyed", "bytes"):
            assert cases[branch, name, True] >= 10, (branch, name)
    assert cases["table", "tiny", True] == 1        # only the empty pattern
    assert cases["keyed", "tiny", True] >= 10 and cases["bytes", "tiny", True] >= 5
    assert cases["absent"] >= 200 and cases["terminator"] >= 50, cases


def test_prefix_table_is_equal_built_and_loaded():
    # The table of first slots comes out the same from a build, a load
    # that reruns the sort (the sort path on DNA, the document path on
    # revisions) and a load that checks a stored suffix array.
    for docs in (acgt_corpus(random.Random(313)), revisions_corpus(random.Random(313))):
        built = build_index(docs, g_prime=8, k_max=4).suffixes
        check_prefix_table(built, len(built))
        assert built.t >= 1
        for include in (False, True):
            loaded = deserialize_index(serialize_index(build_index(docs, g_prime=8, k_max=4),
                                                       include)).suffixes
            check_prefix_table(loaded, len(loaded))
            assert loaded.t == built.t and np.array_equal(loaded.first, built.first)


def test_suffix_order_shorter_than_one_packed_key():
    # Texts shorter than one first-round key, exactly one key long and one
    # symbol longer; the key's length shrinks as the text's index bits grow.
    rng = random.Random(67)
    for sigma in PACKING_SIGMAS:
        # The codes count the terminator apart: only sigma = 256 has 0x00.
        width = (min(sigma, 255) + 1).bit_length()
        beyond = {n: n - _first_round_length(n, width) for n in range(1, 64)}
        lengths = [n for n, over in beyond.items() if over <= 1]
        assert {0, 1} <= {beyond[n] for n in lengths}
        alphabet = bytes(range(256 - sigma, 256))
        for n in lengths:
            text = bytes(rng.choice(alphabet) for _ in range(n))
            assert (sort_raw(text) + 1).tolist() == brute_suffix_array(text)


def test_suffix_order_long_repeats_vs_full_doubling():
    rng = random.Random(71)
    document = "".join(rng.choice("abcdefghij") for _ in range(10_000))
    for text in (ingest([document] * 21).text, b"a" * 50_000, b"\x00" * 50_000 + b"a"):
        assert np.array_equal(sort_raw(text), doubling_suffix_order(text))


def test_sort_orders_ties_by_index():
    # Packed keys are distinct, so equal keys keep their index order: the
    # stable argsort, at lengths whose index bits run from 0 to 9.
    rng = np.random.default_rng(103)
    for n in (1, 2, 3, 5, 17, 64, 65, 1000):
        for top in (1, 4, n, 1 << 40):
            key = rng.integers(0, top, n)
            want = np.argsort(key, kind="stable")
            got_key, order = _sort(key.copy())
            assert np.array_equal(order, want)
            assert np.array_equal(got_key, key[want])


def test_sort_falls_back_to_argsort_past_63_bits(monkeypatch):
    # Keys near 2**62 leave no room for 10 index bits: np.argsort sorts them.
    calls = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        calls.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    key = (1 << 62) - np.random.default_rng(107).integers(0, 100, 1000)
    got_key, order = _sort(key.copy())
    monkeypatch.undo()
    assert calls == [1000]
    assert np.array_equal(got_key, np.sort(key))
    assert np.array_equal(key[order], got_key)


def test_first_round_keys_fit_with_the_index():
    # For every code width and text length up to MAX_SYMBOLS, a first-round
    # key holds at least the q codes of the int32 keys, and fits 63 bits
    # next to its index.  Both depend on n only through its index bits, so
    # one length of each bit count, 0 to 30, covers them all.
    lengths = [1, *(2**j + 1 for j in range(30)), MAX_SYMBOLS]
    assert max(lengths) == MAX_SYMBOLS and _index_bits(MAX_SYMBOLS) == 30
    for width in range(1, 10):
        for n in lengths:
            h = _first_round_length(n, width)
            assert h >= 31 // width
            assert h * width + _index_bits(n) <= 63


def test_later_rounds_sort_only_unfinished_groups(monkeypatch):
    # Finished groups drop out: each round after the first sorts fewer
    # keys than the text has suffixes, and the last one few of them.  How
    # few depends on how far the longest repeats reach past the last
    # doubling step; on these revisions (documents under 1 k symbols),
    # whose first round sorts on 8 symbols, it was 0-12% of n over seeds
    # 0-15, and 9.0% at this seed.
    c = ingest(revisions_corpus(random.Random(73), bases=26, revisions=10, length=160))
    assert c.n >= 200_000
    sizes = []
    sort = suffixes._sort

    def recording_sort(key):
        sizes.append(len(key))
        return sort(key)

    monkeypatch.setattr(suffixes, "_sort", recording_sort)
    order = sort_raw(c.text)
    monkeypatch.undo()
    assert np.array_equal(order, doubling_suffix_order(c.text))
    assert sizes[0] == c.n and len(sizes) >= 3
    assert all(size < c.n for size in sizes[1:])
    assert sizes[-1] < c.n / 10


def test_build_codes_from_the_corpus_alphabet(monkeypatch):
    # The corpus counts its symbols once; neither a sort nor a stored suffix
    # array counts them again.
    c = ingest(revisions_corpus(random.Random(79)))
    want = build_suffix_array(c)

    def refuse(*args, **kwargs):
        raise AssertionError("np.bincount called")

    monkeypatch.setattr(np, "bincount", refuse)
    for s in (build_suffix_array(c), SuffixIndex(c, want.sa)):
        assert np.array_equal(s.sa, want.sa) and np.array_equal(s.keys, want.keys)
        assert s.code == want.code and s.width == (c.sigma + 1).bit_length()
    assert list(s.sa) == brute_suffix_array(c.text)


_COPIED = "".join(random.Random(83).choice("abcdefghij") for _ in range(500))

# Corpora where a document's own suffix order is easy to get wrong: one
# document, documents of one symbol, one symbol in all, periodic text,
# identical copies, documents that are prefixes of others, and revisions.
DOCUMENT_PATH_CORPORA = {
    "one document": ["abracadabra" * 30],
    "one-symbol documents": ["a", "b", "a", "c", "a", "a"],
    "sigma 1": ["aaa", "a", "a" * 200, "aa"],
    "periodic ab": ["ab" * 300, "ab" * 150, "ba" * 200, "ab"],
    "21 identical copies": [_COPIED] * 21,
    "a prefix of another": ["abcabd" * 10, ("abcabd" * 10)[:31], "abcabd" * 10 + "ab"],
    "random revisions": revisions_corpus(random.Random(89), bases=6, revisions=8, length=80),
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_PATH_CORPORA))
def test_document_path_equals_the_sort(name, monkeypatch):
    # Forced below any tie share, the document path must give the sort's
    # suffix array, document array and keys, value for value and in the
    # same dtypes.
    c = ingest(DOCUMENT_PATH_CORPORA[name])
    code, width = _symbol_codes(c.alphabet)
    order, keys, by_document = _suffix_order(code[np.frombuffer(c.text, dtype=np.uint8)],
                                             width)
    assert not by_document
    sa = order + 1
    want = {"sa": sa, "doc_ids": c.doc_ids(sa), "keys": keys}
    wavelet = WaveletTree(want["doc_ids"], c.d)
    calls = document_path_calls(monkeypatch)
    monkeypatch.setattr(suffixes, "DOCUMENT_PATH_TIES", -1.0)
    got = build_suffix_array(c, wavelet)
    assert calls == [wavelet]
    for field_name, array in want.items():
        value = getattr(got, field_name)
        assert value.dtype == array.dtype and np.array_equal(value, array), field_name
    if c.n <= 2000:
        assert sa.tolist() == brute_suffix_array(c.text)


def test_document_order_is_the_stable_argsort():
    rng = random.Random(97)
    for _ in range(40):
        docs = random_docs(rng, max_docs=rng.choice((1, 2, 5, 33)), sigma=rng.randint(1, 3))
        s = build_suffix_array(ingest(docs))
        slots = WaveletTree(s.doc_ids, len(docs)).document_order()
        assert slots.dtype == np.int32
        assert np.array_equal(slots, np.argsort(s.doc_ids, kind="stable"))


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


def test_top_documents_counts_every_branch_as_greedy_topk(monkeypatch):
    # top_documents counts a slice of at most SHORT_SLICE slots by a Python
    # sort, a longer one by bincount, or by np.unique where its largest id
    # is at least 16 times its length.  Every branch must list greedy_topk's
    # pairs as plain ints, at and just past SHORT_SLICE, ties cut at the
    # k-th frequency included.  Twelve documents over two symbols give the
    # ties and bincount; 600 documents, more than 16 * (SHORT_SLICE + 1),
    # give slices just past SHORT_SLICE that np.unique counts.
    rng = random.Random(283)
    few = ["".join(rng.choice("ab") for _ in range(rng.randint(20, 60))) for _ in range(6)] * 2
    many = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 4))) for _ in range(600)]
    indexes = []
    for docs in (few, many):
        c = ingest(docs)
        s = build_suffix_array(c)
        indexes.append((c.d, s, WaveletTree(s.doc_ids, c.d)))
    counted = Counter()
    for name in ("bincount", "unique"):
        def count(*args, _name=name, _real=getattr(np, name), **kwargs):
            counted[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, count)
    short = suffixes.SHORT_SLICE
    branches, cut_in_a_tie = Counter(), Counter()
    for d, s, w in indexes:
        n = len(s)
        for length in (1, 2, short - 1, short, short + 1, short + 2, 4 * short):
            for sp in rng.sample(range(1, n - length + 2), 40):
                ep = sp + length - 1
                before = counted.copy()
                freqs = [f for _, f in s.top_documents(sp, ep, d)]
                (branch,) = counted - before or ["python"]
                branches[branch, length <= short] += 1
                for k in range(1, len(freqs) + 3):
                    got = s.top_documents(sp, ep, k)
                    assert got == w.greedy_topk(sp, ep, k)
                    assert all(type(v) is int for pair in got for v in pair)
                    cut_in_a_tie[length] += k < len(freqs) and freqs[k - 1] == freqs[k]
    assert branches.keys() == {("python", True), ("bincount", False), ("unique", False)}
    assert branches["python", True] > 300 and branches["bincount", False] > 120
    assert branches["unique", False] > 50
    assert cut_in_a_tie[short] > 1000 and cut_in_a_tie[short + 1] > 1000


# Eight ids whose largest is 16 L - 1, which bincount counts, and the same
# with it raised to 16 L, which np.unique counts.  Unweighted, 2 and 5 tie
# at three and 0 and the largest at one; weighted, 0 and 2 tie at four.
BINCOUNT_IDS = [5, 2, 5, 16 * 8 - 1, 2, 5, 0, 2]
UNIQUE_IDS = [5, 2, 5, 16 * 8, 2, 5, 0, 2]
WEIGHTS = [3.0, 1.0, 2.0, 1.0, 2.0, 1.0, 4.0, 1.0]


@pytest.mark.parametrize("ids, weights, branch", [
    (BINCOUNT_IDS, None, "bincount"), (UNIQUE_IDS, None, "unique"),
    (BINCOUNT_IDS, WEIGHTS, "bincount"), (UNIQUE_IDS, WEIGHTS, "unique")])
def test_count_and_ranked_match_a_counter(ids, weights, branch, monkeypatch):
    # count lists each id once, ascending, with how often it occurs or its
    # summed weights, as int64 even from the float sums of a weighted
    # bincount; ranked keeps the first k of them by (-count, id), as plain
    # ints, ties cut at the k-th count and k past the distinct ids included.
    want = Counter()
    for i, w in zip(ids, weights or [1] * len(ids)):
        want[i] += int(w)
    unique = np.unique
    calls = []
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    got_ids, got_counts = suffixes.count(np.array(ids, dtype=np.int32),
                                         None if weights is None else np.array(weights))
    assert ("unique" if calls else "bincount") == branch
    assert got_counts.dtype == np.int64
    assert list(zip(got_ids.tolist(), got_counts.tolist())) == sorted(want.items())
    ranking = sorted(want.items(), key=lambda p: (-p[1], p[0]))
    cut = 0
    for k in range(1, len(want) + 3):
        got = suffixes.ranked(got_ids, got_counts, k)
        assert got == ranking[:k]
        assert all(type(v) is int for pair in got for v in pair)
        cut += k < len(want) and ranking[k - 1][1] == ranking[k][1]
    assert cut >= 1


@pytest.mark.parametrize("top", [7, 8, 31, 32])
def test_packed_rank_at_the_bit_length_edges(top, monkeypatch):
    # ranked packs id - (count << b), b the bit length of the largest id:
    # 2**b - 1 fills the id bits, 2**b takes one more.  Document i holds
    # 5 * (i % 3) c's, the last one 5, so counts tie at 10 and at 5 and
    # every third document has none.  The interval of "c" has 5 (top - 1)
    # slots or more, more than SHORT_SLICE, and d = top < 16 L, so
    # top_documents counts it by one bincount into a dense vector, whose
    # id 0 and zero counts are never listed, and never calls count.
    docs = ["c" * (5 * (i % 3) if i < top else 5) + "ab" for i in range(1, top + 1)]
    want = Counter({i: doc.count("c") for i, doc in enumerate(docs, 1) if "c" in doc})
    ranking = sorted(want.items(), key=lambda p: (-p[1], p[0]))
    c = ingest(docs)
    s = build_suffix_array(c)
    iv = pattern_interval(s, c, "c")
    assert iv.occurrences > suffixes.SHORT_SLICE and c.d < 16 * iv.occurrences
    calls = Counter()
    bincount, count = np.bincount, suffixes.count
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **kw: calls.update(["bincount"]) or bincount(*a, **kw))
    monkeypatch.setattr(suffixes, "count",
                        lambda *a, **kw: calls.update(["count"]) or count(*a, **kw))
    dense = np.zeros(top + 1, dtype=np.int64)
    dense[list(want)] = list(want.values())
    compact = np.array(sorted(want)), np.array([want[i] for i in sorted(want)])
    assert compact[0][-1] == top
    cut = 0
    for k in range(1, top + 3):
        got = s.top_documents(iv.sp, iv.ep, k)
        assert got == ranking[:k]
        assert all(type(v) is int for pair in got for v in pair)
        assert suffixes.ranked(np.arange(top + 1), dense, k) == ranking[:k]
        assert suffixes.ranked(*compact, k) == ranking[:k]
        cut += k < len(ranking) and ranking[k - 1][1] == ranking[k][1]
    assert calls == {"bincount": top + 2} and cut >= 2


def test_dense_rank_lists_only_counted_documents(monkeypatch):
    # A dense count over ids 0..d with fewer non-zero ids than k: the two
    # documents of "c", tied at 50, come back alone and in id order, without
    # id 0 or any of the eight documents that hold no c.
    docs = ["ab", "c" * 50, "ba", "c" * 50, *["ab", "ba", "aab"] * 2]
    c = ingest(docs)
    s = build_suffix_array(c)
    iv = pattern_interval(s, c, "c")
    ranked = []
    real = suffixes.ranked
    monkeypatch.setattr(suffixes, "ranked", lambda *a: ranked.append(len(a[0])) or real(*a))
    for k in (2, 3, 10, 40):
        assert s.top_documents(iv.sp, iv.ep, k) == [(2, 50), (4, 50)]
    assert s.top_documents(iv.sp, iv.ep, 1) == [(2, 50)]
    assert ranked == [5] * 5         # ids 0..4: the vector runs to the largest id
    dense = np.bincount(s.doc_ids[iv.sp - 1:iv.ep], minlength=c.d + 1)
    assert suffixes.ranked(np.arange(c.d + 1), dense, c.d + 5) == [(2, 50), (4, 50)]


def test_top_documents_rejects_intervals_outside_the_array(worked_suffixes, worked_wavelet):
    # Like greedy_topk, whose answer it lists: a slice from slot 0 would
    # wrap, one past n would be cut short and a reversed one is no slice.
    n = len(worked_suffixes)
    assert n == 14
    for sp, ep, k in ((0, n, 3), (3, 99, 3), (5, 4, 2)):
        with pytest.raises(OutOfRangeError):
            worked_suffixes.top_documents(sp, ep, k)
        with pytest.raises(OutOfRangeError):
            worked_wavelet.greedy_topk(sp, ep, k)
    assert worked_suffixes.top_documents(1, n, 3) == worked_wavelet.greedy_topk(1, n, 3)
