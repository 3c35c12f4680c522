import random

import numpy as np
import pytest

from topkdoc import Corpus, corpus, ingest
from topkdoc.errors import (CorpusTooLargeError, EmptyDocumentError, OutOfRangeError,
                            SentinelInDocumentError)

from conftest import WORKED_DOCS, WORKED_TEXT, random_docs


def test_worked_layout(worked_corpus):
    c = worked_corpus
    assert c.d == 3
    assert c.n == 14
    assert c.sigma == 2
    assert c.text == WORKED_TEXT
    assert [c.document(i) for i in (1, 2, 3)] == [b"abab", b"abba", b"bab"]


def test_document_roundtrip(worked_corpus):
    for i, doc in enumerate(WORKED_DOCS, start=1):
        assert worked_corpus.document(i) == doc.encode()
    with pytest.raises(OutOfRangeError):
        worked_corpus.document(0)
    with pytest.raises(OutOfRangeError):
        worked_corpus.document(4)


def test_doc_ids_worked(worked_corpus):
    # Positions 1..5 (incl. the terminator) are doc 1, 6..10 doc 2, 11..14 doc 3.
    owners = worked_corpus.doc_ids(range(1, 15))
    assert owners.dtype == np.int32
    assert owners.tolist() == [1] * 5 + [2] * 5 + [3] * 4


def test_doc_ids_random():
    rng = random.Random(11)
    for _ in range(30):
        docs = random_docs(rng)
        c = ingest(docs)
        want = [i for i, doc in enumerate(docs, start=1) for _ in range(len(doc) + 1)]
        assert c.doc_ids(np.arange(1, c.n + 1)).tolist() == want
        assert [c.document(i) for i in range(1, c.d + 1)] == [doc.encode() for doc in docs]


def test_bytes_input_accepted():
    c = ingest([b"abc", bytearray(b"de")])
    assert [c.document(1), c.document(2)] == [b"abc", b"de"]
    assert c.text == b"abc\x00de\x00"


def test_rejects_empty_document():
    with pytest.raises(EmptyDocumentError):
        ingest(["ab", ""])


def test_rejects_empty_collection():
    with pytest.raises(EmptyDocumentError):
        ingest([])


def test_rejects_text_after_the_last_terminator():
    # The last document must be ended: "cd" has no terminator, so no
    # document holds its positions.
    with pytest.raises(EmptyDocumentError):
        Corpus.from_text(b"ab\x00cd")
    assert Corpus.from_text(b"ab\x00cd\x00").lengths.tolist() == [3, 3]


def test_rejects_terminator_byte():
    with pytest.raises(SentinelInDocumentError):
        ingest([b"a\x00b"])


def test_rejections_name_the_document():
    # The 1-based number of the first empty or 0x00-holding document, as
    # ingest counts them: str and bytes alike, before any later one.
    with pytest.raises(EmptyDocumentError, match=r"^document 3 is empty$"):
        ingest(["ab", b"c", "", "a\x00"])
    with pytest.raises(SentinelInDocumentError, match=r"^document 2 holds byte 0x00"):
        ingest([b"ab", "c\x00d", b""])
    with pytest.raises(EmptyDocumentError, match="at least one document"):
        ingest([])


def test_sigma_counts_distinct_symbols():
    assert ingest(["aaa"]).sigma == 1
    assert ingest(["abc", "cde"]).sigma == 5


def test_alphabet_is_the_distinct_document_bytes():
    rng = random.Random(13)
    for docs in [["aaa"], ["abc", "cde"], [bytes(range(1, 256))]] + \
            [random_docs(rng, sigma=rng.randint(1, 3)) for _ in range(10)]:
        c = ingest(docs)
        assert c.alphabet == bytes(sorted(set(c.text) - {0}))
        assert c.sigma == len(c.alphabet)


def test_rejects_a_text_over_the_size_limit(monkeypatch):
    monkeypatch.setattr(corpus, "MAX_SYMBOLS", 10)
    assert ingest(["abcd", "efgh"]).n == 10
    with pytest.raises(CorpusTooLargeError):
        ingest(["abcd", "efghi"])
    with pytest.raises(CorpusTooLargeError):
        Corpus.from_text(b"abcdefghij\x00")
