import random

import numpy as np
import pytest

from topkdoc import ingest
from topkdoc.errors import EmptyDocumentError, OutOfRangeError, SentinelInDocumentError

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


def test_doc_of_position_worked(worked_corpus):
    # Positions 1..5 (incl. the terminator) are doc 1, 6..10 doc 2, 11..14 doc 3.
    owners = [worked_corpus.doc_of_position(p) for p in range(1, 15)]
    assert owners == [1] * 5 + [2] * 5 + [3] * 4
    with pytest.raises(OutOfRangeError):
        worked_corpus.doc_of_position(0)
    with pytest.raises(OutOfRangeError):
        worked_corpus.doc_of_position(15)


def test_doc_of_position_random(monkeypatch):
    # The second run makes np.repeat raise: one position's owner comes from
    # a binary search over the terminators, not from an owner array of all n.
    def refuse(*args, **kwargs):
        raise AssertionError("doc_of_position built the owner array")

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(np, "repeat", refuse)
        rng = random.Random(11)
        for _ in range(30):
            docs = random_docs(rng)
            c = ingest(docs)
            pos = 0
            for i, doc in enumerate(docs, start=1):
                for _ in range(len(doc) + 1):
                    pos += 1
                    assert c.doc_of_position(pos) == i
                assert c.document(i) == doc.encode()
            assert pos == c.n


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


def test_rejects_terminator_byte():
    with pytest.raises(SentinelInDocumentError):
        ingest([b"a\x00b"])


def test_sigma_counts_distinct_symbols():
    assert ingest(["aaa"]).sigma == 1
    assert ingest(["abc", "cde"]).sigma == 5
