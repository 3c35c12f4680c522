"""Document collection ingestion.

Documents are byte strings.  They are concatenated into one text with a
terminator byte 0x00 appended after each document; 0x00 is reserved and
compares below every document symbol, so it may not appear in the input.
The text is the collection's only copy: document bounds and ids are read
off its terminators.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDocumentError, OutOfRangeError, SentinelInDocumentError

SENTINEL = 0


@dataclass(frozen=True)
class Corpus:
    text: bytes     # concatenation, one terminator after each document
    n: int          # len(text)
    d: int          # number of documents, ids 1..d in text order
    sigma: int      # distinct symbols of text, terminator excluded
    ends: tuple     # 1-based position of each document's terminator, ascending

    @classmethod
    def from_text(cls, text):
        """Corpus over text, which must end with a terminator.

        Raises EmptyDocumentError when text holds no document or an empty one.
        """
        symbols = np.frombuffer(text, dtype=np.uint8)
        ends = np.flatnonzero(symbols == SENTINEL) + 1
        if not ends.size or (np.diff(ends, prepend=0) == 1).any():
            raise EmptyDocumentError("need at least one document, each of at least "
                                     "one symbol")
        sigma = np.count_nonzero(np.bincount(symbols, minlength=256)[1:])
        return cls(text=bytes(text), n=len(text), d=len(ends), sigma=int(sigma),
                   ends=tuple(ends.tolist()))

    def doc_ids(self, positions):
        """Document id owning each 1-based text position, as int32.

        A terminator belongs to the document it ends.  The ids are gathered
        from an array of every position's owner, built in one pass, so the
        whole suffix array maps without a binary search per position.
        """
        owner = np.repeat(np.arange(1, self.d + 1, dtype=np.int32),
                          np.diff(self.ends, prepend=0))
        return owner[np.asarray(positions) - 1]

    def doc_of_position(self, pos):
        """Document id owning 1-based text position pos."""
        if not 1 <= pos <= self.n:
            raise OutOfRangeError(f"position {pos} outside 1..{self.n}")
        return bisect_left(self.ends, pos) + 1

    def document(self, doc_id):
        """Original bytes of document doc_id (1-based)."""
        if not 1 <= doc_id <= self.d:
            raise OutOfRangeError(f"document {doc_id} outside 1..{self.d}")
        start = self.ends[doc_id - 2] if doc_id > 1 else 0
        return self.text[start:self.ends[doc_id - 1] - 1]


def ingest(documents):
    """Build a Corpus from an iterable of non-empty byte strings.

    str inputs are encoded as UTF-8.  Rejects empty documents and documents
    containing the reserved terminator byte.
    """
    docs = []
    for raw in documents:
        data = raw.encode("utf-8") if isinstance(raw, str) else bytes(raw)
        if SENTINEL in data:
            raise SentinelInDocumentError("documents may not contain byte 0x00")
        docs.append(data)
    return Corpus.from_text(b"".join(d + bytes([SENTINEL]) for d in docs))
