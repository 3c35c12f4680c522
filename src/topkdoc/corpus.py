"""Document collection ingestion.

Documents are byte strings.  They are concatenated into one text with a
terminator byte 0x00 appended after each document; 0x00 is reserved and
compares below every document symbol, so it may not appear in the input.
The text is the collection's only copy: document bounds and ids, and the
symbol table `alphabet` that the index codes symbols by, are read off it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (CorpusTooLargeError, EmptyDocumentError, OutOfRangeError,
                     SentinelInDocumentError)

SENTINEL = 0
MAX_SYMBOLS = 2**30 - 1     # longest text: positions, even summed in pairs, fit int32


@dataclass(frozen=True)
class Corpus:
    text: bytes     # concatenation, one terminator after each document
    n: int          # len(text)
    d: int          # number of documents, ids 1..d in text order
    alphabet: bytes # distinct symbols of text, terminator excluded, ascending
    ends: tuple     # 1-based position of each document's terminator, ascending

    @classmethod
    def from_text(cls, text):
        """Corpus over text, which must end with a terminator.

        Raises EmptyDocumentError when text holds no document, an empty one
        or symbols after its last terminator, and CorpusTooLargeError when
        it is longer than MAX_SYMBOLS."""
        if len(text) > MAX_SYMBOLS:
            raise CorpusTooLargeError(f"{len(text)} symbols; at most {MAX_SYMBOLS} fit")
        symbols = np.frombuffer(text, dtype=np.uint8)
        ends = np.flatnonzero(symbols == SENTINEL) + 1
        if not ends.size or ends[-1] != len(text) or (np.diff(ends, prepend=0) == 1).any():
            raise EmptyDocumentError("need at least one document, each of at least "
                                     "one symbol and ended by a terminator")
        alphabet = np.flatnonzero(np.bincount(symbols, minlength=256)[1:]) + 1
        return cls(text=bytes(text), n=len(text), d=len(ends),
                   alphabet=alphabet.astype(np.uint8).tobytes(), ends=tuple(ends.tolist()))

    @property
    def sigma(self):
        return len(self.alphabet)

    @property
    def lengths(self):
        """Each document's length plus its terminator, as int64: the number
        of text positions, and so of document-array slots, it owns."""
        return np.diff(self.ends, prepend=0)

    def doc_ids(self, positions):
        """Document id owning each 1-based text position, as int32.

        A terminator belongs to the document it ends.  The ids are gathered
        from an array of every position's owner, built in one pass, so the
        whole suffix array maps without a binary search per position.
        """
        owner = np.repeat(np.arange(1, self.d + 1, dtype=np.int32), self.lengths)
        return owner[np.asarray(positions) - 1]

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
