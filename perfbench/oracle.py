"""Exact top-k answers computed from the raw documents, without the index.

An answer is correct when it meets the same four conditions as the
repository's own oracle tests: its frequencies are the true top-k
frequencies, each listed document has exactly the listed frequency, no
document repeats, and pairs are ranked by descending frequency, then
ascending id.  Which of several documents tied at the k-th frequency are
listed is not part of correctness; ``check`` reports that case separately.

Every pattern of a workload has the same length m <= 8, so each text window
of length m packs into one uint64 code whose bytes are the window's bytes.
Documents are joined with 0x00, which no document or pattern contains, so a
window that crosses a document end can never equal a pattern's code.  One
pass over the codes then yields every pattern's per-document overlapping
occurrence count.
"""

from typing import NamedTuple

import numpy as np


class Answer(NamedTuple):
    top: list        # [(doc, freq)] ranked, ties to the lower id, at most k
    freq_of: dict    # doc -> occurrences, every document that has any
    total: int       # occurrences over all documents


def window_codes(text, m):
    """uint64 code of every length-m window of the uint8 array text."""
    if not 1 <= m <= 8:
        raise ValueError("window codes need 1 <= m <= 8")
    count = len(text) - m + 1
    codes = np.zeros(max(count, 0), dtype=np.uint64)
    for j in range(m):
        codes = (codes << np.uint64(8)) | text[j:j + count].astype(np.uint64)
    return codes


def expected_answers(docs, patterns, k):
    """Map each distinct pattern to its Answer."""
    distinct = sorted(set(patterns))
    if not distinct:
        return {}
    m = len(distinct[0])
    if any(len(p) != m for p in distinct):
        raise ValueError("all patterns must have the same length")
    lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
    text = np.frombuffer(b"\x00".join(docs) + b"\x00", dtype=np.uint8)
    doc_of = np.repeat(np.arange(1, len(docs) + 1), lengths + 1)
    codes = window_codes(text, m)
    wanted = window_codes(np.frombuffer(b"".join(distinct), dtype=np.uint8), m)[::m]

    hits = np.nonzero(np.isin(codes, wanted))[0]
    pairs = np.stack([codes[hits], doc_of[hits].astype(np.uint64)])
    (code_of, doc_ids), freqs = np.unique(pairs, axis=1, return_counts=True)
    # Within each pattern: most frequent first, ties to the lower document id.
    order = np.lexsort((doc_ids, -freqs, code_of))
    code_of, doc_ids, freqs = code_of[order], doc_ids[order], freqs[order]
    starts = np.searchsorted(code_of, wanted, side="left")
    stops = np.searchsorted(code_of, wanted, side="right")

    out = {}
    for pat, lo, hi in zip(distinct, starts.tolist(), stops.tolist()):
        ids, counts = doc_ids[lo:hi].tolist(), freqs[lo:hi].tolist()
        out[pat] = Answer(list(zip(ids[:k], counts[:k])), dict(zip(ids, counts)),
                          sum(counts))
    return out


TIE_ORDER = "tie-order"


def check(pairs, answer):
    """None when pairs equal answer.top, TIE_ORDER when pairs are correct
    but list other documents tied at the k-th frequency, else the problem."""
    if pairs == answer.top:
        return None
    if [f for _, f in pairs] != [f for _, f in answer.top]:
        return "frequencies are not the top-k frequencies"
    if any(answer.freq_of.get(doc) != freq for doc, freq in pairs):
        return "a listed frequency is not the document's count"
    if len({doc for doc, _ in pairs}) != len(pairs):
        return "a document is listed twice"
    if pairs != sorted(pairs, key=lambda p: (-p[1], p[0])):
        return "pairs are not ranked by (-freq, doc)"
    return TIE_ORDER
