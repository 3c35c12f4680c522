"""Top-k most-frequent-document retrieval for substring patterns.

Build an index over a collection of byte-string documents, then ask which
k documents contain an arbitrary pattern most often:

    >>> import topkdoc
    >>> index = topkdoc.build_index([b"abab", b"abba", b"bab"])
    >>> topkdoc.query_topk(index, b"ab", 1).pairs
    [(1, 2)]
"""

from . import errors
from .bitrank import RankBitVector
from .container import load_index, save_index
from .corpus import Corpus, ingest
from .engine import (DFS, GREEDY, SELECT, STRATEGIES, CandidateHeap, Index,
                     QueryStats, TopKResult, build_index, kstar, query_topk,
                     select_scan)
from .louds import LoudsTree
from .sgst import SGST, MarkedNode, build_sgst, candidates_of, find_locus
from .suffixes import (PatternInterval, SuffixIndex, build_suffix_array,
                       pattern_interval)
from .wavelet import WaveletTree

__version__ = "0.1.0"

__all__ = [
    "CandidateHeap", "Corpus", "DFS", "GREEDY", "Index", "LoudsTree",
    "MarkedNode", "PatternInterval", "QueryStats", "RankBitVector", "SELECT",
    "SGST", "STRATEGIES", "SuffixIndex", "TopKResult", "WaveletTree",
    "build_index", "build_sgst", "build_suffix_array", "candidates_of",
    "errors", "find_locus", "ingest", "kstar", "load_index",
    "pattern_interval", "query_topk", "save_index", "select_scan",
]
