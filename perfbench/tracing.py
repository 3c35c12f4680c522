"""Timing spans and counters wrapped around topkdoc's functions from outside.

``Tracer.install(kinds)`` replaces each function or method of TARGETS whose
kind is in `kinds`, in every topkdoc module that bound it, with a wrapper;
``uninstall()`` puts the originals back and ``wrappers_left()`` scans the
package for any wrapper still in place.  Nothing in the library itself
changes.

A span records (name, start ns, end ns, parent span, query id, phase).
Spans stay in memory until ``write()``.  A layer's self time is its span's
duration minus the durations of its direct child spans, which nest and
never overlap because the library runs on one thread.  Counters only bump
an integer per call, for functions called too often to time one by one;
they are installed apart from the spans (SPANS, COUNTS), because their cost
would otherwise inflate the spans of every caller.

While ``memory`` is set and tracemalloc is tracing, the build stages in
MEMORY_STAGES also record their peak traced allocation above the level at
which they started, using ``tracemalloc.reset_peak()``.
"""

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN, GENERATOR, COUNT = "span", "generator", "count"
SPANS = (SPAN, GENERATOR)
COUNTS = (COUNT,)

# (module, attribute path, recorded name, kind)
TARGETS = (
    ("topkdoc.engine", "build_index", "engine.build_index", SPAN),
    ("topkdoc.engine", "query_topk", "engine.query_topk", SPAN),
    ("topkdoc.engine", "select_scan", "engine.select_scan", SPAN),
    ("topkdoc.corpus", "ingest", "corpus.ingest", SPAN),
    ("topkdoc.suffixes", "build_suffix_array", "suffixes.build_suffix_array", SPAN),
    ("topkdoc.suffixes", "pattern_interval", "suffixes.pattern_interval", SPAN),
    ("topkdoc.wavelet", "WaveletTree.__init__", "wavelet.build", SPAN),
    ("topkdoc.wavelet", "WaveletTree.greedy_topk", "wavelet.greedy_topk", SPAN),
    ("topkdoc.wavelet", "WaveletTree.doc_freq", "wavelet.doc_freq", SPAN),
    ("topkdoc.wavelet", "WaveletTree.restricted_greedy", "wavelet.restricted", GENERATOR),
    ("topkdoc.wavelet", "WaveletTree.restricted_dfs", "wavelet.restricted", GENERATOR),
    ("topkdoc.sgst", "build_sgst", "sgst.build_sgst", SPAN),
    ("topkdoc.sgst", "find_locus", "sgst.find_locus", SPAN),
    ("topkdoc.sgst", "candidates_of", "sgst.candidates_of", SPAN),
    ("topkdoc.louds", "LoudsTree.encode", "louds.encode", SPAN),
    ("topkdoc.louds", "LoudsTree.child_count", "louds.nav", COUNT),
    ("topkdoc.louds", "LoudsTree.handle_of_rank", "louds.nav", COUNT),
    # rank0 and rank are computed through rank1, so this counts every rank.
    ("topkdoc.bitrank", "RankBitVector.rank1", "bitrank.rank", COUNT),
    ("topkdoc.bitrank", "RankBitVector.select", "bitrank.select", COUNT),
    ("topkdoc.container", "serialize_index", "container.serialize", SPAN),
    ("topkdoc.container", "deserialize_index", "container.deserialize", SPAN),
)

MEMORY_STAGES = frozenset({"suffixes.build_suffix_array", "sgst.build_sgst"})

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, query_id, phase]
        self.counts = defaultdict(Counter)   # phase -> name -> calls
        self.peaks = {}          # memory stage -> peak bytes above its start
        self.phase = None
        self.query_id = None
        self.memory = False
        self._stack = []
        self._patches = []       # (owner, attribute, original object)

    # -- recording ---------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.query_id, self.phase])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self
        track_memory = name in MEMORY_STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = None
            if track_memory and tracer.memory and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if base is not None:
                    tracer.peaks[name] = tracemalloc.get_traced_memory()[1] - base
        return wrapper

    def _generator_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer.phase][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, kinds):
        if self._patches:
            raise RuntimeError("tracer already installed")
        make = {SPAN: self._span_wrapper, GENERATOR: self._generator_wrapper,
                COUNT: self._count_wrapper}
        for module_name, path, name, kind in TARGETS:
            if kind not in kinds:
                continue
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(make[kind](name, original.__func__))
                else:
                    wrapped = make[kind](name, original)
                self._patch(owner, attr, original, wrapped)
                continue
            original = getattr(module, path)
            wrapped = make[kind](name, original)
            # `from .x import f` binds f in every importing module too.
            for other in _package_modules():
                if getattr(other, path, None) is original:
                    self._patch(other, path, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        target = wrapped.__func__ if isinstance(wrapped, classmethod) else wrapped
        setattr(target, _MARK, True)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self):
        """Self time in ns of every span, by span index."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent",
                                 "query_id", "phase"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "topkdoc" or name.startswith("topkdoc."))]


def wrappers_left():
    """(owner, attribute) of every tracing wrapper still reachable in topkdoc."""
    left = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                left.append((module.__name__, attr))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    func = getattr(cvalue, "__func__", cvalue)
                    if getattr(func, _MARK, False):
                        left.append((value.__qualname__, cattr))
    return left
