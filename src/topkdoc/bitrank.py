"""Plain bit vector with sampled rank, and select by binary search over rank.

Bits are packed into 64-bit words.  A rank directory stores the running
popcount every `sample_step` bits, so rank costs one directory lookup plus
at most `sample_step / 64` word popcounts; at the default of one sample
per word that is one lookup and one popcount.  select(bit, j) is one
bisect over the positions 0..n keyed by rank, the smallest p with
rank(bit, p) == j; no query path calls it.  Words (u64) and directory
(int64) are numpy arrays, kept once and read-only; the queries read them
through memoryviews, whose items are plain Python ints.

The wavelet tree projects an interval through a node with rank1 at its two
ends, so rank1_pair answers both positions with one range check; the tree's
walks check their range on entry and call the unchecked _rank1_pair, which
needs a sample at every word, as every level of the tree has.
ranks1 answers rank1 at many positions at once, in numpy, over the packed
words, as the container's loader needs for every node of a level.
"""

from bisect import bisect_left

import numpy as np

from .errors import InvalidParameterError, NotEnoughOccurrencesError, OutOfRangeError, positive

_WORD = 64
_LOW = [(1 << r) - 1 for r in range(_WORD)]     # the r low bits of a word


class RankBitVector:
    """Immutable bit sequence, positions numbered 1..n.

    rank(bit, i) counts occurrences of `bit` among positions 1..i, so
    rank(bit, 0) == 0.  select(bit, j) returns the position of the j-th
    occurrence, the smallest p with rank(bit, p) == j.
    """

    __slots__ = ("_n", "_words", "_samples", "_step", "_step_words", "_ones")

    def __init__(self, bits=(), sample_step=64):
        arr = _as_bit_array(bits)
        n = len(arr)
        words = np.zeros((n + _WORD - 1) // _WORD, dtype="<u8")
        words.view(np.uint8)[:(n + 7) // 8] = np.packbits(arr, bitorder="little")
        self._init_from_words(words, n, sample_step)

    @classmethod
    def from_words(cls, words, n):
        """Rebuild from packed 64-bit words, with a rank sample per word."""
        self = cls.__new__(cls)
        words = np.array(words, dtype="<u8")
        need = (n + _WORD - 1) // _WORD
        if len(words) != need:
            raise OutOfRangeError(f"expected {need} words for {n} bits, got {len(words)}")
        if n % _WORD:
            words[-1] &= np.uint64((1 << (n % _WORD)) - 1)  # mask stray tail bits
        self._init_from_words(words, n, _WORD)
        return self

    def _init_from_words(self, words, n, sample_step):
        # Align the directory to whole words; 64 is the finest granularity.
        step_words = max(1, positive("sample_step", sample_step) // _WORD)
        step = step_words * _WORD
        self._n = n
        self._step = step
        self._step_words = step_words
        # Ones before each word; a sample at every block start, then the total.
        acc = _ones_before(words)
        samples = np.append(acc[:-1:step_words], acc[-1])
        words.flags.writeable = samples.flags.writeable = False
        self._words, self._samples = memoryview(words), memoryview(samples)
        self._ones = self._samples[-1]

    def __len__(self):
        return self._n

    @property
    def ones(self):
        return self._ones

    @property
    def sample_step(self):
        return self._step

    @property
    def words(self):
        """Packed little-endian u64 words, as a read-only numpy array."""
        return self._words.obj

    def get(self, pos):
        """Bit value at 1-based position pos."""
        if not 1 <= pos <= self._n:
            raise OutOfRangeError(f"position {pos} outside 1..{self._n}")
        i = pos - 1
        return (self._words[i >> 6] >> (i & 63)) & 1

    def rank1(self, i):
        if not 0 <= i <= self._n:
            raise OutOfRangeError(f"prefix length {i} outside 0..{self._n}")
        return self._rank1(i)

    def rank1_pair(self, i, j):
        """(rank1(i), rank1(j)) for 0 <= i <= j <= n."""
        if not 0 <= i <= j <= self._n:
            raise OutOfRangeError(f"prefix lengths {i}, {j} not ordered within 0..{self._n}")
        if self._step_words != 1:
            return self._rank1(i), self._rank1(j)
        return self._rank1_pair(i, j)

    def _rank1_pair(self, i, j):
        """rank1_pair without the range check, for a vector sampled at every
        word (sample_step 64), as RankBitVector(bits) and from_words are."""
        words = self._words
        samples = self._samples
        ri = samples[i >> 6]
        r = i & 63
        if r:
            ri += (words[i >> 6] & _LOW[r]).bit_count()
        rj = samples[j >> 6]
        r = j & 63
        if r:
            rj += (words[j >> 6] & _LOW[r]).bit_count()
        return ri, rj

    def _rank1(self, i):
        """rank1 without the range check."""
        words = self._words
        blk = i // self._step
        cnt = self._samples[blk]
        w = i >> 6
        for t in range(blk * self._step_words, w):
            cnt += words[t].bit_count()
        r = i & 63
        if r:
            cnt += (words[w] & _LOW[r]).bit_count()
        return cnt

    def rank0(self, i):
        return i - self.rank1(i)

    def rank(self, bit, i):
        """Occurrences of bit among positions 1..i."""
        return self.rank1(i) if bit else self.rank0(i)

    def select(self, bit, j):
        """1-based position of the j-th occurrence of bit: the smallest p
        with rank(bit, p) == j, by binary search over rank."""
        total = self._ones if bit else self._n - self._ones
        if j < 1 or j > total:
            raise NotEnoughOccurrencesError(f"occurrence {j} of bit {bit} (have {total})")
        rank = self._rank1 if bit else lambda i: i - self._rank1(i)
        return bisect_left(range(self._n + 1), j, key=rank)


def ranks1(words, positions):
    """rank1 at each of positions, an int64 array, over the packed
    little-endian u64 words of a bit vector: one numpy pass, no per-position
    Python work."""
    before = _ones_before(words)
    word = positions >> 6
    head = np.uint64(1) << (positions & 63).astype(np.uint64)
    tail = np.append(words, np.uint64(0))[word] & (head - np.uint64(1))
    return before[word] + np.bitwise_count(tail)


def _ones_before(words):
    """The ones before each of the packed words, then their total, as int64."""
    return np.concatenate(([0], np.cumsum(np.bitwise_count(words), dtype=np.int64)))


def _as_bit_array(bits):
    if isinstance(bits, np.ndarray):
        return bits.astype(np.uint8)
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        if arr.size and arr.max() > 1:
            raise InvalidParameterError("bit string may only contain '0' and '1'")
        return arr
    return np.array([1 if b else 0 for b in bits], dtype=np.uint8)
