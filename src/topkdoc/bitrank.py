"""Plain bit vector with sampled rank and binary-searched select.

Bits are packed into 64-bit words.  A rank directory stores the running
popcount every `sample_step` bits, so rank costs one directory lookup plus
at most `sample_step / 64` word popcounts; at the default of one sample
per word that is one lookup and one popcount.  select is one bisect over
the directory, keyed by the ones or zeros before each block, then a scan
within that block.  Words and directory are built in numpy, then kept as
lists of Python ints for the queries.

The wavelet tree projects an interval through a node with rank1 at its two
ends, so rank1_pair answers both positions with one range check.
"""

from bisect import bisect_left

import numpy as np

from .errors import NotEnoughOccurrencesError, OutOfRangeError

_WORD = 64
_FULL = (1 << 64) - 1


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
        words = np.array(words, dtype=np.uint64)
        need = (n + _WORD - 1) // _WORD
        if len(words) != need:
            raise OutOfRangeError(f"expected {need} words for {n} bits, got {len(words)}")
        if n % _WORD:
            words[-1] &= np.uint64((1 << (n % _WORD)) - 1)  # mask stray tail bits
        self._init_from_words(words, n, _WORD)
        return self

    def _init_from_words(self, words, n, sample_step):
        if sample_step < 1:
            raise ValueError("sample_step must be positive")
        # Align the directory to whole words; 64 is the finest granularity.
        step_words = max(1, int(sample_step) // _WORD)
        step = step_words * _WORD
        self._n = n
        self._step = step
        self._step_words = step_words
        # Ones before each word; a sample at every block start, then the total.
        acc = np.concatenate(([0], np.cumsum(np.bitwise_count(words), dtype=np.int64)))
        self._samples = np.append(acc[:-1:step_words], acc[-1]).tolist()
        self._words = words.tolist()
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
        """Packed little-endian words, for serialization."""
        return self._words

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
        words = self._words
        samples = self._samples
        ri = samples[i >> 6]
        r = i & 63
        if r:
            ri += (words[i >> 6] & ((1 << r) - 1)).bit_count()
        rj = samples[j >> 6]
        r = j & 63
        if r:
            rj += (words[j >> 6] & ((1 << r) - 1)).bit_count()
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
            cnt += (words[w] & ((1 << r) - 1)).bit_count()
        return cnt

    def rank0(self, i):
        return i - self.rank1(i)

    def rank(self, bit, i):
        """Occurrences of bit among positions 1..i."""
        return self.rank1(i) if bit else self.rank0(i)

    def select(self, bit, j):
        """1-based position of the j-th occurrence of bit."""
        total = self._ones if bit else self._n - self._ones
        if j < 1 or j > total:
            raise NotEnoughOccurrencesError(f"occurrence {j} of bit {bit} (have {total})")
        return self._select(bit, j)

    def _select(self, bit, j):
        """select without the occurrence check."""
        samples = self._samples
        step = self._step
        # Occurrences before each block; the last sample's zero count may
        # include padding past n, but it is at least the true total.  The
        # block holding the j-th is the last whose count stays below j.
        before = samples.__getitem__ if bit else lambda b: b * step - samples[b]
        blk = bisect_left(range(len(samples)), j, key=before) - 1
        remaining = j - before(blk)
        words = self._words
        t = blk * self._step_words
        while True:
            # Zeros past n in the last word come after every real one.
            word = words[t] if bit else ~words[t] & _FULL
            cnt = word.bit_count()
            if remaining <= cnt:
                for _ in range(remaining - 1):
                    word &= word - 1
                return (t << 6) + (word & -word).bit_length()
            remaining -= cnt
            t += 1


def _as_bit_array(bits):
    if isinstance(bits, np.ndarray):
        return bits.astype(np.uint8)
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        if arr.size and arr.max() > 1:
            raise ValueError("bit string may only contain '0' and '1'")
        return arr
    return np.array([1 if b else 0 for b in bits], dtype=np.uint8)
