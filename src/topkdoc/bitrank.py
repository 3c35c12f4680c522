"""Plain bit vector with sampled rank and binary-searched select.

Bits are packed into 64-bit words.  A rank directory stores the running
popcount every `sample_step` bits, so rank costs one directory lookup plus
at most `sample_step / 64` word popcounts.  select binary-searches the
directory and then scans within one sample block.
"""

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
        packed = np.packbits(arr, bitorder="little")
        pad = (-len(packed)) % 8
        if pad:
            packed = np.concatenate([packed, np.zeros(pad, np.uint8)])
        words = np.frombuffer(packed.tobytes(), dtype="<u8").tolist()
        self._init_from_words(words, n, sample_step)

    @classmethod
    def from_words(cls, words, n, sample_step=64):
        """Rebuild from packed 64-bit words (e.g. after deserialization)."""
        self = cls.__new__(cls)
        words = [int(w) & _FULL for w in words]
        need = (n + _WORD - 1) // _WORD
        if len(words) != need:
            raise OutOfRangeError(f"expected {need} words for {n} bits, got {len(words)}")
        if n % _WORD and words:
            words[-1] &= (1 << (n % _WORD)) - 1  # mask stray tail bits
        self._init_from_words(words, n, sample_step)
        return self

    def _init_from_words(self, words, n, sample_step):
        if sample_step < 1:
            raise ValueError("sample_step must be positive")
        # Align the directory to whole words; 64 is the finest granularity.
        step_words = max(1, int(sample_step) // _WORD)
        step = step_words * _WORD
        self._n = n
        self._words = words
        self._step = step
        self._step_words = step_words
        nblocks = (n + step - 1) // step
        samples = [0] * (nblocks + 1)
        acc = 0
        for blk in range(nblocks):
            for w in words[blk * step_words:(blk + 1) * step_words]:
                acc += w.bit_count()
            samples[blk + 1] = acc
        self._samples = samples
        self._ones = acc

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
        if i == 0:
            return 0
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
        n = self._n
        total = self._ones if bit else n - self._ones
        if j < 1 or j > total:
            raise NotEnoughOccurrencesError(f"occurrence {j} of bit {bit} (have {total})")
        samples = self._samples
        step = self._step
        # Largest block whose preceding count stays below j.
        lo, hi = 0, len(samples) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            before = samples[mid] if bit else min(mid * step, n) - samples[mid]
            if before < j:
                lo = mid
            else:
                hi = mid - 1
        blk = lo
        remaining = j - (samples[blk] if bit else min(blk * step, n) - samples[blk])
        words = self._words
        t = blk * self._step_words
        while True:
            word = words[t]
            valid = min(_WORD, n - (t << 6))
            if bit:
                cnt = word.bit_count()
            else:
                cnt = valid - word.bit_count()
                word = ~word & ((1 << valid) - 1)
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
