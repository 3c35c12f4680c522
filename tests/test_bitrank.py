import random

import numpy as np
import pytest

from topkdoc import errors
from topkdoc.bitrank import RankBitVector, ranks1
from topkdoc.errors import InvalidParameterError, NotEnoughOccurrencesError, OutOfRangeError


def brute_rank(bits: str, bit: int, i: int) -> int:
    want = str(bit)
    return sum(1 for b in bits[:i] if b == want)


def brute_select(bits: str, bit: int, j: int) -> int:
    want = str(bit)
    seen = 0
    for pos, b in enumerate(bits, start=1):
        if b == want:
            seen += 1
            if seen == j:
                return pos
    raise AssertionError("oracle ran out of occurrences")


def test_small_worked_values():
    v = RankBitVector("10110")
    assert len(v) == 5
    assert v.ones == 3
    assert [v.get(p) for p in range(1, 6)] == [1, 0, 1, 1, 0]
    assert [v.rank1(i) for i in range(6)] == [0, 1, 1, 2, 3, 3]
    assert [v.rank0(i) for i in range(6)] == [0, 0, 1, 1, 1, 2]
    assert [v.select(1, j) for j in (1, 2, 3)] == [1, 3, 4]
    assert [v.select(0, j) for j in (1, 2)] == [2, 5]


def test_rank_prefix_zero():
    v = RankBitVector("111")
    assert v.rank1(0) == 0
    assert v.rank0(0) == 0
    assert v.rank(1, 0) == 0


def test_bounds_checked():
    v = RankBitVector("1010")
    with pytest.raises(OutOfRangeError):
        v.rank1(5)
    with pytest.raises(OutOfRangeError):
        v.rank1(-1)
    assert v.rank1_pair(0, 4) == (0, 2)
    for i, j in ((-1, 2), (3, 2), (2, 5)):
        with pytest.raises(OutOfRangeError):
            v.rank1_pair(i, j)
    with pytest.raises(OutOfRangeError):
        v.get(0)
    with pytest.raises(NotEnoughOccurrencesError):
        v.select(1, 3)
    with pytest.raises(NotEnoughOccurrencesError):
        v.select(0, 0)


def test_empty_vector():
    v = RankBitVector("")
    assert len(v) == 0
    assert v.rank1(0) == 0
    with pytest.raises(NotEnoughOccurrencesError):
        v.select(1, 1)


def test_all_zeros_and_all_ones():
    z = RankBitVector("0" * 200)
    assert z.ones == 0
    assert z.select(0, 200) == 200
    o = RankBitVector("1" * 200)
    assert o.rank1(200) == 200
    assert o.select(1, 137) == 137


@pytest.mark.parametrize("sample_step", [1, 64, 100, 128, 512])
def test_random_vs_oracle(sample_step):
    rng = random.Random(7 + sample_step)
    for _ in range(12):
        n = rng.randint(1, 700)
        bits = "".join(rng.choice("01") for _ in range(n))
        v = RankBitVector(bits, sample_step=sample_step)
        assert v.ones == bits.count("1")
        for _ in range(40):
            i = rng.randint(0, n)
            assert v.rank1(i) == brute_rank(bits, 1, i)
            assert v.rank0(i) == brute_rank(bits, 0, i)
            j = rng.randint(i, n)
            assert v.rank1_pair(i, j) == (brute_rank(bits, 1, i), brute_rank(bits, 1, j))
        for bit in (0, 1):
            total = bits.count(str(bit))
            for _ in range(20):
                if not total:
                    break
                j = rng.randint(1, total)
                assert v.select(bit, j) == brute_select(bits, bit, j)


@pytest.mark.parametrize("sample_step", [1, 64, 100, 128, 512])
def test_select_every_occurrence_at_word_edges(sample_step):
    # Every j of both bits, on lengths around one and two words, on
    # all-zero and all-one vectors, and past the ends of the occurrences.
    rng = random.Random(31 + sample_step)
    cases = ["".join(rng.choice("01") for _ in range(n))
             for n in (1, 63, 64, 65, 127, 128, 129, 640)]
    cases += [fill * n for n in (1, 63, 64, 65, 640) for fill in "01"] + [""]
    for bits in cases:
        v = RankBitVector(bits, sample_step=sample_step)
        for bit in (0, 1):
            total = bits.count(str(bit))
            assert [v.select(bit, j) for j in range(1, total + 1)] == \
                [brute_select(bits, bit, j) for j in range(1, total + 1)]
            for j in (0, total + 1):
                with pytest.raises(NotEnoughOccurrencesError):
                    v.select(bit, j)


def test_bad_arguments_raise_package_errors():
    for bad in (lambda: RankBitVector("101", sample_step=0),
                lambda: RankBitVector("1021")):
        with pytest.raises(InvalidParameterError) as info:
            bad()
        assert isinstance(info.value, errors.Error) and isinstance(info.value, ValueError)


def test_select_rank_inverse():
    rng = random.Random(99)
    bits = "".join(rng.choice("01") for _ in range(500))
    v = RankBitVector(bits)
    for j in range(1, v.ones + 1):
        p = v.select(1, j)
        assert v.rank1(p) == j
        assert v.get(p) == 1
        assert v.rank1(p - 1) == j - 1


def test_from_words_roundtrip():
    rng = random.Random(17)
    bits = "".join(rng.choice("01") for _ in range(130))
    v = RankBitVector(bits, sample_step=128)
    w = RankBitVector.from_words(v.words, len(v))
    assert np.array_equal(w.words, v.words)
    assert w.ones == v.ones
    assert all(w.rank1(i) == v.rank1(i) for i in range(131))
    with pytest.raises(OutOfRangeError):
        RankBitVector.from_words([0], 130)


def test_from_words_masks_tail():
    # Stray bits beyond n must not leak into rank totals.
    v = RankBitVector.from_words([(1 << 64) - 1], 10)
    assert v.ones == 10
    assert v.rank1(10) == 10


def test_from_words_takes_a_read_only_u64_array():
    # The container reader passes np.frombuffer's read-only words as they
    # were stored, stray bits past n included.
    rng = random.Random(19)
    bits = "".join(rng.choice("01") for _ in range(200))
    v = RankBitVector(bits, sample_step=128)
    words = v.words.copy()
    words[-1] |= np.uint64(((1 << 64) - 1) ^ ((1 << 8) - 1))   # 200 = 3 * 64 + 8
    stored = np.frombuffer(words.tobytes(), dtype="<u8")
    w = RankBitVector.from_words(stored, len(v))
    assert np.array_equal(w.words, v.words)
    assert w.ones == v.ones == bits.count("1")
    assert all(w.rank1(i) == brute_rank(bits, 1, i) for i in range(201))
    assert np.array_equal(stored, words)                # the input is left as it was


def test_words_are_read_only():
    # The rank directory counts the words once, so a write through the words
    # property would leave rank1 and get disagreeing.
    for v in (RankBitVector("1" * 70), RankBitVector.from_words([(1 << 64) - 1] * 2, 70)):
        with pytest.raises(ValueError):
            v.words[0] = 0
        assert v.rank1(70) == 70 == sum(v.get(p) for p in range(1, 71))


def test_step_below_word_is_word_aligned():
    v = RankBitVector("1" * 70, sample_step=1)
    assert v.sample_step == 64
    assert v.rank1(70) == 70


def test_ranks1_matches_rank1_at_every_position():
    # The vectorised rank the loader checks nodes with, at every prefix
    # length of vectors ending inside a word and on a word boundary, with
    # stray bits past the end that it must not count.
    rng = random.Random(97)
    for n in (1, 63, 64, 65, 128, 300):
        bits = "".join(rng.choice("01") for _ in range(n))
        v = RankBitVector(bits)
        words = np.array(v.words, dtype="<u8")
        if n % 64:
            words[-1] |= np.uint64(1) << np.uint64(63)
        positions = np.arange(n + 1)
        assert ranks1(words, positions).tolist() == [brute_rank(bits, 1, i) for i in range(n + 1)]
