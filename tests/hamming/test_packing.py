"""Unit + property tests for bit packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamming.packing import (
    PackedArrayError,
    pack_bits,
    packed_words,
    random_packed,
    tail_mask,
    unpack_bits,
    validate_packed,
)


class TestPackedWords:
    def test_exact_multiple(self):
        assert packed_words(128) == 2

    def test_round_up(self):
        assert packed_words(65) == 2

    def test_one_bit(self):
        assert packed_words(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(PackedArrayError):
            packed_words(0)


class TestTailMask:
    def test_full_word(self):
        assert tail_mask(64) == (1 << 64) - 1

    def test_partial(self):
        assert tail_mask(3) == 0b111

    def test_65(self):
        assert tail_mask(65) == 1


class TestPackUnpack:
    def test_known_value(self):
        packed = pack_bits(np.array([1, 0, 1], dtype=np.uint8))
        assert packed.tolist() == [5]

    def test_single_point_shape(self):
        packed = pack_bits(np.ones(70, dtype=np.uint8))
        assert packed.shape == (2,)

    def test_batch_shape(self):
        packed = pack_bits(np.zeros((5, 130), dtype=np.uint8))
        assert packed.shape == (5, 3)

    def test_padding_zeroed(self):
        packed = pack_bits(np.ones(70, dtype=np.uint8))
        assert packed[1] == (1 << 6) - 1  # only 6 valid bits in word 2

    def test_rejects_non_binary(self):
        with pytest.raises(PackedArrayError):
            pack_bits(np.array([0, 2, 1], dtype=np.uint8))

    @pytest.mark.parametrize(
        "bits, message",
        [
            pytest.param([256, 1, 0], "bits must be 0 or 1, got 256", id="256"),
            pytest.param([0, 1, -1], "bits must be 0 or 1, got -1", id="negative"),
            pytest.param([0.9, 1.0, 0.2], "integers 0 or 1", id="fractional"),
            pytest.param(["1", "0", "1"], "integers 0 or 1", id="strings"),
            pytest.param(
                np.array([0, 1, 200], dtype=np.uint8),
                "bits must be 0 or 1, got 200",
                id="uint8-200",
            ),
            pytest.param(
                np.array([1, 0, 1], dtype="m8[s]"), "integers 0 or 1", id="timedelta"
            ),
        ],
    )
    def test_rejects_values_before_any_cast(self, bits, message):
        # A cast first turned 256 and 0.9 into 0: both packed to [2].
        with pytest.raises(PackedArrayError, match=message):
            pack_bits(bits)

    def test_accepts_booleans_and_any_integer_dtype(self):
        for bits in ([True, False, True], np.array([1, 0, 1], dtype=np.int64)):
            assert pack_bits(bits).tolist() == [5]

    def test_rejects_wrong_d(self):
        with pytest.raises(PackedArrayError):
            pack_bits(np.zeros(10, dtype=np.uint8), d=12)

    def test_rejects_empty(self):
        with pytest.raises(PackedArrayError):
            pack_bits(np.zeros((3, 0), dtype=np.uint8))

    def test_rejects_3d(self):
        with pytest.raises(PackedArrayError):
            pack_bits(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_unpack_wrong_words(self):
        with pytest.raises(PackedArrayError):
            unpack_bits(np.zeros(3, dtype=np.uint64), d=64)

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, d, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(3, d)).astype(np.uint8)
        assert (unpack_bits(pack_bits(bits), d) == bits).all()

    @given(st.integers(min_value=1, max_value=200))
    def test_roundtrip_single(self, d):
        rng = np.random.default_rng(d)
        bits = rng.integers(0, 2, size=d).astype(np.uint8)
        assert (unpack_bits(pack_bits(bits), d) == bits).all()


class TestRandomPacked:
    def test_shape(self):
        out = random_packed(np.random.default_rng(0), 7, 100)
        assert out.shape == (7, 2)

    def test_padding_respected(self):
        out = random_packed(np.random.default_rng(0), 50, 70)
        assert (out[:, -1] <= tail_mask(70)).all()

    def test_validate_accepts(self):
        out = random_packed(np.random.default_rng(0), 5, 70)
        validate_packed(out, 70)

    def test_validate_rejects_dirty_padding(self):
        out = random_packed(np.random.default_rng(0), 5, 70).copy()
        out[0, -1] = np.uint64(1) << np.uint64(63)
        with pytest.raises(PackedArrayError):
            validate_packed(out, 70)

    def test_validate_accepts_any_last_word_when_d_fills_it(self):
        # d = 128 leaves no padding bits, so there is nothing to refuse.
        full = np.full((3, 2), np.iinfo(np.uint64).max, dtype=np.uint64)
        assert validate_packed(full, 128) is full

    def test_validate_rejects_wrong_dtype(self):
        with pytest.raises(PackedArrayError):
            validate_packed(np.zeros((2, 2), dtype=np.int64), 128)
