"""PackedPoints container behaviour."""

import numpy as np
import pytest

from repro.hamming.packing import PackedArrayError, pack_bits, random_packed
from repro.hamming.points import PackedPoints, coerce_rows


@pytest.fixture
def pts():
    bits = np.random.default_rng(0).integers(0, 2, size=(10, 100)).astype(np.uint8)
    return PackedPoints.from_bits(bits), bits


class TestConstruction:
    def test_from_bits_roundtrip(self, pts):
        packed, bits = pts
        assert (packed.to_bits() == bits).all()

    def test_len_and_d(self, pts):
        packed, _ = pts
        assert len(packed) == 10
        assert packed.d == 100
        assert packed.word_count == 2

    def test_from_packed_rows(self, pts):
        packed, _ = pts
        rebuilt = PackedPoints.from_packed_rows([packed.row(i) for i in range(3)], 100)
        assert len(rebuilt) == 3
        assert (rebuilt.row(1) == packed.row(1)).all()

    def test_rejects_1d_bits(self):
        with pytest.raises(ValueError):
            PackedPoints.from_bits(np.zeros(10, dtype=np.uint8))

    def test_rejects_wrong_words(self):
        with pytest.raises(PackedArrayError):
            PackedPoints(np.zeros((3, 5), dtype=np.uint64), d=100)

    def test_words_readonly(self, pts):
        packed, _ = pts
        with pytest.raises(ValueError):
            packed.words[0, 0] = 1


class TestAccess:
    def test_iteration(self, pts):
        packed, _ = pts
        rows = list(packed)
        assert len(rows) == 10
        assert (rows[3] == packed.row(3)).all()

    def test_take_preserves_order(self, pts):
        packed, _ = pts
        sub = packed.take([4, 1])
        assert (sub.row(0) == packed.row(4)).all()
        assert (sub.row(1) == packed.row(1)).all()

    def test_distances_from_self_row(self, pts):
        packed, _ = pts
        dists = packed.distances_from(packed.row(2))
        assert dists[2] == 0
        assert (dists >= 0).all()

    def test_distances_match_bits(self, pts):
        packed, bits = pts
        dists = packed.distances_from(packed.row(0))
        expected = (bits != bits[0]).sum(axis=1)
        assert (dists == expected).all()


class TestLarge:
    def test_random_large_dims(self):
        words = random_packed(np.random.default_rng(1), 4, 1000)
        p = PackedPoints(words, 1000)
        assert p.word_count == 16
        assert p.distances_from(p.row(0))[0] == 0


class TestCoerceRows:
    """The one input shaper every query/insert entry point calls."""

    def test_every_form_gives_the_same_rows(self, pts):
        packed, bits = pts
        for form in (packed, packed.words, bits, bits.tolist(), bits.astype(bool)):
            rows = coerce_rows(form, 100)
            assert rows.dtype == np.uint64 and rows.shape == (10, 2)
            assert np.array_equal(rows, packed.words)

    def test_one_row_is_promoted(self, pts):
        packed, bits = pts
        assert np.array_equal(coerce_rows(bits[3], 100), packed.words[3:4])
        assert np.array_equal(coerce_rows(packed.row(3), 100), packed.words[3:4])

    @pytest.mark.parametrize(
        "empty", [[], np.empty((0, 100), np.uint8), np.empty((0, 2), np.uint64)]
    )
    def test_no_rows_give_zero_packed_rows(self, empty):
        assert coerce_rows(empty, 100).shape == (0, 2)

    @pytest.mark.parametrize(
        "points, message",
        [
            pytest.param(np.zeros((1, 101), np.uint8), "bit rows", id="bit-width"),
            pytest.param(np.zeros((1, 3), np.uint64), "packed rows", id="word-width"),
            pytest.param([[0.9] * 100], "integers 0 or 1", id="fractional"),
            pytest.param([[2] + [0] * 99], "bits must be 0 or 1", id="two"),
            # Only an ndarray is read as packed words: a list of large
            # integers (all a JSON row can carry) is bits, so refused.
            pytest.param([2**63, 2**63], "bit rows", id="list-of-words"),
            pytest.param([[2**63] * 100], "bits must be 0 or 1", id="list-of-large-ints"),
        ],
    )
    def test_refusals(self, points, message):
        with pytest.raises(PackedArrayError, match=message):
            coerce_rows(points, 100)

    def test_refuses_padding_bits(self):
        row = pack_bits(np.ones(100, np.uint8))
        row[-1] |= np.uint64(1) << np.uint64(63)
        with pytest.raises(PackedArrayError, match="padding bits"):
            coerce_rows(row, 100)

    def test_refuses_points_of_another_dimension(self, pts):
        packed, _ = pts
        with pytest.raises(PackedArrayError, match="d=100, index has d=64"):
            coerce_rows(packed, 64)
