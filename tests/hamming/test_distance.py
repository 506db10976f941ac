"""Metric correctness of the vectorized Hamming distances."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hamming import distance as distance_mod
from repro.hamming.distance import (
    cross_distances,
    hamming_distance,
    hamming_distance_many,
    nearest_within,
    pairwise_distances,
    popcount_rows,
)
from repro.hamming.kernels import available_kernels, use_kernel
from repro.hamming.packing import pack_bits


def _random_bits(seed, m, d):
    return np.random.default_rng(seed).integers(0, 2, size=(m, d)).astype(np.uint8)


class TestHammingDistance:
    def test_identical(self):
        x = pack_bits(np.ones(100, dtype=np.uint8))
        assert hamming_distance(x, x) == 0

    def test_complement(self):
        d = 100
        zero = pack_bits(np.zeros(d, dtype=np.uint8))
        one = pack_bits(np.ones(d, dtype=np.uint8))
        assert hamming_distance(zero, one) == d

    def test_matches_bit_count(self):
        bits = _random_bits(0, 2, 257)
        expected = int((bits[0] != bits[1]).sum())
        assert hamming_distance(pack_bits(bits[0]), pack_bits(bits[1])) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32))
    def test_symmetry_and_triangle(self, d, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(3, d)).astype(np.uint8)
        x, y, z = (pack_bits(b) for b in bits)
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


class TestOneVsMany:
    def test_matches_scalar(self):
        bits = _random_bits(1, 20, 300)
        packed = pack_bits(bits)
        dists = hamming_distance_many(packed[0], packed)
        for i in range(20):
            assert dists[i] == hamming_distance(packed[0], packed[i])

    def test_chunking_consistency(self, monkeypatch):
        import repro.hamming.distance as mod

        bits = _random_bits(2, 50, 128)
        packed = pack_bits(bits)
        full = hamming_distance_many(packed[0], packed)
        monkeypatch.setattr(mod, "_CHUNK_WORD_BUDGET", 4)
        chunked = hamming_distance_many(packed[0], packed)
        assert (full == chunked).all()

    def test_word_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance_many(np.zeros(2, dtype=np.uint64), np.zeros((3, 3), dtype=np.uint64))

    def test_single_row_batch(self):
        bits = _random_bits(3, 1, 64)
        packed = pack_bits(bits)
        assert hamming_distance_many(packed[0], packed).tolist() == [0]


class TestPairwise:
    def test_diagonal_zero(self):
        packed = pack_bits(_random_bits(4, 6, 90))
        dmat = pairwise_distances(packed)
        assert (np.diag(dmat) == 0).all()

    def test_symmetric(self):
        packed = pack_bits(_random_bits(5, 6, 90))
        dmat = pairwise_distances(packed)
        assert (dmat == dmat.T).all()

    def test_two_batches(self):
        a = pack_bits(_random_bits(6, 3, 70))
        b = pack_bits(_random_bits(7, 4, 70))
        dmat = pairwise_distances(a, b)
        assert dmat.shape == (3, 4)
        assert dmat[1, 2] == hamming_distance(a[1], b[2])


class TestPopcount:
    def test_known(self):
        arr = np.array([[1, 3], [0, 0]], dtype=np.uint64)
        assert popcount_rows(arr).tolist() == [3, 0]

    def test_single_row(self):
        assert popcount_rows(np.array([7], dtype=np.uint64)).tolist() == [3]


class TestCrossDistances:
    """cross_distances is the many-vs-many kernel behind batch prefetching;
    it must agree exactly with per-row hamming_distance_many on both the
    small-word (accumulate) and wide-word (chunked 3-D) code paths."""

    @pytest.mark.parametrize("d", [70, 130, 1000])  # 2, 3, and 16 words
    def test_matches_per_row_kernel(self, d):
        from repro.hamming.distance import cross_distances

        a = pack_bits(_random_bits(1, 9, d))
        b = pack_bits(_random_bits(2, 23, d))
        got = cross_distances(a, b)
        assert got.shape == (9, 23)
        for i in range(9):
            assert got[i].tolist() == hamming_distance_many(a[i], b).tolist()

    def test_empty_sides(self):
        from repro.hamming.distance import cross_distances

        a = pack_bits(_random_bits(3, 4, 64))
        empty = np.empty((0, 1), dtype=np.uint64)
        assert cross_distances(empty, a).shape == (0, 4)
        assert cross_distances(a, empty).shape == (4, 0)

    def test_word_count_mismatch(self):
        from repro.hamming.distance import cross_distances

        with pytest.raises(ValueError, match="word-count"):
            cross_distances(
                np.zeros((2, 2), dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)
            )


# -- nearest_within ---------------------------------------------------------

ALL_ONES = 2**64 - 1
WIDTHS = [1, 2, 3, 4, 16]  # 64*w <= 255 (uint8 accumulator) for w <= 3
WORDS = st.one_of(st.just(0), st.just(ALL_ONES), st.integers(0, ALL_ONES))


def nearest_oracle(a, b, limit):
    """The first argmin of ``cross_distances`` per row, thresholded."""
    dists = cross_distances(a, b)
    ma = dists.shape[0]
    if dists.shape[1] == 0:
        return np.full(ma, -1), np.full(ma, -1)
    best = dists.argmin(axis=1)
    best_dists = dists[np.arange(ma), best]
    hit = best_dists <= limit
    return np.where(hit, best, -1), np.where(hit, best_dists, -1)


def assert_nearest_matches_oracle(a, b, limit):
    index, dist = nearest_within(a, b, limit)
    want_index, want_dist = nearest_oracle(a, b, limit)
    assert index.dtype == dist.dtype == np.int64
    assert index.tolist() == want_index.tolist()
    assert dist.tolist() == want_dist.tolist()


@st.composite
def nearest_cases(draw):
    w = draw(st.sampled_from(WIDTHS))
    pool = draw(st.lists(st.lists(WORDS, min_size=w, max_size=w), min_size=1, max_size=5))
    pool = np.array(pool, dtype=np.uint64)
    # Rows of b repeat pool rows, so ties between duplicates are common.
    b = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))]
    # Rows of a are pool rows with a few bits flipped: near some rows of b.
    a = []
    for _ in range(draw(st.integers(1, 8))):
        row = pool[draw(st.integers(0, len(pool) - 1))].copy()
        flips = st.tuples(st.integers(0, w - 1), st.integers(0, 63))
        for word, bit in draw(st.lists(flips, max_size=4)):
            row[word] ^= np.uint64(1 << bit)
        a.append(row)
    limit = draw(st.integers(-1, 64 * w))
    budget = draw(st.sampled_from([None, 1, 3, 16]))
    return np.array(a), b, limit, budget


@pytest.fixture(params=available_kernels())
def kernel(request):
    """The oracle goes through the seam: run the suite under every backend."""
    with use_kernel(request.param):
        yield request.param


class TestNearestWithin:
    @settings(
        max_examples=80,
        deadline=None,
        # The kernel fixture is constant for a test item.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(nearest_cases())
    def test_matches_thresholded_first_argmin(self, kernel, case):
        a, b, limit, budget = case
        budget = distance_mod._CHUNK_WORD_BUDGET if budget is None else budget
        with mock.patch.object(distance_mod, "_CHUNK_WORD_BUDGET", budget):
            assert_nearest_matches_oracle(a, b, limit)

    @pytest.mark.parametrize("budget", [1, 8, 40])
    def test_blocks_under_a_small_budget(self, kernel, monkeypatch, budget):
        # 9 rows of 16 words: one row of b (16 words), and b against one
        # row of a (9 words), already exceed budgets 1 and 8; budget 40
        # gives 4-row blocks, so 11 rows of a make two full and one
        # partial block.
        gen = np.random.default_rng(budget)
        b = gen.integers(0, ALL_ONES, size=(9, 16), dtype=np.uint64, endpoint=True)
        a = b[gen.integers(0, 9, size=11)].copy()
        a[::2, 3] ^= np.uint64(1 << 7)
        monkeypatch.setattr(distance_mod, "_CHUNK_WORD_BUDGET", budget)
        for limit in (-1, 0, 1, 400, 64 * 16):
            assert_nearest_matches_oracle(a, b, limit)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_ties_break_to_the_lowest_index(self, kernel, w):
        row = np.arange(1, w + 1, dtype=np.uint64)
        far = np.full(w, ALL_ONES, dtype=np.uint64)
        b = np.stack([far, row, far, row, row])
        probe = row.copy()
        probe[0] ^= np.uint64(1)
        index, dist = nearest_within(np.stack([row, probe]), b, 64 * w)
        assert index.tolist() == [1, 1]
        assert dist.tolist() == [0, 1]
        assert_nearest_matches_oracle(np.stack([row, probe, far]), b, 1)

    def test_two_word_ties_at_the_first_and_last_rows(self, kernel):
        # Two words is the 104-bit accurate sketch, which cbits searches
        # with the query held in registers: pin that loop's first-minimum
        # rule and its bounds at both ends of b.
        gen = np.random.default_rng(2)
        b = gen.integers(0, ALL_ONES, size=(9, 2), dtype=np.uint64, endpoint=True)
        b[-1] = b[0]
        flipped = b[0].copy()
        flipped[1] ^= np.uint64(1 << 63)
        a = np.stack([b[0], flipped, b[-2]])
        index, dist = nearest_within(a, b, 1)
        assert index.tolist() == [0, 0, 7]
        assert dist.tolist() == [0, 1, 0]
        b[0] = ~b[0]  # now the last row alone is nearest
        index, dist = nearest_within(a, b, 1)
        assert index.tolist() == [8, 8, 7]
        assert dist.tolist() == [0, 1, 0]
        for limit in (-1, 0, 1, 128):
            assert_nearest_matches_oracle(a, b, limit)

    @pytest.mark.parametrize("w", WIDTHS)
    def test_all_zero_and_all_ones_words(self, kernel, w):
        zeros = np.zeros((1, w), dtype=np.uint64)
        ones = np.full((1, w), ALL_ONES, dtype=np.uint64)
        index, dist = nearest_within(np.vstack([zeros, ones]), ones, 64 * w)
        assert index.tolist() == [0, 0]
        assert dist.tolist() == [64 * w, 0]
        for limit in (-1, 0, 64 * w - 1, 64 * w):
            assert_nearest_matches_oracle(np.vstack([zeros, ones]), np.vstack([ones, zeros]), limit)

    def test_non_contiguous_views(self, kernel):
        base = (np.arange(160, dtype=np.uint64) * np.uint64(0x2545F4914F6CDD1D)).reshape(16, 10)
        a = base[::2, ::2]
        b = base[1::2, ::2]
        assert not a.flags["C_CONTIGUOUS"] and not b.flags["C_CONTIGUOUS"]
        for limit in (-1, 100, 64 * 5):
            assert_nearest_matches_oracle(a, b, limit)
            assert_nearest_matches_oracle(a, a[::-1], limit)

    def test_empty_sides(self, kernel):
        rows = np.arange(6, dtype=np.uint64).reshape(3, 2)
        empty = np.empty((0, 2), dtype=np.uint64)
        index, dist = nearest_within(empty, rows, 128)
        assert index.shape == dist.shape == (0,)
        assert index.dtype == dist.dtype == np.int64
        index, dist = nearest_within(rows, empty, 128)
        assert index.tolist() == dist.tolist() == [-1, -1, -1]
        assert_nearest_matches_oracle(rows, empty, 128)

    def test_word_count_mismatch_raises_like_cross_distances(self, kernel):
        a = np.zeros((2, 2), dtype=np.uint64)
        b = np.zeros((2, 3), dtype=np.uint64)
        with pytest.raises(ValueError) as nearest_exc:
            nearest_within(a, b, 5)
        with pytest.raises(ValueError) as cross_exc:
            cross_distances(a, b)
        assert str(nearest_exc.value) == str(cross_exc.value)
