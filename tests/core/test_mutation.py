"""Unit semantics of the mutation layer (insert / delete / compact).

The property-based interleaving harness lives in
``tests/integration/test_mutation_properties.py``; these tests pin the
concrete contracts one at a time: id assignment, tombstone filtering,
memtable merge accounting, the amortized compaction trigger, and the
headline rebuild-equivalence invariant in its example form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.core.mutable import (
    DEFAULT_COMPACT_THRESHOLD,
    Memtable,
    MutationState,
    generation_seed,
)
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points
from repro.registry import build_scheme
from repro.utils.rng import RngTree

N, D = 24, 64
SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=9)


@pytest.fixture()
def db():
    gen = np.random.default_rng(42)
    return PackedPoints(random_points(gen, N, D), D)


@pytest.fixture()
def index(db):
    # Auto-compaction off: these tests control compaction explicitly.
    return ANNIndex.from_spec(db, SPEC, compact_threshold=float("inf"))


def fresh_points(count, seed=7):
    gen = np.random.default_rng(seed)
    return random_points(gen, count, D)


def assert_bitwise_equal(a, b):
    assert a.answer_index == b.answer_index
    assert a.probes == b.probes
    assert a.rounds == b.rounds
    assert a.probes_per_round == b.probes_per_round
    assert a.scheme == b.scheme
    if a.answer_packed is None:
        assert b.answer_packed is None
    else:
        assert np.array_equal(a.answer_packed, b.answer_packed)


class TestGenerationSeed:
    def test_generation_zero_is_the_root_seed(self):
        assert generation_seed(123, 0) == 123

    def test_later_generations_derive_the_rng_tree_child(self):
        for g in (1, 2, 5):
            expected = RngTree(123).child("generation", g).root_entropy
            assert generation_seed(123, g) == expected

    def test_distinct_across_generations(self):
        seeds = {generation_seed(123, g) for g in range(6)}
        assert len(seeds) == 6

    def test_requires_concrete_seed(self):
        with pytest.raises(ValueError, match="concrete root seed"):
            generation_seed(None, 1)


class TestInsert:
    def test_ids_are_appended_after_static_rows(self, index):
        ids = index.insert(fresh_points(3))
        assert ids == [N, N + 1, N + 2]
        assert len(index) == N + 3
        assert index.id_space == N + 3

    def test_inserted_point_is_exactly_searchable(self, index):
        point = fresh_points(1)
        [gid] = index.insert(point)
        result = index.query(point[0])
        assert result.answer_index == gid
        assert np.array_equal(result.answer_packed, point[0])
        assert result.meta["mutable"]["source"] == "memtable"

    def test_accepts_bits_packed_and_packedpoints(self, index):
        bits = np.zeros((1, D), dtype=np.uint8)
        packed = fresh_points(1)
        pts = PackedPoints(fresh_points(1, seed=8), D)
        ids = index.insert(bits) + index.insert(packed) + index.insert(pts)
        assert ids == [N, N + 1, N + 2]

    def test_dimension_mismatch_rejected(self, index):
        with pytest.raises(ValueError, match="bit rows"):
            index.insert(np.zeros((1, D + 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="packed rows"):
            index.insert(np.zeros((1, index.database.word_count + 1), dtype=np.uint64))

    @pytest.mark.parametrize(
        "d, call, rows",
        [
            pytest.param(D, "query", [0.9] * D, id="fractional-query"),
            pytest.param(D, "query_batch", np.full((2, D), 0.9), id="fractional-batch"),
            pytest.param(D, "insert", [[256] + [0] * (D - 1)], id="insert-bit-256"),
            pytest.param(100, "insert", "padded", id="packed-insert-padding-bit"),
            pytest.param(100, "query", "padded", id="packed-query-padding-bit"),
            pytest.param(D, "query", np.zeros((2, D), dtype=np.uint8), id="two-row-query"),
        ],
    )
    def test_rows_the_wire_refuses_are_refused(self, d, call, rows):
        """Values other than 0/1, set padding bits and a second row in a
        single query are refused, not cast: before, 0.9 and 256 were
        answered or inserted as 0, and a packed row with bit 127 set at
        d=100 was inserted (breaking every later compaction) or queried
        with a different probe count."""
        index = ANNIndex.from_spec(
            PackedPoints(random_points(np.random.default_rng(42), N, d), d),
            SPEC,
            compact_threshold=float("inf"),
        )
        if isinstance(rows, str):
            rows = np.zeros((1, index.database.word_count), dtype=np.uint64)
            rows[0, -1] = np.uint64(1) << np.uint64(63)
            rows = rows if call == "insert" else rows[0]
        with pytest.raises(ValueError, match="bits must be|padding bits|one row, got 2"):
            getattr(index, call)(rows)
        assert index.id_space == N

    def test_empty_insert_is_a_noop(self, index):
        assert index.insert(np.zeros((0, D), dtype=np.uint8)) == []
        assert len(index) == N

    def test_memtable_scan_charges_one_parallel_round(self, index, db):
        q = fresh_points(1, seed=11)[0]
        before = index.query(q)
        index.insert(fresh_points(2))
        after = index.query(q)
        # Two live memtable rows: +2 probes folded into round 1; round
        # count unchanged (the scan runs in parallel with round 1).
        assert after.probes == before.probes + 2
        assert after.rounds == before.rounds
        assert after.probes_per_round[0] == before.probes_per_round[0] + 2
        assert after.probes_per_round[1:] == before.probes_per_round[1:]


class TestDelete:
    def test_deleted_row_never_surfaces(self, index, db):
        q = fresh_points(1, seed=13)[0]
        victim = index.query(q).answer_index
        index.delete([victim])
        assert index.query(q).answer_index != victim
        assert not index.is_live(victim)
        assert len(index) == N - 1

    def test_querying_the_deleted_point_itself(self, index, db):
        # Query the deleted row's exact bits: the answer must be a
        # different (live) row or None, never the tombstoned id.
        victim = 5
        index.delete([victim])
        result = index.query(db.row(victim))
        assert result.answer_index != victim

    def test_delete_memtable_entry_kills_in_place(self, index):
        ids = index.insert(fresh_points(3))
        index.delete([ids[1]])
        assert not index.is_live(ids[1])
        assert index.is_live(ids[0]) and index.is_live(ids[2])
        # Later memtable ids never shift.
        assert index.id_space == N + 3

    def test_delete_is_atomic_on_bad_ids(self, index):
        with pytest.raises(ValueError, match="out of range"):
            index.delete([0, N + 99])
        assert index.is_live(0)
        index.delete([0])
        with pytest.raises(ValueError, match="already deleted"):
            index.delete([1, 0])
        assert index.is_live(1)
        with pytest.raises(ValueError, match="duplicate"):
            index.delete([2, 2])
        assert index.is_live(2)

    def test_empty_delete_is_a_noop(self, index):
        assert index.delete([]) == 0
        assert len(index) == N

    def test_non_integer_ids_rejected_not_truncated(self, index):
        # int64-casting [2.7] would silently tombstone row 2.
        with pytest.raises(ValueError, match="must be integers"):
            index.delete([2.7])
        with pytest.raises(ValueError, match="must be integers"):
            index.delete(np.array([1.0, 2.0]))
        assert index.is_live(2) and len(index) == N

    def test_tie_break_prefers_smallest_global_id(self, index, db):
        # Insert an exact duplicate of a static row; querying those bits
        # ties on distance 0, and the static (smaller) id must win.
        dup = db.row(3).copy()
        index.insert(dup[None, :])
        result = index.query(dup)
        if result.answer_index is not None and result.distance_to(dup) == 0:
            assert result.answer_index < N


class TestCompaction:
    def test_compact_is_bitwise_equal_to_fresh_build(self, index, db):
        queries = fresh_points(6, seed=17)
        extra = fresh_points(3, seed=18)
        index.insert(extra)
        index.delete([2, 7, N + 1])
        g = index.compact()
        assert g == 1
        survivor_rows = [db.row(i) for i in range(N) if i not in (2, 7)]
        survivor_rows += [extra[0], extra[2]]
        oracle = ANNIndex.from_spec(
            PackedPoints(np.vstack(survivor_rows), D),
            SPEC.replace(seed=generation_seed(SPEC.seed, g)),
        )
        for i in range(queries.shape[0]):
            assert_bitwise_equal(
                index.query(queries[i]), oracle.query(queries[i])
            )
        for a, b in zip(index.query_batch(queries), oracle.query_batch(queries)):
            assert_bitwise_equal(a, b)

    def test_compact_renumbers_ids(self, index):
        index.insert(fresh_points(2))
        index.delete([0, N])
        index.compact()
        assert list(index.live_ids()) == list(range(N))  # 24 - 1 + 1 live
        assert index.id_space == len(index)
        assert index.generation == 1

    def test_compact_on_clean_index_is_noop(self, index):
        scheme = index.scheme
        assert index.compact() == 0
        assert index.scheme is scheme

    def test_compact_empty_index_raises(self, db):
        index = ANNIndex.from_spec(
            db.take(range(2)),
            IndexSpec(scheme="linear-scan", seed=1),
            compact_threshold=float("inf"),
        )
        index.delete([0, 1])
        assert len(index) == 0
        assert index.query(db.row(0)).answer_index is None
        with pytest.raises(ValueError, match="no live rows"):
            index.compact()

    def test_hand_built_scheme_cannot_compact(self, db):
        scheme = build_scheme(db, SPEC)
        index = ANNIndex(db, scheme)  # no spec
        index.delete([0])
        with pytest.raises(RuntimeError, match="no spec"):
            index.compact()
        # ...but the tombstone still filters results.
        assert index.query(db.row(0)).answer_index != 0

    def test_auto_trigger_fires_at_threshold(self, db):
        index = ANNIndex.from_spec(db, SPEC, compact_threshold=0.25)
        # 6 dirty rows on 24 static: 6 > 0.25*24 is False at exactly 6,
        # true at 7.
        index.delete(list(range(6)))
        assert index.generation == 0
        index.delete([6])
        assert index.generation == 1
        assert index.mutation.dirty_count == 0
        assert len(index) == N - 7

    def test_auto_trigger_counts_memtable_entries(self, db):
        index = ANNIndex.from_spec(db, SPEC, compact_threshold=0.25)
        index.insert(fresh_points(6))
        assert index.generation == 0
        index.insert(fresh_points(1, seed=8))
        assert index.generation == 1
        assert len(index) == N + 7

    def test_auto_trigger_defers_below_two_live_rows(self):
        gen = np.random.default_rng(1)
        db = PackedPoints(random_points(gen, 2, D), D)
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme="linear-scan", seed=1), compact_threshold=0.25
        )
        index.delete([0])
        assert index.generation == 0  # live=1: buffered, not compacted
        index.insert(random_points(gen, 2, D))
        # Rows are back: the next mutation's trigger can fire.
        assert index.generation == 1

    def test_infinite_threshold_never_auto_compacts(self, index):
        index.delete(list(range(20)))
        index.insert(fresh_points(10))
        assert index.generation == 0
        assert index.mutation.dirty_count == 30


class TestBatchConsistency:
    def test_query_batch_equals_sequential_loop_when_dirty(self, index):
        index.insert(fresh_points(4))
        index.delete([1, 3, N + 2])
        queries = fresh_points(8, seed=21)
        sequential = [index.query(queries[i]) for i in range(8)]
        for batch in (index.query_batch(queries), index.query_batch(queries, prefetch=False)):
            for a, b in zip(batch, sequential):
                assert_bitwise_equal(a, b)
                assert a.meta["mutable"] == b.meta["mutable"]

    def test_last_batch_stats_reconcile_with_results(self, index):
        index.insert(fresh_points(3))
        index.delete([0])
        queries = fresh_points(5, seed=22)
        results = index.query_batch(queries)
        stats = index.last_batch_stats
        assert stats.total_probes == sum(r.probes for r in results)
        assert stats.total_rounds == sum(r.rounds for r in results)
        assert stats.batch_size == 5


class TestMemtableAndState:
    def test_memtable_live_entries_order(self):
        mem = Memtable(2)
        rows = [np.array([i, i], dtype=np.uint64) for i in range(4)]
        for row in rows:
            mem.append(row)
        mem.delete(1)
        positions, words = mem.live_entries()
        assert positions.tolist() == [0, 2, 3]
        assert words.shape == (3, 2)
        assert mem.live_count == 3 and len(mem) == 4

    def test_memtable_rejects_wrong_word_count(self):
        mem = Memtable(2)
        with pytest.raises(ValueError, match="words"):
            mem.append(np.array([1, 2, 3], dtype=np.uint64))

    def test_state_restore_round_trips(self):
        state = MutationState(4, 1)
        state.insert_rows(np.arange(3, dtype=np.uint64)[:, None])
        state.delete_ids([1, 5])
        payload = state.export_arrays()
        restored = MutationState(4, 1, generation=state.generation)
        restored.restore_arrays(
            payload["tombstones"], payload["memtable_words"], payload["memtable_deleted"]
        )
        assert restored.tombstone_count == 1
        assert restored.live_count == state.live_count
        assert restored.live_ids().tolist() == state.live_ids().tolist()

    def test_state_restore_validates_shapes(self):
        state = MutationState(4, 1)
        with pytest.raises(ValueError, match="tombstone"):
            state.restore_arrays(
                np.zeros(3, dtype=np.uint8),
                np.empty((0, 1), dtype=np.uint64),
                np.zeros(0, dtype=np.uint8),
            )
        with pytest.raises(ValueError, match="memtable words"):
            state.restore_arrays(
                np.zeros(4, dtype=np.uint8),
                np.empty((1, 2), dtype=np.uint64),
                np.zeros(1, dtype=np.uint8),
            )
        with pytest.raises(ValueError, match="deletion flags"):
            state.restore_arrays(
                np.zeros(4, dtype=np.uint8),
                np.empty((2, 1), dtype=np.uint64),
                np.zeros(1, dtype=np.uint8),
            )

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="compact_threshold"):
            MutationState(4, 1, compact_threshold=0.0)
        assert MutationState(4, 1).compact_threshold == DEFAULT_COMPACT_THRESHOLD
