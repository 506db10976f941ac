"""Mutation semantics of :class:`ShardedANNIndex`.

The sharded contract composes the single-index one: inserts route to the
shard with the fewest live rows (ties → smallest shard index), deletes
map global ids to per-shard tombstones/memtable kills, each shard keeps
its own generation counter, and the merged answer is still the
true-distance minimum over the (mutation-aware) per-shard answers.  The
rebuild-equivalence invariant holds per shard: after compaction every
shard is bitwise-identical to a fresh build on its own survivors under
``RngTree(shard_seed).child("generation", g)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.core.mutable import generation_seed
from repro.hamming.distance import hamming_distance
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points
from repro.service.sharded import ShardedANNIndex

N, D, S = 24, 64, 3
SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=31)


@pytest.fixture()
def db():
    gen = np.random.default_rng(55)
    return PackedPoints(random_points(gen, N, D), D)


@pytest.fixture()
def sharded(db):
    # Auto-compaction off: these tests control compaction explicitly.
    return ShardedANNIndex.build(db, SPEC, shards=S, compact_threshold=float("inf"))


def points(count, seed=5):
    gen = np.random.default_rng(seed)
    return random_points(gen, count, D)


class TestRouting:
    def test_inserts_go_to_the_smallest_shard(self, sharded):
        # 24 rows over 3 shards -> 8 each; routing ties break to shard 0.
        sizes = [len(s) for s in sharded.shards]
        assert sizes == [8, 8, 8]
        sharded.insert(points(4))
        assert [len(s) for s in sharded.shards] == [10, 9, 9]

    def test_insert_rebalances_after_deletes(self, sharded):
        # Empty out shard 2 the most; the next inserts must flow there.
        offsets = sharded.offsets
        sharded.delete([offsets[2] + i for i in range(4)])
        sharded.insert(points(3))
        assert [len(s) for s in sharded.shards] == [8, 8, 7]

    def test_insert_returns_global_ids_in_input_order(self, sharded):
        rows = points(3)
        ids = sharded.insert(rows)
        assert len(ids) == 3
        for gid, row in zip(ids, rows):
            assert sharded.is_live(gid)
            result = sharded.query(row)
            assert result.distance_to(row) == 0

    def test_inserted_duplicate_wins_by_smallest_global_id(self, sharded):
        row = points(1, seed=9)
        ids = sharded.insert(np.vstack([row, row]))
        result = sharded.query(row[0])
        assert result.answer_index == min(ids)


class TestDelete:
    def test_deleted_rows_never_surface(self, sharded, db):
        q = points(1, seed=11)[0]
        victim = sharded.query(q).answer_index
        sharded.delete([victim])
        assert sharded.query(q).answer_index != victim
        assert not sharded.is_live(victim)
        assert len(sharded) == N - 1

    def test_delete_is_atomic_across_shards(self, sharded):
        with pytest.raises(ValueError, match="out of range"):
            sharded.delete([0, 10**6])
        assert len(sharded) == N
        sharded.delete([0])
        with pytest.raises(ValueError, match="already deleted"):
            sharded.delete([5, 0])
        assert sharded.is_live(5)
        with pytest.raises(ValueError, match="duplicate"):
            sharded.delete([7, 7])
        assert sharded.is_live(7)

    def test_non_integer_ids_rejected_not_truncated(self, sharded):
        with pytest.raises(ValueError, match="must be integers"):
            sharded.delete([2.7])
        assert sharded.is_live(2) and len(sharded) == N


class TestMergeRule:
    def test_merged_answer_is_true_distance_min_over_shards(self, sharded):
        sharded.insert(points(5))
        sharded.delete([1, 9])
        queries = points(6, seed=13)
        offsets = sharded.offsets
        merged = sharded.query_batch(queries)
        for qi in range(queries.shape[0]):
            best = None
            for si, shard in enumerate(sharded.shards):
                res = shard.query(queries[qi])
                if res.answer_packed is None:
                    continue
                cand = (
                    hamming_distance(queries[qi], res.answer_packed),
                    offsets[si] + res.answer_index,
                )
                if best is None or cand < best:
                    best = cand
            got = merged[qi]
            if best is None:
                assert got.answer_index is None
            else:
                assert (
                    hamming_distance(queries[qi], got.answer_packed),
                    got.answer_index,
                ) == best

    def test_query_batch_equals_query_loop_when_dirty(self, sharded):
        sharded.insert(points(4))
        sharded.delete([2])
        queries = points(5, seed=17)
        batch = sharded.query_batch(queries)
        for qi in range(queries.shape[0]):
            single = sharded.query(queries[qi])
            assert batch[qi].answer_index == single.answer_index
            assert batch[qi].probes == single.probes
            assert batch[qi].rounds == single.rounds


class TestCompaction:
    def test_each_shard_matches_its_fresh_rebuild(self, sharded, db):
        sharded.insert(points(6))
        offsets = sharded.offsets
        sharded.delete([offsets[0], offsets[1] + 1])
        gens = sharded.compact()
        queries = points(4, seed=19)
        for shard, g in zip(sharded.shards, gens):
            assert shard.generation == g
            fresh = ANNIndex.from_spec(
                shard.database,
                shard.spec.replace(seed=generation_seed(shard.spec.seed, g)),
            )
            for qi in range(queries.shape[0]):
                a = shard.query(queries[qi])
                b = fresh.query(queries[qi])
                assert a.answer_index == b.answer_index
                assert a.probes == b.probes
                assert a.probes_per_round == b.probes_per_round

    def test_offsets_track_id_spaces_through_mutations(self, sharded):
        assert sharded.offsets == [0, 8, 16]
        sharded.insert(points(2))
        assert sharded.offsets == [0, 9, 18]  # shards 0 and 1 grew
        sharded.delete([0])
        sharded.compact()
        # Compaction collapses id spaces to live counts: 8 + 9 + 8.
        assert sharded.offsets == [0, 8, 17]
        assert len(sharded) == N + 2 - 1

    def test_mutated_sharded_snapshot_round_trips(self, sharded, tmp_path):
        sharded.insert(points(4))
        sharded.delete([3, 12])
        queries = points(4, seed=23)
        before = sharded.query_batch(queries)
        sharded.save(tmp_path / "snap")
        loaded = ShardedANNIndex.load(tmp_path / "snap")
        assert loaded.generations == sharded.generations
        assert len(loaded) == len(sharded)
        after = loaded.query_batch(queries)
        for a, b in zip(before, after):
            assert a.answer_index == b.answer_index
            assert a.probes == b.probes
            assert a.rounds == b.rounds


class TestShardedInterleavings:
    """Randomized interleavings against a per-shard shadow model: the
    sharded composition of the single-index property harness."""

    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_interleavings_keep_shards_and_merge_consistent(self, data):
        gen = np.random.default_rng(77)
        db = PackedPoints(random_points(gen, N, D), D)
        pool = random_points(gen, 24, D)
        sharded = ShardedANNIndex.build(
            db, SPEC, shards=2, compact_threshold=float("inf")
        )
        n_ops = data.draw(st.integers(2, 6), label="n_ops")
        for step in range(n_ops):
            live = [int(g) for g in range(sharded.id_space) if sharded.is_live(g)]
            choices = ["insert", "query"]
            if len(live) > 4:
                choices.append("delete")
            op = data.draw(st.sampled_from(choices), label=f"op{step}")
            if op == "insert":
                picks = data.draw(
                    st.lists(st.integers(0, 23), min_size=1, max_size=3),
                    label=f"rows{step}",
                )
                ids = sharded.insert(pool[picks])
                assert all(sharded.is_live(g) for g in ids)
            elif op == "delete":
                ids = data.draw(
                    st.lists(
                        st.sampled_from(live), min_size=1, max_size=2, unique=True
                    ),
                    label=f"ids{step}",
                )
                sharded.delete(ids)
                assert not any(sharded.is_live(g) for g in ids)
            else:
                qi = data.draw(st.integers(0, 23), label=f"q{step}")
                q = pool[qi]
                result = sharded.query(q)
                # The merge rule against the live per-shard answers.
                offsets = sharded.offsets
                best = None
                for si, shard in enumerate(sharded.shards):
                    res = shard.query(q)
                    if res.answer_packed is None:
                        continue
                    cand = (
                        hamming_distance(q, res.answer_packed),
                        offsets[si] + res.answer_index,
                    )
                    if best is None or cand < best:
                        best = cand
                if best is None:
                    assert result.answer_index is None
                else:
                    assert result.answer_index == best[1]
                    assert sharded.is_live(result.answer_index)
            assert len(sharded) == sum(len(s) for s in sharded.shards)
        # Compact every shard that can rebuild, then re-check a query.
        if all(len(s) >= 2 for s in sharded.shards):
            gens = sharded.compact()
            assert gens == sharded.generations
            for shard, g in zip(sharded.shards, gens):
                assert shard.mutation.dirty_count == 0
            result = sharded.query(pool[0])
            if result.answer_index is not None:
                assert sharded.is_live(result.answer_index)
