"""mmap/heap equivalence: the out-of-core contract, per scheme family.

``load_mode="mmap"`` must be *invisible* to every consumer: for every
registered scheme (plain and boosted), for sharded indexes (with and
without a memory budget forcing evictions mid-serving), after
mutate→compact, after a save/load round-trip of an mmap'd index, and
through the async serving layer, the answers AND the probe/round
accounting must equal the heap load bit for bit.  The format rules ride
along: ``save`` writes the v3 payload tree, and a v1/v2 snapshot (the
committed fixtures) under mmap or lazy loading is a clear error naming
format v3.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.persistence import FORMAT_VERSION, IndexPersistenceError, load_any
from repro.registry import available_schemes
from repro.service import AsyncANNService, ShardedANNIndex

N, D = 96, 128
SHARDS = 3


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(20160613)
    db = PackedPoints(random_points(gen, N, D), D)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, N))), int(gen.integers(0, 12)), D
            )
            for _ in range(12)
        ]
        + [random_points(gen, 4, D)]
    )
    return db, queries


def assert_results_equal(reference, candidate):
    assert len(reference) == len(candidate)
    for r, c in zip(reference, candidate):
        assert r.answer_index == c.answer_index
        assert r.probes == c.probes
        assert r.rounds == c.rounds
        assert r.probes_per_round == c.probes_per_round
        assert r.scheme == c.scheme
        if r.answer_packed is None:
            assert c.answer_packed is None
        else:
            assert np.array_equal(r.answer_packed, c.answer_packed)


def assert_batch_stats_equal(a, b):
    assert a is not None and b is not None
    assert (a.batch_size, a.total_probes, a.total_rounds) == (
        b.batch_size,
        b.total_probes,
        b.total_rounds,
    )


SCHEME_CASES = [
    pytest.param(name, boost, id=f"{name}-boost{boost}")
    for name in available_schemes()
    for boost in (1, 2)
]


class TestEverySchemeFamily:
    @pytest.mark.parametrize("scheme,boost", SCHEME_CASES)
    def test_mmap_answers_bitwise_equal_to_heap(
        self, scheme, boost, workload, tmp_path, memo_cap
    ):
        db, queries = workload
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme=scheme, seed=31, boost=boost)
        ).prepare()
        index.save(tmp_path / "idx")
        heap = ANNIndex.load(tmp_path / "idx")
        mmap = ANNIndex.load(tmp_path / "idx", load_mode="mmap")
        assert heap.load_mode == "heap" and mmap.load_mode == "mmap"
        assert isinstance(mmap.database.words, np.memmap)
        assert_results_equal(index.query_batch(queries), heap.query_batch(queries))
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))
        assert_batch_stats_equal(heap.last_batch_stats, mmap.last_batch_stats)
        for qi in range(3):
            assert_results_equal(
                [heap.query(queries[qi])], [mmap.query(queries[qi])]
            )


@pytest.fixture(scope="module")
def sharded_snapshot(workload, tmp_path_factory):
    db, _ = workload
    index = ShardedANNIndex.build(
        db,
        IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=7),
        shards=SHARDS,
    )
    path = tmp_path_factory.mktemp("oocs") / "sharded-v3"
    index.save(path)
    return index, path


def _one_shard_nbytes(path):
    # Snapshot-derived size (all payloads), as the lazy loader accounts it —
    # the eager heap load only tracks the packed words.
    return ShardedANNIndex.load(path, load_mode="mmap")._handles[0].meta.nbytes


class TestSharded:
    def test_lazy_mmap_equals_eager_heap(self, workload, sharded_snapshot):
        _, queries = workload
        built, path = sharded_snapshot
        heap = ShardedANNIndex.load(path)
        mmap = ShardedANNIndex.load(path, load_mode="mmap")
        assert mmap.residency_stats().attached == 0  # truly lazy
        assert_results_equal(built.query_batch(queries), heap.query_batch(queries))
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))
        assert_batch_stats_equal(heap.last_batch_stats, mmap.last_batch_stats)
        assert mmap.residency_stats().attached == SHARDS

    def test_forced_evictions_do_not_change_answers(self, workload, sharded_snapshot):
        _, queries = workload
        _, path = sharded_snapshot
        heap = ShardedANNIndex.load(path)
        one_shard = _one_shard_nbytes(path)
        tight = ShardedANNIndex.load(
            path, load_mode="mmap", memory_budget=one_shard + 1
        )
        expected = heap.query_batch(queries)
        for _ in range(2):  # every sweep cycles shards through the budget
            assert_results_equal(expected, tight.query_batch(queries))
        stats = tight.residency_stats()
        assert stats.evictions > 0
        assert stats.misses > SHARDS  # reattach after eviction = more misses
        assert stats.resident_bytes <= tight.memory_budget

    def test_pinned_shard_stays_resident_through_the_sweep(
        self, workload, sharded_snapshot
    ):
        _, queries = workload
        _, path = sharded_snapshot
        heap = ShardedANNIndex.load(path)
        one_shard = _one_shard_nbytes(path)
        pinned = ShardedANNIndex.load(
            path, load_mode="mmap", memory_budget=one_shard + 1, pin=(0,)
        )
        assert_results_equal(heap.query_batch(queries), pinned.query_batch(queries))
        per_shard = pinned.residency_stats().per_shard
        assert per_shard[0]["attached"] and per_shard[0]["pinned"]


class TestMutation:
    def test_mutate_then_compact_stays_bitwise_equal(self, workload, tmp_path):
        db, queries = workload
        gen = np.random.default_rng(5)
        fresh = random_points(gen, 8, D)
        index = ShardedANNIndex.build(
            db,
            IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=13),
            shards=SHARDS,
        )
        index.save(tmp_path / "mut")
        heap = ShardedANNIndex.load(tmp_path / "mut")
        mmap = ShardedANNIndex.load(tmp_path / "mut", load_mode="mmap")
        # Apply the identical mutation schedule to both loads.
        assert heap.insert(fresh) == mmap.insert(fresh)
        assert heap.delete([0, 5, 40]) == mmap.delete([0, 5, 40])
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))
        assert heap.compact() == mmap.compact()
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))
        # Writes promoted the touched mmap shards to heap copies.
        assert mmap.residency_stats().promotions >= 1

    def test_single_index_mutates_identically_under_mmap(self, workload, tmp_path):
        db, queries = workload
        gen = np.random.default_rng(6)
        fresh = random_points(gen, 6, D)
        ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=19)
        ).save(tmp_path / "single")
        heap = ANNIndex.load(tmp_path / "single")
        mmap = ANNIndex.load(tmp_path / "single", load_mode="mmap")
        for idx in (heap, mmap):
            idx.insert(fresh)
            idx.delete([1, 2])
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))
        assert heap.compact() == mmap.compact()
        assert_results_equal(heap.query_batch(queries), mmap.query_batch(queries))


class TestRoundTripOfMmapIndex:
    def test_mmap_loaded_index_resaves_and_reloads(self, workload, tmp_path):
        db, queries = workload
        ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=29)
        ).prepare().save(tmp_path / "orig")
        mmap = ANNIndex.load(tmp_path / "orig", load_mode="mmap")
        expected = mmap.query_batch(queries)
        mmap.save(tmp_path / "resaved")
        reloaded = ANNIndex.load(tmp_path / "resaved")
        assert_results_equal(expected, reloaded.query_batch(queries))
        manifest = json.loads((tmp_path / "resaved" / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION

    def test_mmap_index_resaves_over_its_own_snapshot(self, workload, tmp_path):
        db, queries = workload
        ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=37)
        ).save(tmp_path / "self")
        mmap = ANNIndex.load(tmp_path / "self", load_mode="mmap")
        expected = mmap.query_batch(queries)
        mmap.save(tmp_path / "self")
        reloaded = ANNIndex.load(tmp_path / "self", load_mode="mmap")
        assert_results_equal(expected, reloaded.query_batch(queries))


    def test_budgeted_sharded_index_resaves_and_reloads(
        self, workload, sharded_snapshot, tmp_path
    ):
        """Saving attaches every shard in turn, so under a one-shard
        budget the save itself evicts; the snapshot still answers like
        the source."""
        _, queries = workload
        _, path = sharded_snapshot
        expected = ShardedANNIndex.load(path).query_batch(queries)
        tight = ShardedANNIndex.load(
            path, load_mode="mmap", memory_budget=_one_shard_nbytes(path) + 1
        )
        tight.save(tmp_path / "resaved")
        assert tight.residency_stats().evictions > 0
        for load_mode in ("heap", "mmap"):
            resaved = ShardedANNIndex.load(tmp_path / "resaved", load_mode=load_mode)
            assert_results_equal(expected, resaved.query_batch(queries))
        assert_results_equal(expected, tight.query_batch(queries))


class TestServingLayer:
    def test_served_answers_equal_heap_serving(self, workload, sharded_snapshot):
        _, queries = workload
        _, path = sharded_snapshot
        heap = ShardedANNIndex.load(path)
        one_shard = _one_shard_nbytes(path)
        mmap = ShardedANNIndex.load(
            path, load_mode="mmap", memory_budget=one_shard + 1
        )

        async def serve_all(index):
            async with AsyncANNService(
                index, max_batch=8, max_wait_ms=0.5
            ) as service:
                return await asyncio.gather(*(service.query(q) for q in queries))

        heap_results = asyncio.run(serve_all(heap))
        mmap_results = asyncio.run(serve_all(mmap))
        assert_results_equal(heap_results, mmap_results)
        assert mmap.residency_stats().evictions > 0


class TestFormatRules:
    def test_v3_save_writes_payload_tree_not_npz(self, workload, tmp_path):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3)).save(
            tmp_path / "idx"
        )
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 3
        assert (tmp_path / "idx" / "database" / "words.npy").is_file()
        assert not (tmp_path / "idx" / "database.npz").exists()
        # The payload index covers every file with exact byte sizes.
        words = np.load(tmp_path / "idx" / "database" / "words.npy")
        assert manifest["payloads"]["database/words.npy"]["nbytes"] == words.nbytes

    def test_v2_snapshot_with_mmap_raises_clear_error(self, legacy_snapshot):
        for name in ("v1-single", "v2-single"):
            with pytest.raises(IndexPersistenceError, match="format v3"):
                ANNIndex.load(legacy_snapshot(name), load_mode="mmap")

    def test_v2_sharded_snapshot_rejects_lazy_loading(self, legacy_snapshot):
        for name in ("v1-sharded", "v2-sharded"):
            path = legacy_snapshot(name)
            with pytest.raises(IndexPersistenceError, match="format\\s+v3"):
                ShardedANNIndex.load(path, load_mode="mmap")
            with pytest.raises(IndexPersistenceError, match="format\\s+v3"):
                ShardedANNIndex.load(path, memory_budget=10**6)

    def test_memory_budget_on_single_index_snapshot_is_an_error(
        self, workload, tmp_path
    ):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3)).save(
            tmp_path / "one"
        )
        with pytest.raises(IndexPersistenceError, match="sharded"):
            load_any(tmp_path / "one", memory_budget=10**6)

    def test_unknown_load_mode_is_an_error(self, workload, tmp_path):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3)).save(
            tmp_path / "one"
        )
        with pytest.raises(IndexPersistenceError, match="load_mode"):
            ANNIndex.load(tmp_path / "one", load_mode="lazy")

    def test_tampered_v3_payload_fails_loudly(self, workload, tmp_path):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3)).save(
            tmp_path / "t"
        )
        words_path = tmp_path / "t" / "database" / "words.npy"
        words = np.load(words_path)
        np.save(words_path, words[:-1])  # truncate a row
        with pytest.raises(IndexPersistenceError, match="manifest records"):
            ANNIndex.load(tmp_path / "t", load_mode="mmap")
