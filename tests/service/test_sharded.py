"""ShardedANNIndex: partitioning, building, distance merging.

The acceptance bar: with S ∈ {1, 4}, the sharded index returns exactly
the answer set a single unsharded index produces under the
distance-merge rule — per query, the minimum-true-Hamming-distance
answer across shards, ties to the smallest global row id.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.distance import hamming_distance
from repro.hamming.kernels import (
    KNOWN_KERNELS,
    available_kernels,
    unavailable_kernels,
    use_kernel,
)
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.persistence import load_any
from repro.service.sharded import ShardedANNIndex, shard_bounds, shard_seed


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(7)
    n, d = 128, 128
    db = PackedPoints(random_points(gen, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, n))), int(gen.integers(0, 10)), d
            )
            for _ in range(12)
        ]
        + [random_points(gen, 4, d)]
    )
    return db, queries


SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=11)


def merge_oracle(db, spec, shards, queries):
    """The distance-merge rule applied to independently built shard
    indexes: per query the min-true-distance answer, ties to the
    smallest global row id."""
    bounds = shard_bounds(len(db), shards)
    singles = [
        ANNIndex.from_spec(
            db.take(range(start, stop)),
            spec.replace(seed=shard_seed(spec.seed, i)),
        )
        for i, (start, stop) in enumerate(bounds)
    ]
    merged = []
    for qi in range(queries.shape[0]):
        best = None
        for si, index in enumerate(singles):
            res = index.query_packed(queries[qi])
            if res.answer_packed is None:
                continue
            cand = (
                hamming_distance(queries[qi], res.answer_packed),
                bounds[si][0] + res.answer_index,
            )
            if best is None or cand < best:
                best = cand
        merged.append(best)
    return merged


class TestPartitioning:
    def test_bounds_cover_all_rows_once(self):
        for n, shards in ((10, 3), (128, 4), (7, 7), (100, 1)):
            bounds = shard_bounds(n, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1

    def test_bounds_reject_bad_splits(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
        with pytest.raises(ValueError):
            shard_bounds(3, 4)

    def test_shard_seeds_deterministic_and_independent(self):
        assert shard_seed(5, 0) == shard_seed(5, 0)
        assert shard_seed(5, 0) != shard_seed(5, 1)
        assert shard_seed(5, 0) != shard_seed(6, 0)


def _kernel_cases():
    cases = []
    for name in KNOWN_KERNELS:
        if name in available_kernels():
            cases.append(pytest.param(name))
        else:
            reason = unavailable_kernels().get(name, "not registered")
            cases.append(
                pytest.param(name, marks=pytest.mark.skip(reason=f"{name}: {reason}"))
            )
    return cases


class TestKernelEquivalence:
    """The sharded serving path under every registered kernel backend.

    Build, fan-out query, and distance-merge all run behind the kernel
    seam; per-query answers, probe/round accounting, and merge distances
    must be identical field by field whichever backend is active —
    compiled cases self-skip when the dependency is absent.
    """

    @pytest.mark.parametrize("kernel", _kernel_cases())
    def test_sharded_answers_identical_under_kernel(self, kernel, workload):
        db, queries = workload
        with use_kernel("reference"):
            baseline_index = ShardedANNIndex.build(db, SPEC, shards=4)
            baseline = baseline_index.query_batch(queries)
        with use_kernel(kernel):
            index = ShardedANNIndex.build(db, SPEC, shards=4)
            results = index.query_batch(queries)
        assert len(results) == len(baseline)
        for got, want in zip(results, baseline):
            assert got.answer_index == want.answer_index
            assert got.probes == want.probes
            assert got.rounds == want.rounds
            assert got.meta.get("distance") == want.meta.get("distance")


class TestDistanceMerge:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_matches_merge_oracle(self, shards, workload):
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=shards)
        results = sharded.query_batch(queries)
        oracle = merge_oracle(db, SPEC, shards, queries)
        for res, best in zip(results, oracle):
            if best is None:
                assert not res.answered
            else:
                dist, global_id = best
                assert res.answer_index == global_id
                assert res.meta["distance"] == dist

    def test_single_shared_seed_shard_is_the_unsharded_index(self, workload):
        # With one shard and shared_seed=True the shard sees the whole
        # database under the root seed: answers match the plain
        # ANNIndex bit for bit.
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=1, shared_seed=True)
        plain = ANNIndex.from_spec(db, SPEC)
        for s_res, p_res in zip(sharded.query_batch(queries), plain.query_batch(queries)):
            assert s_res.answer_index == p_res.answer_index
            assert s_res.probes == p_res.probes
            assert s_res.rounds == p_res.rounds

    def test_global_row_ids_point_at_the_answer(self, workload):
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=4)
        for res in sharded.query_batch(queries):
            if res.answered:
                assert np.array_equal(db.row(res.answer_index), res.answer_packed)

    def test_query_is_query_batch_of_one(self, workload):
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=4)
        batch = sharded.query_batch(queries)
        single = sharded.query(queries[0])
        assert single.answer_index == batch[0].answer_index
        assert single.probes == batch[0].probes


class TestAccounting:
    def test_probes_sum_and_rounds_max_across_shards(self, workload):
        db, queries = workload
        shards = 4
        sharded = ShardedANNIndex.build(db, SPEC, shards=shards)
        merged = sharded.query_batch(queries)
        per_shard = [shard.query_batch(queries) for shard in sharded.shards]
        for qi, res in enumerate(merged):
            shard_results = [results[qi] for results in per_shard]
            assert res.probes == sum(r.probes for r in shard_results)
            assert res.rounds == max(r.rounds for r in shard_results)

    def test_batch_stats_aggregate(self, workload):
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=4)
        results = sharded.query_batch(queries)
        stats = sharded.last_batch_stats
        assert stats.batch_size == queries.shape[0]
        assert stats.total_probes == sum(r.probes for r in results)
        assert stats.total_rounds == sum(r.rounds for r in results)
        assert stats.sweeps >= 1

    def test_size_report_sums_shards(self, workload):
        db, _ = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=4)
        report = sharded.size_report()
        assert report.table_cells == sum(
            shard.size_report().table_cells for shard in sharded.shards
        )
        assert len(sharded) == len(db)


class TestBuild:
    def test_cold_build_is_bitwise_identical_to_warm(self, workload):
        """``warm`` only moves each shard's preprocessing to build time;
        a cold build derives the same arrays on first use."""
        db, queries = workload
        warm = ShardedANNIndex.build(db, SPEC, shards=4)
        cold = ShardedANNIndex.build(db, SPEC, shards=4, warm=False)
        for w_res, c_res in zip(warm.query_batch(queries), cold.query_batch(queries)):
            assert w_res.answer_index == c_res.answer_index
            assert w_res.probes == c_res.probes
            assert w_res.rounds == c_res.rounds
            assert w_res.probes_per_round == c_res.probes_per_round


class TestPersistence:
    def test_save_load_round_trip(self, workload, tmp_path):
        db, queries = workload
        sharded = ShardedANNIndex.build(db, SPEC, shards=4)
        sharded.save(tmp_path / "sharded")
        loaded = ShardedANNIndex.load(tmp_path / "sharded")
        assert loaded.num_shards == 4
        assert loaded.spec == sharded.spec
        for s_res, l_res in zip(
            sharded.query_batch(queries), loaded.query_batch(queries)
        ):
            assert s_res.answer_index == l_res.answer_index
            assert s_res.probes == l_res.probes
            assert s_res.rounds == l_res.rounds

    def test_load_any_dispatches_to_sharded(self, workload, tmp_path):
        db, _ = workload
        ShardedANNIndex.build(db, SPEC, shards=2).save(tmp_path / "s")
        assert isinstance(load_any(tmp_path / "s"), ShardedANNIndex)
