"""ShardedANNIndex: partitioning, building, distance merging.

The acceptance bar: with S ∈ {1, 4}, the sharded index returns exactly
the answer set a single unsharded index produces under the
distance-merge rule — per query, the minimum-true-Hamming-distance
answer across shards, ties to the smallest global row id.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.cellprobe.accounting import ProbeAccountant
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
from repro.service.cluster import ShardRouter
from repro.service.sharded import (
    ShardedANNIndex,
    locate,
    merge_shard_answers,
    route_inserts,
    shard_bounds,
    shard_offsets,
    shard_seed,
)


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


# -- the shard rules ShardedANNIndex and ShardRouter share ---------------------
id_spaces_st = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_partition_property_locate_matches_a_scan(data):
    """``locate`` resolves every global id exactly as a scan over the
    shards' id ranges does, and refuses the ids no shard owns."""
    id_spaces = data.draw(id_spaces_st)
    total = sum(id_spaces)
    gid = data.draw(st.integers(min_value=-2, max_value=total + 2))
    offsets = shard_offsets(id_spaces)
    assert offsets == [sum(id_spaces[:i]) for i in range(len(id_spaces))]
    owners = [(si, local) for si, size in enumerate(id_spaces) for local in range(size)]
    if 0 <= gid < total:
        assert locate(gid, offsets, id_spaces) == owners[gid]
    else:
        with pytest.raises(ValueError, match=rf"^id {gid} out of range \[0, {total}\)$"):
            locate(gid, offsets, id_spaces)


@given(
    live=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5),
    count=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_partition_property_routing_replays_the_greedy_rule(live, count):
    """Each point goes to the shard with the fewest live rows at that
    moment, ties to the smaller index; positions number each shard's
    batch in input order."""
    current = list(live)
    expected = []
    for _ in range(count):
        si = current.index(min(current))
        expected.append((si, sum(1 for s, _ in expected if s == si)))
        current[si] += 1
    assert route_inserts(live, count) == expected


def _router(shards: int, inner: str) -> ShardRouter:
    """An unstarted router: its merge needs only the shard count and the
    inner scheme name a started router reads from its replicas."""
    router = ShardRouter([[("127.0.0.1", 9)] for _ in range(shards)])
    router._inner_scheme = inner
    return router


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_partition_property_merge_ties_skips_and_folds(data):
    """The shard merge picks the smallest ``(distance, global id)`` —
    a distance tie goes to the smaller global id — skips shards without
    an answer, and answers nothing when no shard does; the router's wire
    fold and the in-process accountant fold give the same ledger."""
    id_spaces = data.draw(id_spaces_st)
    offsets = shard_offsets(id_spaces)
    answers, ledgers = [], []
    for si, size in enumerate(id_spaces):
        answer = data.draw(
            st.none()
            | st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=size - 1),
                st.fixed_dictionaries({"shard_tag": st.just(si)}),
            )
        )
        answers.append(answer)
        ledgers.append(data.draw(st.lists(st.integers(min_value=0, max_value=4), max_size=4)))

    si, global_id, meta = merge_shard_answers(answers, offsets, "inner")
    scored = sorted(
        (answer[0], offsets[s] + answer[1], s)
        for s, answer in enumerate(answers)
        if answer is not None
    )
    assert meta["shards"] == len(id_spaces)
    assert meta["shards_answered"] == len(scored)
    if not scored:
        assert (si, global_id) == (None, None)
        assert meta == {"shards": len(id_spaces), "shards_answered": 0, "inner": "inner"}
    else:
        distance, want_gid, want_shard = scored[0]
        assert (si, global_id, meta["shard"], meta["distance"]) == (
            want_shard,
            want_gid,
            want_shard,
            distance,
        )
        assert meta["winner_meta"] == {"shard_tag": want_shard}

    accountant = ProbeAccountant()
    for counts in ledgers:
        shard_ledger = ProbeAccountant()
        for count in counts:
            shard_ledger.charge_round(shard_ledger.begin_round(), [("t", 0)] * count)
        accountant.merge_parallel(shard_ledger)
    responses = [
        {
            "answer_index": None if answer is None else answer[1],
            "distance": None if answer is None else answer[0],
            "probes_per_round": counts,
            "meta": {} if answer is None else answer[2],
        }
        for answer, counts in zip(answers, ledgers)
    ]
    wire = _router(len(id_spaces), "inner")._merged_response(responses, offsets)
    assert wire["probes_per_round"] == accountant.probes_per_round
    assert wire["probes"] == accountant.total_probes
    assert wire["rounds"] == accountant.total_rounds
    assert (wire["answer_index"], wire["meta"]) == (global_id, meta)
    assert wire["scheme"] == f"sharded(inner×{len(id_spaces)})"


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


class TestInputShaping:
    """The sharded facade refuses the rows the wire refuses, and writes
    nothing when it does."""

    @pytest.mark.parametrize(
        "call, rows",
        [
            pytest.param("query", [0.9] * 128, id="fractional-query"),
            pytest.param("query_batch", np.full((2, 128), 0.9), id="fractional-batch"),
            pytest.param("insert", [[256] + [0] * 127], id="insert-bit-256"),
        ],
    )
    def test_refuses_values_other_than_0_or_1(self, workload, call, rows):
        db, _ = workload
        index = ShardedANNIndex.build(db, SPEC, shards=2)
        with pytest.raises(ValueError, match="bits must be"):
            getattr(index, call)(rows)
        assert index.id_space == len(db)
