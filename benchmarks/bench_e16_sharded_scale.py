"""E16 — sharded build and distance-merge serving.

Not a paper claim: this experiment measures the persistence + sharding
layer (``repro.persistence`` / ``repro.service.sharded``) that turns the
single-process simulator into a saveable, partitionable serving system.

Measured:

* **Build** — wall-clock of ``ShardedANNIndex.build`` with 4 shards,
  each shard's preprocessing warmed (per-level database sketching, the
  real build cost).
* **Merge fidelity** — the sharded index's answers equal the
  distance-merge oracle over independently built shard indexes
  (asserted on every run).
* **Serving** — merged batch query throughput and aggregated
  probe/round stats.
* **Round trip** — a saved and reloaded sharded index answers like the
  built one.

Criteria: merge fidelity and the round trip are asserted on every run;
build time and q/s are informational.

Catalog of all experiments: ``docs/BENCHMARKS.md``.
"""

import time

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.hamming.distance import hamming_distance
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.core.index import ANNIndex
from repro.service.sharded import ShardedANNIndex, shard_bounds, shard_seed

N, D, K = 4096, 2048, 3
SHARDS = 4
QUERIES = 64

INDEX_SPEC = IndexSpec(
    scheme="algorithm1", params={"gamma": 4.0, "rounds": K, "c1": 8.0}, seed=2016
)


@pytest.fixture(scope="module")
def e16_workload():
    gen = np.random.default_rng(2016)
    db = PackedPoints(random_points(gen, N, D), D)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, N))), int(gen.integers(0, D // 20)), D
            )
            for _ in range(QUERIES)
        ]
    )
    return db, queries


def _timed_build(db):
    start = time.perf_counter()
    index = ShardedANNIndex.build(db, INDEX_SPEC, shards=SHARDS, warm=True)
    return index, time.perf_counter() - start


def _merge_matches_oracle(db, sharded, queries) -> bool:
    bounds = shard_bounds(len(db), sharded.num_shards)
    singles = [
        ANNIndex.from_spec(
            db.take(range(start, stop)),
            INDEX_SPEC.replace(seed=shard_seed(INDEX_SPEC.seed, i)),
        )
        for i, (start, stop) in enumerate(bounds)
    ]
    for qi, res in enumerate(sharded.query_batch(queries)):
        best = None
        for si, single in enumerate(singles):
            r = single.query(queries[qi])
            if r.answer_packed is None:
                continue
            cand = (
                hamming_distance(queries[qi], r.answer_packed),
                bounds[si][0] + r.answer_index,
            )
            if best is None or cand < best:
                best = cand
        if best is None:
            if res.answered:
                return False
        elif res.answer_index != best[1]:
            return False
    return True


@pytest.fixture(scope="module")
def e16_row(e16_workload, report_table):
    db, queries = e16_workload
    index, build_time = _timed_build(db)
    start = time.perf_counter()
    results = index.query_batch(queries)
    query_time = time.perf_counter() - start
    stats = index.last_batch_stats
    row = {
        "build s": round(build_time, 2),
        "q/s": round(len(results) / query_time),
        "probes": stats.total_probes,
        "answered": sum(r.answered for r in results),
        "merge ok": _merge_matches_oracle(db, index, queries),
    }
    report_table(f"E16: sharded build (n={N}, d={D}, k={K}, S={SHARDS})", [row])
    from artifacts import write_artifact

    write_artifact(
        "e16_sharded_scale",
        {"build_s": build_time, "qps": row["q/s"]},
        extras={"n": N, "d": D, "shards": SHARDS},
    )
    return row


def test_e16_merge_matches_oracle(e16_row):
    assert e16_row["merge ok"]


def test_e16_snapshot_round_trip_at_scale(e16_workload, tmp_path):
    db, queries = e16_workload
    index = ShardedANNIndex.build(db, INDEX_SPEC, shards=SHARDS)
    index.save(tmp_path / "e16")
    loaded = ShardedANNIndex.load(tmp_path / "e16")
    for s_res, l_res in zip(
        index.query_batch(queries[:16]), loaded.query_batch(queries[:16])
    ):
        assert s_res.answer_index == l_res.answer_index
        assert s_res.probes == l_res.probes
