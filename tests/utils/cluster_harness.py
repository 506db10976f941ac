"""Chaos/equivalence machinery for the distributed serving tests.

Builds on :class:`repro.service.harness.ClusterHarness` (the subprocess
spawner) and adds what only tests need: the **single-process oracle**
(a :class:`~repro.service.sharded.ShardedANNIndex` loaded from the same
snapshot the shard servers serve) and a deterministic, seeded **chaos
schedule** that interleaves queries, inserts, and deletes with a
replica kill + restart at seeded points — asserting after every step
that the cluster's answers are *bitwise identical* (answer ids, probe
and round accounting, scheme label, distance, merged metadata) to the
oracle applying the same write history.

``run_chaos`` is the single entry point the hypothesis property test
drives; ``assert_query_equivalent`` is reused by the gating smoke test.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.service.harness import ClusterHarness
from repro.service.server import _jsonable, _query_distance, _result_response
from repro.service.sharded import ShardedANNIndex, locate
from repro.hamming.packing import pack_bits

__all__ = [
    "assert_query_equivalent",
    "build_sharded_snapshot",
    "oracle_wire_result",
    "remote_wire_result",
    "run_chaos",
]


def build_sharded_snapshot(path, n=80, d=256, shards=2, seed=11, workload_seed=3):
    """Build a small planted-workload sharded index, snapshot it, and
    return ``(snapshot_path, queries_as_bit_lists)``."""
    from repro.api import IndexSpec
    from repro.hamming.packing import unpack_bits
    from repro.workloads.spec import WorkloadSpec, make_workload

    wl = make_workload(
        "planted",
        WorkloadSpec(n=n, d=d, num_queries=8, seed=workload_seed),
        max_flips=max(1, d // 32),
    )
    spec = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=seed)
    index = ShardedANNIndex.build(wl.database, spec, shards=shards)
    snapshot = index.save(path)
    queries = [
        [int(b) for b in unpack_bits(row[None, :], d)[0]] for row in wl.queries
    ]
    return snapshot, queries


def oracle_wire_result(oracle: ShardedANNIndex, bits) -> dict:
    """Exactly the wire response a single-process ``repro serve`` of the
    oracle would produce for this query (same helpers, same shapes)."""
    arr = np.asarray(bits, dtype=np.uint8)
    row = pack_bits(arr, oracle.d)
    result = oracle.query(row)
    return _result_response(result, distance=_query_distance(row, result))


def remote_wire_result(remote) -> dict:
    """A :class:`~repro.service.client.RemoteResult` as the same dict
    shape, for field-by-field comparison against the oracle."""
    return {
        "ok": True,
        "answered": remote.answered,
        "answer_index": remote.answer_index,
        "probes": remote.probes,
        "rounds": remote.rounds,
        "probes_per_round": list(remote.probes_per_round),
        "scheme": remote.scheme,
        "distance": remote.distance,
        "meta": remote.meta,
    }


def assert_query_equivalent(client, oracle: ShardedANNIndex, bits) -> None:
    """One query through the cluster and the oracle must match bitwise —
    answers *and* accounting *and* merged metadata."""
    expected = _jsonable(oracle_wire_result(oracle, bits))
    actual = remote_wire_result(client.query(bits))
    assert actual == expected, (
        f"cluster diverged from the single-process oracle:\n"
        f"  cluster: {actual}\n  oracle:  {expected}"
    )


def _live_ids(oracle: ShardedANNIndex) -> List[int]:
    return [g for g in range(oracle.id_space) if oracle.is_live(g)]


def run_chaos(
    snapshot,
    seed: int,
    steps: int = 12,
    replicas: int = 2,
    health_interval: float = 0.2,
    router_timeout: float = 2.0,
) -> dict:
    """One seeded chaos episode; returns counters for reporting.

    The schedule interleaves queries (compared bitwise after every
    completed one), inserts, and deletes; at a seeded step one seeded
    replica is SIGKILLed, at a later seeded step it is restarted and
    caught up.  The episode ends by killing the *sibling* replica of the
    restarted one, so the final queries are answered by the caught-up
    replica alone — pinning that catch-up replay reproduces the exact
    state, not just approximately.
    """
    rng = np.random.default_rng(seed)
    oracle = ShardedANNIndex.load(snapshot)
    d = oracle.d
    shards = oracle.num_shards
    kill_at = int(rng.integers(0, steps))
    restart_at = int(rng.integers(kill_at + 1, steps + 1))
    target: Tuple[int, int] = (
        int(rng.integers(0, shards)),
        int(rng.integers(0, replicas)),
    )
    counts = {"queries": 0, "inserts": 0, "deletes": 0, "recovery_s": None}

    def random_query():
        if rng.random() < 0.5:  # planted near a live row: nontrivial answers
            live = _live_ids(oracle)
            gid = int(live[int(rng.integers(0, len(live)))] if live else 0)
            id_spaces = [shard.id_space for shard in oracle.shards]
            si, local = locate(gid, oracle.offsets, id_spaces)
            words = oracle.shards[si].database.words
            # memtable rows are not in .database; fall back to random bits
            if local < words.shape[0]:
                from repro.hamming.packing import unpack_bits

                bits = unpack_bits(words[local][None, :], d)[0].astype(np.uint8)
                flips = rng.integers(0, d, size=int(rng.integers(0, d // 16)))
                bits = bits.copy()
                bits[flips] ^= 1
                return [int(b) for b in bits]
        return [int(b) for b in rng.integers(0, 2, size=d, dtype=np.uint8)]

    with ClusterHarness(
        snapshot,
        replicas=replicas,
        health_interval=health_interval,
        router_timeout=router_timeout,
    ) as cluster:
        with cluster.connect() as client:
            for step in range(steps):
                if step == kill_at:
                    cluster.kill_replica(*target)
                if step == restart_at:
                    cluster.restart_replica(*target)
                    counts["recovery_s"] = cluster.wait_replica_alive(*target)
                roll = rng.random()
                if roll < 0.55:
                    assert_query_equivalent(client, oracle, random_query())
                    counts["queries"] += 1
                elif roll < 0.8:
                    pts = rng.integers(
                        0, 2, size=(int(rng.integers(1, 4)), d), dtype=np.uint8
                    )
                    remote_ids = client.insert(pts.tolist())
                    local_ids = oracle.insert(pts)
                    assert remote_ids == local_ids, (remote_ids, local_ids)
                    counts["inserts"] += 1
                else:
                    live = _live_ids(oracle)
                    if len(live) <= 2:
                        continue
                    k = int(rng.integers(1, min(3, len(live) - 1) + 1))
                    picked = [
                        int(i) for i in rng.choice(live, size=k, replace=False)
                    ]
                    deleted = client.delete(picked)
                    assert deleted == oracle.delete(picked) == k
                    counts["deletes"] += 1
            if restart_at >= steps:
                cluster.restart_replica(*target)
                counts["recovery_s"] = cluster.wait_replica_alive(*target)
            # The caught-up replica must now answer *alone*, identically.
            if replicas > 1:
                si, ri = target
                for sibling in range(replicas):
                    if sibling != ri:
                        cluster.kill_replica(si, sibling)
                for _ in range(3):
                    assert_query_equivalent(client, oracle, random_query())
                    counts["queries"] += 1
    return counts
