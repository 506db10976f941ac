"""Distributed shard serving: router equivalence, fault injection, chaos.

Three layers:

* pure unit tests for the deterministic pieces (:class:`WriteSequencer`
  ordering/idempotence/gap refusal, ``parse_shard_map``, the router's
  log replay against a recording replica client);
* a gating smoke test — a real 2-shard × 2-replica subprocess cluster
  must answer queries, survive a replica SIGKILL with bitwise-identical
  answers, and catch a restarted replica up from the router's write log
  (this is the test CI's distributed-smoke step runs);
* a ``slow`` hypothesis property test driving seeded chaos schedules
  through ``tests/utils/cluster_harness.run_chaos`` — every completed
  operation bitwise-identical to the single-process
  :class:`ShardedANNIndex` oracle, ending with the caught-up replica
  answering alone.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_harness as ch
from repro.service.cluster import ClusterError, ShardRouter, parse_shard_map
from repro.service.server import WriteSequencer
from repro.service.sharded import ShardedANNIndex

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


# -- write sequencer ---------------------------------------------------------
class TestWriteSequencer:
    def test_admits_exactly_the_next_sequence(self):
        gate = WriteSequencer(initial=5)
        assert gate.admit(6) is True
        assert gate.accepted == 6

    def test_duplicates_are_idempotent(self):
        gate = WriteSequencer()
        assert gate.admit(1) is True
        assert gate.admit(1) is False  # same write from a stale buffer
        assert gate.accepted == 1

    def test_gaps_are_refused_loudly(self):
        gate = WriteSequencer(initial=3)
        with pytest.raises(ValueError, match="write sequence gap"):
            gate.admit(5)
        assert gate.accepted == 3  # refused, not half-applied

    def test_duplicate_ack_replays_the_recorded_response(self):
        gate = WriteSequencer()
        gate.admit(1)
        gate.record(1, {"ok": True, "ids": [7, 8], "seq": 1})
        ack = gate.duplicate_ack(1)
        assert ack["ids"] == [7, 8]
        assert ack["duplicate"] is True

    def test_ack_window_is_bounded(self):
        gate = WriteSequencer()
        for seq in range(1, 100):
            gate.admit(seq)
            gate.record(seq, {"ok": True, "seq": seq})
        assert len(gate._acks) <= 32
        # evicted acks still answer, just without the recorded payload
        assert gate.duplicate_ack(1) == {
            "ok": True,
            "duplicate": True,
            "seq": 1,
            "applied_seq": 0,
        }


# -- shard map parsing -------------------------------------------------------
class TestParseShardMap:
    def test_parses_replicated_map(self):
        got = parse_shard_map(["1=host-b:2,host-c:3", "0=host-a:1"])
        assert got == [[("host-a", 1)], [("host-b", 2), ("host-c", 3)]]

    @pytest.mark.parametrize(
        "specs, message",
        [
            ([], "at least one"),
            (["0:localhost:1"], "missing '='"),
            (["x=localhost:1"], "not an index"),
            (["0=localhost:1", "0=localhost:2"], "specified twice"),
            (["0=localhost"], "malformed endpoint"),
            (["0=localhost:http"], "malformed port"),
            (["0=localhost:1", "2=localhost:2"], "must cover 0..1"),
        ],
    )
    def test_rejects_malformed_specs(self, specs, message):
        with pytest.raises(ValueError, match=message):
            parse_shard_map(specs)


# -- log replay --------------------------------------------------------------
class _RecordingClient:
    """Stands in for a replica connection and records every request."""

    address = "replica-under-test:1"

    def __init__(self):
        self.sent = []

    async def request(self, op, timeout=None, **payload):
        self.sent.append((op, payload))
        return {"ok": True}


def _replay_router():
    """An unstarted one-shard router whose memory log holds seqs 3..5
    above base 2, its one replica wired to a recording client."""
    router = ShardRouter([[("127.0.0.1", 9)]])
    router.log.create_segments([2])
    for local in range(3):
        router.log.append(0, "delete", {"ids": [local]})
    replica = router._replicas[0][0]
    replica.client = _RecordingClient()
    return router, replica


@pytest.mark.parametrize(
    "last, refusal",
    [(6, "ahead of shard 0's log head 5"), (1, "behind shard 0's log base 2")],
)
def test_replay_refuses_a_replica_outside_the_log(last, refusal):
    router, replica = _replay_router()
    with pytest.raises(ClusterError, match=refusal) as excinfo:
        asyncio.run(router._replay(replica, last))
    assert "replica-under-test:1" in str(excinfo.value)
    assert replica.client.sent == []


@pytest.mark.parametrize("last", [2, 3, 5])
def test_replay_sends_the_entries_past_the_replica_in_order(last):
    router, replica = _replay_router()
    assert asyncio.run(router._replay(replica, last)) == 5 - last
    assert replica.client.sent == [
        ("delete", {"seq": seq, "ids": [seq - 3]}) for seq in range(last + 1, 6)
    ]


# -- subprocess cluster ------------------------------------------------------
@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A saved 2-shard planted-workload index plus its query batch."""
    return ch.build_sharded_snapshot(tmp_path_factory.mktemp("cluster") / "snap")


def test_cluster_smoke_equivalence_and_failover(snapshot):
    """The CI distributed-smoke scenario, end to end:

    query + query_batch bitwise-identical to the oracle, then kill one
    replica (answers unchanged), write while it is down, restart it
    (router replays the missed writes), kill its sibling, and verify the
    caught-up replica answers the whole shard alone — still identical.
    """
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    with ch.ClusterHarness(snap, replicas=2) as cluster:
        with cluster.connect() as client:
            info = client.info()
            assert len(info["cluster"]["shards"]) == oracle.num_shards
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)

            # batched path merges identically to per-query
            remotes = client.query_batch(queries)
            for bits, remote in zip(queries, remotes):
                expected = ch.oracle_wire_result(oracle, bits)
                assert ch.remote_wire_result(remote) == ch._jsonable(expected)

            # writes replicate with oracle-identical ids/counts
            rng = np.random.default_rng(5)
            pts = rng.integers(0, 2, size=(3, oracle.d), dtype=np.uint8)
            assert client.insert(pts.tolist()) == oracle.insert(pts)
            victim = next(g for g in range(oracle.id_space) if oracle.is_live(g))
            assert client.delete([victim]) == oracle.delete([victim]) == 1
            ch.assert_query_equivalent(client, oracle, queries[0])

            # crash one replica: reads fail over, answers unchanged
            cluster.kill_replica(0, 0)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)

            # writes applied while it is down land in the router log
            pts = rng.integers(0, 2, size=(2, oracle.d), dtype=np.uint8)
            assert client.insert(pts.tolist()) == oracle.insert(pts)

            # restart from the (stale) snapshot: catch-up replays the log
            cluster.restart_replica(0, 0)
            recovery = cluster.wait_replica_alive(0, 0)
            assert recovery >= 0.0

            # the caught-up replica must carry the shard alone, bitwise
            cluster.kill_replica(0, 1)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)

            counters = client.stats()  # router counters are top-level keys
            assert counters["catch_ups"] == 1
            assert counters["replayed_writes"] >= 1
            assert counters["divergence"] == 0
            assert counters["dead_transitions"] >= 2


def test_router_refuses_queries_when_a_shard_has_no_replica(snapshot):
    """With every replica of a shard dead the router degrades loudly:
    per-request errors naming the shard, never a silent partial answer
    — and recovers as soon as a replica returns."""
    from repro.service.client import ServiceError

    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    with ch.ClusterHarness(snap, replicas=1, router_timeout=1.0) as cluster:
        with cluster.connect() as client:
            ch.assert_query_equivalent(client, oracle, queries[0])
            cluster.kill_replica(1, 0)
            with pytest.raises(ServiceError, match="shard 1"):
                client.query(queries[0])
            cluster.restart_replica(1, 0)
            cluster.wait_replica_alive(1, 0)
            ch.assert_query_equivalent(client, oracle, queries[0])


def test_checkpoint_truncates_the_memory_log(snapshot):
    """Without a log directory the router's log lives in memory, and a
    checkpoint truncates it by the durable log's rule: every shard's log
    base moves to the replicas' snapshot coverage and ``truncated``
    reports the drop.  A replica killed and restarted from its
    checkpoint then catches up from the truncated log and answers its
    shard alone, bitwise-identical to the oracle."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(37)
    with ch.ClusterHarness(snap, replicas=2) as cluster:
        with cluster.connect() as client:
            pts = rng.integers(0, 2, size=(2, oracle.d), dtype=np.uint8)
            assert client.insert(pts.tolist()) == oracle.insert(pts)
            before = client.info()["cluster"]["shards"]
            report = client.snapshot()
            after = client.info()["cluster"]["shards"]
            heads = [shard["log_head"] for shard in before]
            assert report["truncated"] == [
                shard["log_head"] - shard["log_base"] for shard in before
            ]
            assert sum(report["truncated"]) == 2
            assert [shard["log_base"] for shard in after] == heads
            assert report["write_seq"] == heads
            stats = client.stats()
            assert stats["wal"] is None
            assert stats["wal_appends"] == stats["wal_truncations"] == 0

            # a write while replica 0/0 is down lands past the new base
            cluster.kill_replica(0, 0)
            victim = next(g for g in range(oracle.id_space) if oracle.is_live(g))
            assert client.delete([victim]) == oracle.delete([victim]) == 1
            pts = rng.integers(0, 2, size=(2, oracle.d), dtype=np.uint8)
            assert client.insert(pts.tolist()) == oracle.insert(pts)

            cluster.restart_replica(0, 0)  # reloads its own checkpoint
            cluster.wait_replica_alive(0, 0)
            cluster.kill_replica(0, 1)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)
            assert client.stats()["catch_ups"] == 1


@pytest.fixture(scope="module")
def router(snapshot):
    """One 2-shard × 1-replica cluster shared by the malformed-bits cases."""
    with ch.ClusterHarness(snapshot[0], replicas=1) as cluster:
        yield cluster


@pytest.mark.parametrize(
    "op, payload",
    [
        pytest.param("query", lambda d: {"bits": [0.9] * d}, id="fractional-query"),
        pytest.param("query", lambda d: {"bits": ["1"] * d}, id="string-query"),
        pytest.param(
            "query_batch",
            lambda d: {"queries": [[0] * (d - 1) + [2]]},
            id="bit-above-1-batch-row",
        ),
        pytest.param(
            "insert", lambda d: {"points": [[-1] + [0] * (d - 1)]}, id="negative-insert"
        ),
    ],
)
def test_router_rejects_malformed_bits(router, snapshot, op, payload):
    """The router decodes bit rows with the shard servers' rule — JSON
    integers or booleans equal to 0 or 1 — before it fans out: a
    malformed row is a per-request error, never a truncated query or a
    logged write."""
    from repro.service.client import ServiceError

    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    with router.connect() as client:
        before = client.info()["cluster"]["shards"]
        with pytest.raises(ServiceError, match="0 or 1"):
            client._request(op, **payload(oracle.d))
        assert client.info()["cluster"]["shards"] == before
        ch.assert_query_equivalent(client, oracle, queries[0])


# -- chaos property ----------------------------------------------------------
@pytest.mark.slow
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_chaos_schedule_is_bitwise_equivalent_to_oracle(snapshot, seed):
    """Any seeded interleaving of queries/inserts/deletes with a replica
    SIGKILLed and restarted at seeded points stays bitwise-identical to
    the single-process oracle — including the final phase where the
    caught-up replica answers its shard alone."""
    snap, _ = snapshot
    counts = ch.run_chaos(snap, seed=seed, steps=10, replicas=2)
    assert counts["queries"] >= 1
    assert counts["recovery_s"] is not None
