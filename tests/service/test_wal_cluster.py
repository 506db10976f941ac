"""Router crash recovery through the durable write-ahead log.

The headline invariant (``docs/DISTRIBUTED.md``): a SIGKILLed router
restarted with ``--log-dir ... --recover`` answers **bitwise
identically** to a router that was never killed — equivalently, to the
single-process :class:`ShardedANNIndex` oracle applying the same write
history.  Cluster state is a pure function of (snapshot, WAL), so the
tests also rebuild an oracle *from the WAL files themselves* and check
the three-way agreement.

Layers:

* gating fast tests — crash/recover round-trip, replay of writes a
  stale replica missed, checkpoint truncation, supervised auto-respawn
  (CI's durability smoke step runs these);
* a ``slow`` hypothesis property test killing the router at seeded
  points of a seeded query/insert/delete schedule.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_harness as ch
from repro.persistence import read_manifest
from repro.service import ServiceError
from repro.service.sharded import ShardedANNIndex
from repro.service.wal import read_segment, segment_path

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A saved 2-shard planted-workload index plus its query batch."""
    return ch.build_sharded_snapshot(tmp_path_factory.mktemp("walcluster") / "snap")


def replay_oracle(snapshot, log_dir) -> ShardedANNIndex:
    """The recovery definition, executed literally: load the snapshot
    and replay each shard's WAL entries into its shard index.  The
    cluster must be bitwise-equivalent to *this* after any crash."""
    oracle = ShardedANNIndex.load(snapshot)
    for si in range(oracle.num_shards):
        segment = read_segment(segment_path(log_dir, si))
        assert segment["base_seq"] == 0, "replay oracle needs the full log"
        for entry in segment["entries"]:
            if entry["op"] == "insert":
                oracle.shards[si].insert(
                    np.asarray(entry["payload"]["points"], dtype=np.uint8)
                )
            else:
                oracle.shards[si].delete(entry["payload"]["ids"])
    return oracle


def apply_writes(client, oracle, rng, d):
    """One insert + one delete through both cluster and oracle."""
    pts = rng.integers(0, 2, size=(2, d), dtype=np.uint8)
    assert client.insert(pts.tolist()) == oracle.insert(pts)
    victim = next(g for g in range(oracle.id_space) if oracle.is_live(g))
    assert client.delete([victim]) == oracle.delete([victim]) == 1


def test_router_crash_recovery_is_bitwise_identical(snapshot, tmp_path):
    """Write, SIGKILL the router, restart with --recover: the recovered
    router answers every query bitwise-identically to the oracle, and
    the WAL carries exactly the logged history."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(17)
    log_dir = tmp_path / "wal"
    with ch.ClusterHarness(snap, replicas=2, log_dir=log_dir) as cluster:
        with cluster.connect() as client:
            apply_writes(client, oracle, rng, oracle.d)
            stats = client.stats()
            assert stats["wal_appends"] >= 2  # insert may split across shards
            assert stats["wal"]["dir"] == str(log_dir)

        cluster.kill_router()
        recovery_s = cluster.restart_router()
        assert recovery_s < 30

        with cluster.connect() as client:
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)
            # the WAL-replay definition of recovery agrees
            replayed = replay_oracle(snap, log_dir)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, replayed, bits)
            # the recovered router keeps logging: writes still replicate
            apply_writes(client, oracle, rng, oracle.d)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)
            assert client.stats()["wal_appends"] >= 2


def test_rejected_insert_never_reaches_the_wal(snapshot, tmp_path):
    """A fractional bit row is refused at the router before it is
    logged: no WAL entry, no replica write, and the next valid insert
    takes the first sequence number."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    log_dir = tmp_path / "wal"
    with ch.ClusterHarness(snap, replicas=1, log_dir=log_dir) as cluster:
        with cluster.connect() as client:
            with pytest.raises(ServiceError, match="integers 0 or 1"):
                client._request("insert", points=[[0.5] * oracle.d])
            assert client.stats()["wal_appends"] == 0
            for si in range(cluster.num_shards):
                assert read_segment(segment_path(log_dir, si))["entries"] == []
            apply_writes(client, oracle, np.random.default_rng(5), oracle.d)
            for bits in queries[:2]:
                ch.assert_query_equivalent(client, oracle, bits)
    assert replay_oracle(snap, log_dir).live_count == oracle.live_count


def test_recovery_replays_writes_a_stale_replica_missed(snapshot, tmp_path):
    """Writes land while one replica per shard is dead; the router is
    killed; the dead replicas restart from their *stale* snapshots.  The
    recovering router must replay the WAL gap into them before serving —
    pinned by killing the up-to-date siblings and querying the recovered
    replicas alone."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(23)
    with ch.ClusterHarness(
        snap, replicas=2, log_dir=tmp_path / "wal"
    ) as cluster:
        with cluster.connect() as client:
            for si in range(cluster.num_shards):
                cluster.kill_replica(si, 0)
            apply_writes(client, oracle, rng, oracle.d)

        cluster.kill_router()
        # restart the stale replicas while the router is down: nothing
        # can catch them up except the new router's WAL recovery
        for si in range(cluster.num_shards):
            cluster.restart_replica(si, 0)
        cluster.restart_router()

        with cluster.connect() as client:
            stats = client.stats()
            assert stats["recoveries"] >= 1
            assert stats["recovered_writes"] >= 2
            # recovered replicas must carry their shards alone, bitwise
            for si in range(cluster.num_shards):
                cluster.kill_replica(si, 1)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)


def test_checkpoint_truncates_the_wal(snapshot, tmp_path):
    """``snapshot`` against the router saves every replica to its own
    snapshot directory and truncates the WAL to the persisted coverage;
    recovery from the truncated log still works because restarted
    replicas load their checkpoints, which carry the prefix."""
    import shutil

    snap_src, queries = snapshot
    snap = tmp_path / "snap"  # private copy, pure test isolation
    shutil.copytree(snap_src, snap)
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(29)
    log_dir = tmp_path / "wal"
    with ch.ClusterHarness(snap, replicas=2, log_dir=log_dir) as cluster:
        with cluster.connect() as client:
            apply_writes(client, oracle, rng, oracle.d)
            before = client.stats()["wal"]["segments"]
            assert sum(s["entries"] for s in before) >= 2

            report = client.snapshot()
            assert report["ok"] if "ok" in report else True
            assert sum(report["truncated"]) == sum(s["entries"] for s in before)
            after = client.stats()
            assert after["wal_truncations"] >= 1
            assert after["checkpoints"] == 1
            for si, seg in enumerate(after["wal"]["segments"]):
                assert seg["entries"] == 0
                assert seg["base_seq"] == seg["head"]
                # durable too, not just in the router's memory
                on_disk = read_segment(segment_path(log_dir, si))
                assert on_disk["base_seq"] == seg["base_seq"]
                assert on_disk["entries"] == []

            # post-checkpoint writes append past the new base
            apply_writes(client, oracle, rng, oracle.d)

        # crash + recover on the truncated log: replicas restart from
        # the *checkpointed* snapshots, which cover the truncated prefix
        cluster.kill_router()
        for si in range(cluster.num_shards):
            cluster.restart_replica(si, 0)
        cluster.restart_router()
        with cluster.connect() as client:
            for si in range(cluster.num_shards):
                cluster.kill_replica(si, 1)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)


def test_checkpoint_never_touches_the_shared_snapshot(snapshot, tmp_path):
    """Replicas of a shard all load the same ``--index`` snapshot;
    checkpoints must land in per-replica ``--snapshot-dir`` directories
    and leave the shared snapshot byte-identical — a replica saving in
    place would rewrite files its siblings are serving."""
    from pathlib import Path

    snap = Path(snapshot[0])
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(41)
    files = sorted(p for p in snap.rglob("*") if p.is_file())
    before = {p: p.read_bytes() for p in files}
    with ch.ClusterHarness(snap, replicas=2, log_dir=tmp_path / "wal") as cluster:
        with cluster.connect() as client:
            apply_writes(client, oracle, rng, oracle.d)
            client.snapshot()
        snap_dirs = sorted(cluster.workdir.glob("shard*r*.snap"))
        assert len(snap_dirs) == cluster.num_shards * 2
        for directory in snap_dirs:
            assert (directory / "manifest.json").is_file()
            assert read_manifest(directory)["format_version"] == 3
    assert sorted(p for p in snap.rglob("*") if p.is_file()) == files
    assert all(p.read_bytes() == before[p] for p in files)


def test_mmap_cluster_checkpoints_and_restarts_from_v3(snapshot, tmp_path):
    """Under ``--load-mode mmap`` a checkpoint into a fresh per-replica
    directory must come out as format v3 (the restart reloads it with
    the same load mode), and the restarted replica must carry its shard
    alone after recovery."""
    import json

    snap_v3 = tmp_path / "snap-v3"
    ShardedANNIndex.load(snapshot[0]).save(snap_v3)
    queries = snapshot[1]
    oracle = ShardedANNIndex.load(snap_v3)
    rng = np.random.default_rng(43)
    with ch.ClusterHarness(
        snap_v3, replicas=2, log_dir=tmp_path / "wal", load_mode="mmap"
    ) as cluster:
        with cluster.connect() as client:
            apply_writes(client, oracle, rng, oracle.d)
            client.snapshot()
            for si in range(cluster.num_shards):
                for ri in range(2):
                    manifest = json.loads(
                        (cluster.workdir / f"shard{si}r{ri}.snap" / "manifest.json")
                        .read_text()
                    )
                    assert manifest["format_version"] == 3
            apply_writes(client, oracle, rng, oracle.d)

        cluster.kill_router()
        for si in range(cluster.num_shards):
            cluster.restart_replica(si, 0)  # reloads its own v3 checkpoint
        cluster.restart_router()
        with cluster.connect() as client:
            for si in range(cluster.num_shards):
                cluster.kill_replica(si, 1)
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)


def test_supervised_cluster_respawns_dead_replicas(snapshot, tmp_path):
    """With supervision on, a SIGKILLed replica comes back by itself
    (same snapshot, same port), is caught up from the write log, and
    the respawn is visible in the router's counters."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(31)
    with ch.ClusterHarness(
        snap, replicas=2, log_dir=tmp_path / "wal", supervise=True
    ) as cluster:
        with cluster.connect() as client:
            apply_writes(client, oracle, rng, oracle.d)
            first_port = cluster.replica(0, 0).port
            cluster.kill_replica(0, 0)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if cluster.respawns >= 1 and cluster.replica_alive_in_router(0, 0):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("supervision never respawned the replica")
            # Shard servers bind port 0 once; the respawn reuses the port
            # the first spawn bound, which the router's shard map names.
            assert cluster.replica(0, 0).port == first_port
            # the respawned replica answers its shard alone, bitwise
            cluster.kill_replica(0, 1)
            cluster.wait_replica_alive(0, 1)  # supervised: comes back too
            for bits in queries[:4]:
                ch.assert_query_equivalent(client, oracle, bits)


# -- chaos property ----------------------------------------------------------
@pytest.mark.slow
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_router_kill_schedule_is_bitwise_equivalent(snapshot, tmp_path_factory, seed):
    """Kill the router at seeded points of a seeded query/insert/delete
    schedule (replica kills included): after every recovery the cluster
    stays bitwise-identical to the incremental oracle, and the final
    state equals the literal recovery definition — snapshot + per-shard
    WAL replay."""
    snap, queries = snapshot
    oracle = ShardedANNIndex.load(snap)
    rng = np.random.default_rng(seed)
    d = oracle.d
    steps = 10
    router_kills = sorted(
        int(k) for k in rng.choice(steps, size=2, replace=False)
    )
    replica_kill = int(rng.integers(0, steps))
    target = (int(rng.integers(0, oracle.num_shards)), int(rng.integers(0, 2)))
    log_dir = tmp_path_factory.mktemp("chaoswal") / f"wal-{seed}"

    with ch.ClusterHarness(
        snap, replicas=2, log_dir=log_dir, supervise=True
    ) as cluster:
        client = cluster.connect()
        try:
            for step in range(steps):
                if step in router_kills:
                    cluster.kill_router()
                    cluster.restart_router()
                    client.close()
                    client = cluster.connect()
                if step == replica_kill:
                    cluster.kill_replica(*target)  # supervision revives it
                roll = rng.random()
                if roll < 0.5:
                    bits = [int(b) for b in rng.integers(0, 2, size=d, dtype=np.uint8)]
                    ch.assert_query_equivalent(client, oracle, bits)
                elif roll < 0.8:
                    pts = rng.integers(
                        0, 2, size=(int(rng.integers(1, 3)), d), dtype=np.uint8
                    )
                    assert client.insert(pts.tolist()) == oracle.insert(pts)
                else:
                    live = [
                        g for g in range(oracle.id_space) if oracle.is_live(g)
                    ]
                    if len(live) <= 2:
                        continue
                    victim = int(live[int(rng.integers(0, len(live)))])
                    assert client.delete([victim]) == oracle.delete([victim]) == 1
            # final crash + recovery, then the three-way agreement:
            # cluster == incremental oracle == snapshot + WAL replay
            cluster.kill_router()
            cluster.restart_router()
            client.close()
            client = cluster.connect()
            replayed = replay_oracle(snap, log_dir)
            for bits in queries[:3]:
                ch.assert_query_equivalent(client, oracle, bits)
                ch.assert_query_equivalent(client, replayed, bits)
        finally:
            client.close()
