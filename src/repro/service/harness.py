"""Subprocess harness for a shard-serve/route cluster.

This is the process-topology half of the fault-injection story
(``docs/DISTRIBUTED.md``): spawn R replicas of every shard of a saved
:class:`~repro.service.sharded.ShardedANNIndex` snapshot as real
``python -m repro shard-serve`` processes, put a ``repro route`` router
in front, and expose deterministic fault injection — kill (SIGKILL) and
restart-from-snapshot — per replica.
Every process handshakes through ``--ready-file``, so startup is
race-free; stdout/stderr land in per-process log files for post-mortem.

The chaos/equivalence machinery (request schedules, the single-process
oracle, hypothesis integration) lives in ``tests/utils/cluster_harness.py``;
this module is intentionally test-framework-free so benchmarks
(``benchmarks/bench_e18_cluster.py``), the CI distributed smoke, and
``examples/cluster_demo.py`` can reuse it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

__all__ = [
    "ClusterHarness",
    "HarnessStateError",
    "ManagedProcess",
    "ProcessDiedError",
    "ShardFleet",
]


class ProcessDiedError(RuntimeError):
    """A managed process exited before (or instead of) becoming ready."""


class HarnessStateError(RuntimeError):
    """A lifecycle call hit a managed process in the wrong state (spawning
    a live process, signalling a dead one).  Subclasses
    :class:`RuntimeError` so untyped callers keep working."""


def _repro_env() -> dict:
    """Child env with this interpreter's ``repro`` importable."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


class ManagedProcess:
    """One spawnable/killable server process."""

    def __init__(self, name: str, argv: List[str], ready_file: Path, log_file: Path):
        self.name = name
        self.argv = list(argv)
        self.ready_file = Path(ready_file)
        self.log_file = Path(log_file)
        self.proc: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._env = _repro_env()

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def spawn(self, timeout: float = 30.0) -> "ManagedProcess":
        """Start the process and wait for its ready-file handshake."""
        if self.alive:
            raise HarnessStateError(f"{self.name} is already running")
        self.ready_file.unlink(missing_ok=True)
        log = open(self.log_file, "ab")
        try:
            self.proc = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT, env=self._env
            )
        finally:
            log.close()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ProcessDiedError(
                    f"{self.name} exited with code {self.proc.returncode} "
                    f"before becoming ready; log: {self.log_file}\n"
                    f"{self.log_file.read_text()[-2000:]}"
                )
            if self.ready_file.exists():
                # The server writes the ready file atomically (temp +
                # rename), but an older server — or any non-atomic
                # writer — can be caught between create and write.
                # Treat empty/unparseable content as "not ready yet"
                # and keep polling instead of failing the handshake.
                text = self.ready_file.read_text().strip()
                parts = text.split()
                if len(parts) == 2:
                    try:
                        port = int(parts[1])
                    except ValueError:
                        port = None
                    if port is not None:
                        self.host, self.port = parts[0], port
                        return self
            time.sleep(0.01)
        raise TimeoutError(
            f"{self.name} did not become ready within {timeout}s; "
            f"log: {self.log_file}"
        )

    def kill(self) -> None:
        """SIGKILL — the crash-failure injection."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def restart(self, timeout: float = 30.0) -> "ManagedProcess":
        """Kill (if needed) and respawn with the same argv — i.e. reload
        the same snapshot, same port; the router catches it up."""
        self.kill()
        return self.spawn(timeout=timeout)

    def stop(self) -> None:
        """Terminate politely, escalating to SIGKILL."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ShardFleet:
    """The shard-server half of a cluster: R replica processes per shard
    of a sharded snapshot, with optional auto-respawn.

    ``ClusterHarness`` composes this with an external router process;
    ``repro route --supervise`` runs one in-process and polls
    :meth:`check_respawn` so a crashed replica comes back on its own
    (same snapshot, same port — the router's health loop then catches
    it up from the write log).
    """

    def __init__(
        self,
        snapshot,
        replicas: int = 2,
        workdir=None,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        load_mode: str = "heap",
        kernel: Optional[str] = None,
    ):
        from repro.persistence import KIND_SHARDED, read_manifest

        self.snapshot = Path(snapshot)
        manifest = read_manifest(self.snapshot)
        if manifest.get("kind") != KIND_SHARDED:
            raise ValueError(
                f"{snapshot} is not a sharded snapshot; build one with "
                "ShardedANNIndex.build(...).save(...)"
            )
        self.shard_dirs = [self.snapshot / d for d in manifest["shards"]]
        if replicas < 1:
            raise ValueError(f"need >= 1 replica, got {replicas}")
        self.replicas = int(replicas)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.load_mode = str(load_mode)
        self.kernel = kernel
        self.workdir = Path(workdir) if workdir else Path(
            tempfile.mkdtemp(prefix="repro-fleet-")
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.processes: List[List[ManagedProcess]] = []
        self.respawns = 0
        self._stopping = False

    @property
    def num_shards(self) -> int:
        return len(self.shard_dirs)

    def _build(self) -> None:
        self.processes = []
        for si, shard_dir in enumerate(self.shard_dirs):
            group = []
            for ri in range(self.replicas):
                name = f"shard{si}r{ri}"
                argv = [
                    sys.executable,
                    "-m",
                    "repro",
                    "shard-serve",
                    "--index",
                    str(shard_dir),
                    "--shard",
                    str(si),
                    "--host",
                    "127.0.0.1",
                    # start() pins the port bound here for respawns.
                    "--port",
                    "0",
                    "--max-batch",
                    str(self.max_batch),
                    "--max-wait-ms",
                    str(self.max_wait_ms),
                    "--load-mode",
                    self.load_mode,
                    "--ready-file",
                    str(self.workdir / f"{name}.ready"),
                    # Each replica checkpoints into its own directory:
                    # replicas of a shard share the --index snapshot, so
                    # saving back to it from several processes would
                    # rewrite files siblings are serving (fatal under
                    # mmap) and make per-replica snapshot_seq accounting
                    # fictional.  A restart reloads the checkpoint when
                    # one exists.
                    "--snapshot-dir",
                    str(self.workdir / f"{name}.snap"),
                ]
                if self.kernel:
                    argv += ["--kernel", self.kernel]
                group.append(
                    ManagedProcess(
                        name,
                        argv,
                        self.workdir / f"{name}.ready",
                        self.workdir / f"{name}.log",
                    )
                )
            self.processes.append(group)

    def start(self, timeout: float = 60.0) -> List[List]:
        """Spawn every shard server; returns the ``(host, port)`` map
        :class:`~repro.service.cluster.ShardRouter` takes."""
        self._stopping = False
        if not self.processes:
            self._build()
        for group in self.processes:
            for proc in group:
                proc.spawn(timeout=timeout)
                proc.argv[proc.argv.index("--port") + 1] = str(proc.port)
        return [[(p.host, p.port) for p in group] for group in self.processes]

    def check_respawn(self, timeout: float = 30.0) -> int:
        """Respawn every dead replica (same argv: same snapshot, same
        port).  Returns how many came back this sweep; a respawn that
        itself fails is skipped this sweep and retried on the next one."""
        if self._stopping:
            return 0
        respawned = 0
        for group in self.processes:
            for proc in group:
                if proc.proc is None or proc.alive:
                    continue
                try:
                    proc.spawn(timeout=timeout)
                except (ProcessDiedError, TimeoutError, OSError):
                    continue
                respawned += 1
                # Visible immediately: spawn() blocks on the ready
                # handshake, and observers poll this counter while the
                # sweep is still working through the fleet.
                self.respawns += 1
        return respawned

    def stop(self) -> None:
        self._stopping = True
        for group in self.processes:
            for proc in group:
                proc.stop()


class ClusterHarness:
    """R replicas per shard of a sharded snapshot + a router, as processes.

    Parameters
    ----------
    snapshot : directory written by ``ShardedANNIndex.save`` (the
        ``shard-%04d`` subdirectories become the shard servers' indexes;
        all replicas of a shard load the same snapshot, so they start
        bitwise-identical — but each checkpoints into its *own*
        ``--snapshot-dir`` under ``workdir``, never back into here)
    replicas : R, the replication factor
    workdir : where ready-files and logs go (a temp dir by default)
    router_timeout : router→replica request timeout (seconds)
    health_interval : router health-sweep period (seconds) — also the
        order of magnitude a killed replica needs to be revived
    log_dir : router ``--log-dir`` (a durable per-shard WAL there);
        the router always starts with ``--recover``, so
        :meth:`restart_router` resumes from the log exactly where a
        killed router died
    supervise : run a background sweep that auto-respawns dead shard
        servers (:meth:`ShardFleet.check_respawn`); killed replicas
        come back and catch up without an explicit ``restart_replica``

    Use as a context manager::

        with ClusterHarness(snap, replicas=2) as cluster:
            with cluster.connect() as client:
                client.query(bits)
            cluster.kill_replica(0, 1)      # cluster keeps answering
            cluster.restart_replica(0, 1)   # catches up from the log
            cluster.wait_replica_alive(0, 1)
    """

    def __init__(
        self,
        snapshot,
        replicas: int = 2,
        workdir=None,
        router_timeout: float = 2.0,
        health_interval: float = 0.2,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        load_mode: str = "heap",
        log_dir=None,
        supervise: bool = False,
        supervise_interval: float = 0.25,
    ):
        self.snapshot = Path(snapshot)
        self.router_timeout = float(router_timeout)
        self.health_interval = float(health_interval)
        self._own_workdir = workdir is None
        self.workdir = Path(workdir) if workdir else Path(
            tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.fleet = ShardFleet(
            snapshot,
            replicas=replicas,
            workdir=self.workdir,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            load_mode=load_mode,
        )
        self.replicas = self.fleet.replicas
        self.shard_dirs = self.fleet.shard_dirs
        self.log_dir = Path(log_dir) if log_dir else None
        self.supervise = bool(supervise)
        self.supervise_interval = float(supervise_interval)
        self.router: Optional[ManagedProcess] = None
        self._supervise_thread = None
        self._supervise_stop = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shard_dirs)

    @property
    def shard_servers(self) -> List[List[ManagedProcess]]:
        return self.fleet.processes

    @property
    def respawns(self) -> int:
        """Shard servers auto-respawned by the supervision sweep."""
        return self.fleet.respawns

    def start(self, timeout: float = 60.0) -> "ClusterHarness":
        """Spawn every shard server, then the router."""
        try:
            self.fleet.start(timeout=timeout)
            shard_args = []
            for si, group in enumerate(self.shard_servers):
                endpoints = ",".join(f"{p.host}:{p.port}" for p in group)
                shard_args += ["--shard", f"{si}={endpoints}"]
            durability = []
            if self.log_dir is not None:
                # --recover from the start: on a fresh directory it is a
                # no-op, and restart_router() then resumes from the WAL
                # with the exact same argv.
                durability = ["--log-dir", str(self.log_dir), "--recover"]
            self.router = ManagedProcess(
                "router",
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "route",
                    *shard_args,
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--timeout",
                    str(self.router_timeout),
                    "--health-interval",
                    str(self.health_interval),
                    *durability,
                    "--ready-file",
                    str(self.workdir / "router.ready"),
                ],
                self.workdir / "router.ready",
                self.workdir / "router.log",
            )
            self.router.spawn(timeout=timeout)
            if self.supervise:
                self._start_supervision()
        except BaseException:
            self.stop()
            raise
        return self

    def _start_supervision(self) -> None:
        import threading

        self._supervise_stop = threading.Event()

        def sweep() -> None:
            while not self._supervise_stop.wait(self.supervise_interval):
                self.fleet.check_respawn()

        self._supervise_thread = threading.Thread(
            target=sweep, name="cluster-supervise", daemon=True
        )
        self._supervise_thread.start()

    def stop(self) -> None:
        if self._supervise_stop is not None:
            self._supervise_stop.set()
        if self._supervise_thread is not None:
            self._supervise_thread.join(timeout=10)
            self._supervise_thread = None
            self._supervise_stop = None
        if self.router is not None:
            self.router.stop()
        self.fleet.stop()

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- clients -----------------------------------------------------------
    def connect(self, timeout: float = 30.0):
        """A :class:`~repro.service.client.ServiceClient` to the router."""
        from repro.service.client import ServiceClient

        return ServiceClient(self.router.host, self.router.port, timeout=timeout)

    def replica(self, shard: int, replica: int) -> ManagedProcess:
        return self.shard_servers[shard][replica]

    # -- fault injection ---------------------------------------------------
    def kill_replica(self, shard: int, replica: int) -> None:
        self.replica(shard, replica).kill()

    def restart_replica(self, shard: int, replica: int, timeout: float = 30.0) -> None:
        """Respawn a replica from its latest checkpoint (its own snapshot
        directory) or, if it never checkpointed, the original snapshot;
        the router's health loop replays the write-log tail and revives
        it."""
        self.replica(shard, replica).restart(timeout=timeout)

    def kill_router(self) -> None:
        """SIGKILL the router — the crash the WAL exists to survive."""
        self.router.kill()

    def restart_router(self, timeout: float = 30.0) -> float:
        """Kill (if needed) and respawn the router with the same argv.

        With ``log_dir`` set, the argv carries ``--log-dir/--recover``,
        so the new router rebuilds the write log from the WAL segments
        and replays the gap to every replica before it starts serving —
        it may bind a new port (``--port 0``), so reconnect through
        :meth:`connect`.  Returns the wall-clock restart-to-ready time
        (the router-recovery metric E18 records)."""
        start = time.monotonic()
        self.router.restart(timeout=timeout)
        return time.monotonic() - start

    def replica_alive_in_router(self, shard: int, replica: int) -> bool:
        """Whether the router currently routes to this replica."""
        with self.connect(timeout=self.router_timeout + 5) as client:
            stats = client.stats()
        return bool(stats["shards"][shard]["replicas"][replica]["alive"])

    def wait_replica_alive(
        self, shard: int, replica: int, timeout: float = 30.0
    ) -> float:
        """Block until the router marks the replica alive again (i.e.
        catch-up finished).  Returns how long that took — the
        replica-recovery time ``bench_e18_cluster.py`` records."""
        start = time.monotonic()
        deadline = start + timeout
        while time.monotonic() < deadline:
            if self.replica_alive_in_router(shard, replica):
                return time.monotonic() - start
            time.sleep(min(0.05, self.health_interval / 2))
        raise TimeoutError(
            f"replica {shard}/{replica} was not revived within {timeout}s "
            f"(router log: {self.router.log_file})"
        )
