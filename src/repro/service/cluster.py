"""Distributed shard serving: a router over replicated shard servers.

This is the multi-process form of
:class:`~repro.service.sharded.ShardedANNIndex`: each shard's
:class:`~repro.core.index.ANNIndex` runs in its own **shard server**
process (``repro shard-serve``, R replicas per shard), and a
**router** (:class:`ShardRouter`, ``repro route``) owns the shard map,
fans queries out, merges by true Hamming distance with the established
``(distance, global id)`` tie-break, and applies writes to every
replica of the owning shard through a deterministic per-shard
**write log** — so any replica of a shard answers bitwise-identically
to any other, and the whole cluster answers bitwise-identically to a
single-process ``ShardedANNIndex`` given the same seed and write
history (the chaos harness in ``tests/utils/cluster_harness.py`` pins
exactly that, under replica kills).  The id partition, insert routing
and answer merge are the :mod:`repro.service.sharded` functions that
``ShardedANNIndex`` calls, applied to the router's mirror of each shard.

Consistency model (``docs/DISTRIBUTED.md`` for the full matrix):

* Every ``insert``/``delete`` is validated at the router, appended to
  the owning shard's write log (:class:`~repro.service.wal.WriteAheadLog`,
  memory-only or durable under ``--log-dir``) with the next sequence
  number, and then sent to each live replica tagged with that number.
  Replicas admit exactly the next number
  (:class:`~repro.service.server.WriteSequencer`), acknowledge
  duplicates idempotently, and refuse gaps — so replica state is a pure
  function of (snapshot, applied log prefix).
* The log is the truth: once an entry is logged, it *will* reach every
  replica — immediately when live, or by **replay** (entries after the
  replica's last applied number) when it comes back or when a
  recovering router reopens a durable log.  A checkpoint truncates the
  log up to what every replica's snapshot covers.
* A writer-preferring read/write lock gives the cluster the same
  barrier semantics a single :class:`~repro.service.server.AsyncANNService`
  has: queries in flight complete against the pre-write state, the
  write applies to all replicas, later queries see it.

Robustness: per-request timeouts with retry on a sibling replica, a
periodic health loop that marks replicas dead (and routes around them)
and revives them through catch-up, and router metrics (per-replica
p50/p99, retries, dead/alive transitions) surfaced through the ``stats``
verb.  The wire envelope, the listener and the bit-row decoder are
:func:`repro.service.server._answer`, ``_listen`` and
``_decode_bit_rows``, shared with the shard server;
:func:`_handle_router_request` is the router's verb table.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.mutable import coerce_delete_ids
from repro.hamming.kernels import active_kernel
from repro.hamming.packing import unpack_bits
from repro.hamming.points import coerce_rows
from repro.service.replica import (
    AsyncReplicaClient,
    ReplicaRequestError,
    ReplicaUnavailableError,
)
from repro.service.server import _decode_bit_rows, _listen
from repro.service.sharded import (
    locate,
    merge_shard_answers,
    route_inserts,
    shard_label,
    shard_offsets,
)
from repro.service.wal import WriteAheadLog

__all__ = [
    "ClusterError",
    "ShardRouter",
    "ShardUnavailableError",
    "parse_shard_map",
    "serve_router",
]

#: Router defaults, shared with the CLI's ``route`` flags.
DEFAULT_TIMEOUT_S = 5.0
DEFAULT_HEALTH_INTERVAL_S = 0.5


class ClusterError(RuntimeError):
    """Cluster-level failure (misconfiguration, replica divergence)."""


class ShardUnavailableError(ClusterError):
    """No replica of a shard could serve the request."""


def parse_shard_map(specs: Sequence[str]) -> List[List[Tuple[str, int]]]:
    """Parse CLI ``--shard`` specs into an ordered replica map.

    Each spec is ``INDEX=HOST:PORT[,HOST:PORT...]``; indexes must cover
    ``0..S-1`` exactly once.  Returns ``map[shard] = [(host, port), ...]``.
    """
    if not specs:
        raise ValueError("need at least one --shard INDEX=HOST:PORT[,...] spec")
    parsed: Dict[int, List[Tuple[str, int]]] = {}
    for spec in specs:
        head, eq, rest = spec.partition("=")
        if not eq:
            raise ValueError(f"malformed shard spec {spec!r}: missing '='")
        try:
            shard = int(head)
        except ValueError:
            raise ValueError(f"malformed shard spec {spec!r}: {head!r} is not an index")
        if shard in parsed:
            raise ValueError(f"shard {shard} specified twice")
        replicas: List[Tuple[str, int]] = []
        for endpoint in rest.split(","):
            host, colon, port = endpoint.strip().rpartition(":")
            if not colon or not host:
                raise ValueError(
                    f"malformed endpoint {endpoint!r} in shard spec {spec!r}"
                )
            try:
                replicas.append((host, int(port)))
            except ValueError:
                raise ValueError(
                    f"malformed port in endpoint {endpoint!r} of shard spec {spec!r}"
                )
        parsed[shard] = replicas
    expected = set(range(len(parsed)))
    if set(parsed) != expected:
        raise ValueError(
            f"shard indexes must cover 0..{len(parsed) - 1}, got {sorted(parsed)}"
        )
    return [parsed[i] for i in range(len(parsed))]


class _ReadWriteLock:
    """Writer-preferring async read/write lock.

    Reads (queries) run concurrently; a write waits for in-flight reads
    and blocks new ones — the cluster-wide analogue of the
    single-service FIFO barrier, at read/write granularity.
    """

    def __init__(self):
        self._readers = 0
        self._writers_waiting = 0
        self._writer_active = False
        self._cond = asyncio.Condition()

    @asynccontextmanager
    async def read_locked(self):
        async with self._cond:
            while self._writer_active or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @asynccontextmanager
    async def write_locked(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass
class _Replica:
    """Router-side view of one shard-server process."""

    shard: int
    client: AsyncReplicaClient
    alive: bool = False
    dead_transitions: int = 0
    alive_transitions: int = 0

    def metrics(self) -> dict:
        return {
            **self.client.metrics(),
            "alive": self.alive,
            "dead_transitions": self.dead_transitions,
            "alive_transitions": self.alive_transitions,
        }


@dataclass
class _Mirror:
    """Router-side mirror of one shard's (live rows, allocated id space).

    Seeded from ``info`` at startup and updated from every write ack —
    the router never reimplements compaction, it just trusts the
    replicas' deterministic answers.
    """

    live: int
    id_space: int


class ShardRouter:
    """The coordinator: shard map owner, query merger, write sequencer.

    Parameters
    ----------
    shard_map : ``map[shard] = [(host, port), ...]`` — every replica of
        every shard (see :func:`parse_shard_map`)
    timeout : per-request timeout (seconds) for replica calls; a replica
        that misses it is marked dead and the request retries on a
        sibling
    health_interval : seconds between health-check sweeps (ping live
        replicas, revive dead ones via catch-up)
    log_dir : directory that makes the write log (:attr:`log`) durable
        — every write is fsync'd to its shard's segment before any
        replica sees it; None keeps the log in memory only.  Either
        way ``snapshot`` truncates it up to the replicas' persisted
        coverage
    recover : rebuild the write log from existing segments under
        ``log_dir`` at :meth:`start` and replay the gap to every lagging
        replica (requires ``log_dir``); without it, pre-existing
        segments are an error — silently appending to a log the router
        has not read would fork history

    Use ``await router.start()`` / ``await router.stop()``, or serve it
    over the wire with :func:`serve_router`.
    """

    def __init__(
        self,
        shard_map: Sequence[Sequence[Tuple[str, int]]],
        timeout: float = DEFAULT_TIMEOUT_S,
        health_interval: float = DEFAULT_HEALTH_INTERVAL_S,
        log_dir: Optional[str] = None,
        recover: bool = False,
    ):
        if not shard_map or any(not replicas for replicas in shard_map):
            raise ValueError("every shard needs at least one replica endpoint")
        if recover and log_dir is None:
            raise ValueError("recover=True needs a log_dir (--log-dir)")
        self.timeout = float(timeout)
        self.health_interval = float(health_interval)
        #: Every shard's write log: its base, its entries, and (with a
        #: ``log_dir``) the durable segments — the router's only copy.
        self.log = WriteAheadLog(log_dir)
        self._recover = bool(recover)
        self._replicas: List[List[_Replica]] = [
            [
                _Replica(si, AsyncReplicaClient(host, port, timeout=self.timeout))
                for host, port in replicas
            ]
            for si, replicas in enumerate(shard_map)
        ]
        self._mirror: List[_Mirror] = []
        # Last snapshot coverage each replica reported (seeded at start,
        # updated by the snapshot verb and catch-up) — the log may only
        # truncate up to the minimum across a shard's replicas.
        self._snapshot_seq: List[List[int]] = [
            [0] * len(group) for group in self._replicas
        ]
        self._rotation: List[int] = [0 for _ in self._replicas]
        self._lock = _ReadWriteLock()
        self._health_task: Optional["asyncio.Task"] = None
        self.d: Optional[int] = None
        self._inner_scheme: Optional[str] = None
        self._started_at = 0.0
        self._counters: Dict[str, int] = {
            key: 0
            for key in (
                "queries",
                "query_batches",
                "batched_queries",
                "inserts",
                "deletes",
                "retries",
                "dead_transitions",
                "alive_transitions",
                "catch_ups",
                "replayed_writes",
                "write_rejects",
                "divergence",
                "recoveries",
                "recovered_writes",
                "respawns",
                "checkpoints",
            )
        }

    # -- topology ----------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._replicas)

    @property
    def scheme_label(self) -> str:
        """Same label single-process merged results carry."""
        return shard_label(self._inner_scheme, self.num_shards)

    def _id_spaces(self) -> List[int]:
        return [m.id_space for m in self._mirror]

    def _totals(self) -> dict:
        """The cluster's live rows and allocated id space (from the mirror)."""
        return {"live": sum(m.live for m in self._mirror), "id_space": sum(self._id_spaces())}

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "ShardRouter":
        """Probe every replica, build the shard mirror, start health checks.

        Raises :class:`ClusterError` when a shard has no reachable
        replica, when reachable replicas of one shard disagree on their
        applied write sequence or state (they must be bitwise equal), or
        when a replica reports a different shard id than the map says.

        In ``recover`` mode, the write log is first rebuilt from the
        on-disk segments and the gap (entries past each replica's applied
        sequence — including writes that were logged but unconfirmed
        when the previous router died) is replayed to every reachable
        replica, so the strict agreement check below runs against the
        *recovered* state.  Otherwise each shard's log starts empty at
        its replicas' agreed sequence.
        """
        recovered = self._recover and self.log.has_segments
        if recovered:
            self.log.open_segments(self.num_shards)
        elif self.log.has_segments:
            raise ClusterError(
                f"{self.log.log_dir} already holds WAL segments; pass "
                "--recover to replay them or point --log-dir at a fresh "
                "directory"
            )
        infos = await asyncio.gather(
            *(
                replica.client.request("info", timeout=self.timeout)
                for group in self._replicas
                for replica in group
            ),
            return_exceptions=True,
        )
        flat = [replica for group in self._replicas for replica in group]
        by_replica = dict(zip((id(r) for r in flat), infos))
        self._mirror = []
        bases: List[int] = []
        dims = set()
        for si, group in enumerate(self._replicas):
            reachable: List[Tuple[_Replica, dict]] = []
            for replica in group:
                info = by_replica[id(replica)]
                if isinstance(info, Exception):
                    replica.alive = False
                    continue
                reported = info.get("replication", {}).get("shard")
                if reported is not None and int(reported) != si:
                    raise ClusterError(
                        f"replica {replica.client.address} serves shard "
                        f"{reported}, but the map lists it under shard {si}"
                    )
                reachable.append((replica, info))
            if not reachable:
                raise ClusterError(f"shard {si} has no reachable replica")
            if recovered:
                reachable = await self._recover_shard(reachable)
            states = {
                (
                    int(info["replication"]["last_seq"]),
                    int(info["index"]["n"]),
                    int(info["index"]["id_space"]),
                )
                for _, info in reachable
            }
            if len(states) != 1:
                raise ClusterError(
                    f"replicas of shard {si} disagree on their state: "
                    f"{sorted(states)} — rebuild them from one snapshot"
                )
            last_seq, live, id_space = states.pop()
            if recovered and last_seq != self.log.head(si):
                raise ClusterError(
                    f"shard {si} replicas sit at seq {last_seq} after "
                    f"recovery, the log head is {self.log.head(si)}"
                )
            base = self.log.base(si) if recovered else last_seq
            bases.append(base)
            self._mirror.append(_Mirror(live=live, id_space=id_space))
            dims.add(int(reachable[0][1]["index"]["d"]))
            if si == 0:
                self._inner_scheme = str(reachable[0][1]["index"]["scheme"])
            reached = {id(replica) for replica, _ in reachable}
            for ri, replica in enumerate(group):
                if id(replica) not in reached:
                    # Unreachable: its snapshot coverage is unknown.
                    # Pin it at the log base so truncation cannot pass
                    # entries this replica may still need for catch-up.
                    self._snapshot_seq[si][ri] = base
            for replica, info in reachable:
                replica.alive = True
                ri = group.index(replica)
                reported = info.get("replication", {}).get("snapshot_seq")
                self._snapshot_seq[si][ri] = (
                    int(reported) if reported is not None else base
                )
        if len(dims) != 1:
            raise ClusterError(f"shards disagree on dimension: {sorted(dims)}")
        self.d = dims.pop()
        if not recovered:
            self.log.create_segments(bases)
        self._started_at = time.monotonic()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="router-health"
        )
        return self

    async def _recover_shard(
        self, reachable: List[Tuple[_Replica, dict]]
    ) -> List[Tuple[_Replica, dict]]:
        """Replay the recovered log to one shard's replicas, then re-probe
        them so the caller's agreement check sees post-replay state.
        (A replica's sequencer acks already-applied numbers
        idempotently, so one that raced ahead of the last ack is safe.)"""
        for replica, info in reachable:
            replayed = await self._replay(replica, int(info["replication"]["last_seq"]))
            if replayed:
                self._counters["recoveries"] += 1
                self._counters["recovered_writes"] += replayed
        fresh = await asyncio.gather(
            *(
                replica.client.request("info", timeout=self.timeout)
                for replica, _ in reachable
            )
        )
        return [(replica, info) for (replica, _), info in zip(reachable, fresh)]

    async def _replay(self, replica: _Replica, last: int) -> int:
        """Send ``replica`` its shard's log entries past seq ``last``, in
        order; returns how many.  Router recovery and catch-up both
        replay through here.

        A replica ahead of the log head means the log is stale (wrong
        directory, or writes went through another router); one behind
        the log base has a snapshot older than the log's truncation
        point.  Both are refused before anything is sent — refusing
        loudly beats silently forking history.
        """
        si = replica.shard
        base, head = self.log.base(si), self.log.head(si)
        if last > head:
            raise ClusterError(
                f"replica {replica.client.address} applied seq {last}, "
                f"ahead of shard {si}'s log head {head} — stale router or "
                "foreign log"
            )
        if last < base:
            raise ClusterError(
                f"replica {replica.client.address} is at seq {last}, behind "
                f"shard {si}'s log base {base}; its snapshot predates the "
                "log's truncation point — restart it from a newer snapshot"
            )
        entries = self.log.entries(si)[last - base:]
        for entry in entries:
            await replica.client.request(
                entry["op"], timeout=self.timeout, seq=entry["seq"], **entry["payload"]
            )
        return len(entries)

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for group in self._replicas:
            for replica in group:
                await replica.client.close()
        self.log.close()

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- replica plumbing --------------------------------------------------
    def _mark_dead(self, replica: _Replica) -> None:
        if replica.alive:
            replica.alive = False
            replica.dead_transitions += 1
            self._counters["dead_transitions"] += 1

    def _mark_alive(self, replica: _Replica) -> None:
        if not replica.alive:
            replica.alive = True
            replica.alive_transitions += 1
            self._counters["alive_transitions"] += 1

    async def _request(
        self, replica: _Replica, op: str, payload: dict, timeout: Optional[float] = None
    ) -> dict:
        """One replica call; transport failure marks the replica dead."""
        try:
            return await replica.client.request(op, timeout=timeout, **payload)
        except ReplicaUnavailableError:
            self._mark_dead(replica)
            raise

    def _read_order(self, si: int) -> List[_Replica]:
        """Live replicas of a shard, rotated for load spread."""
        alive = [replica for replica in self._replicas[si] if replica.alive]
        if not alive:
            return []
        start = self._rotation[si] % len(alive)
        self._rotation[si] += 1
        return alive[start:] + alive[:start]

    async def _shard_read(self, si: int, op: str, payload: dict) -> dict:
        """A read against shard ``si``: retry on siblings.

        Only *live* replicas serve reads — a dead replica may be missing
        writes and would break bitwise equivalence.
        """
        order = self._read_order(si)
        if not order:
            raise ShardUnavailableError(f"shard {si} has no live replicas")
        last_exc: Optional[Exception] = None
        for attempt, replica in enumerate(order):
            if not replica.alive:  # marked dead by a concurrent request
                continue
            if attempt > 0:
                self._counters["retries"] += 1
            try:
                return await self._request(replica, op, payload)
            except ReplicaUnavailableError as exc:
                last_exc = exc
        raise ShardUnavailableError(
            f"shard {si}: no replica answered {op!r} ({last_exc})"
        )

    # -- the write log -----------------------------------------------------
    async def _replicated_write(self, si: int, op: str, payload: dict, seq: int) -> dict:
        """Send one logged write to every live replica of its shard.

        Succeeds with the first clean ack (all replicas answer
        identically — checked; a mismatch counts as divergence).  A
        replica that rejects the write (sequence gap: it silently missed
        something) is quarantined for catch-up.  When *no* replica
        acks, the entry stays in the log — every replica will apply it
        on catch-up — but the caller gets an error, because the write
        cannot be confirmed (``docs/DISTRIBUTED.md``, failure matrix).
        """
        targets = [replica for replica in self._replicas[si] if replica.alive]
        results = await asyncio.gather(
            *(
                self._request(replica, op, {**payload, "seq": seq})
                for replica in targets
            ),
            return_exceptions=True,
        )
        ack: Optional[dict] = None
        for replica, result in zip(targets, results):
            if isinstance(result, ReplicaRequestError):
                # Deterministic rejection after router-side validation
                # means the replica's sequencer refused a gap: it missed
                # a write while marked alive.  Quarantine + catch up.
                self._counters["write_rejects"] += 1
                self._mark_dead(replica)
            elif isinstance(result, Exception):
                pass  # transport failure; _request already marked it dead
            elif ack is None:
                ack = result
            elif not result.get("duplicate") and (
                result.get("ids") != ack.get("ids")
                or result.get("live") != ack.get("live")
                or result.get("id_space") != ack.get("id_space")
            ):
                self._counters["divergence"] += 1
        if ack is None:
            raise ShardUnavailableError(
                f"shard {si}: write seq {seq} reached no live replica "
                "(logged; replicas will catch up, but the write is unconfirmed)"
            )
        return ack

    # -- queries -----------------------------------------------------------
    def _merged_response(self, responses: Sequence[dict], offsets: Sequence[int]) -> dict:
        """One query's per-shard wire responses as one response: probes
        fold round by round (parallel shards), and the shard answers go
        through :func:`~repro.service.sharded.merge_shard_answers`."""
        answers = []
        for si, response in enumerate(responses):
            if response.get("answer_index") is None:
                answers.append(None)
                continue
            if response.get("distance") is None:
                raise ClusterError(
                    f"shard {si} answered without a distance field; "
                    "its server predates distributed serving"
                )
            answers.append((response["distance"], response["answer_index"], response.get("meta", {})))
        probes_per_round = [
            sum(int(p) for p in column)
            for column in itertools.zip_longest(
                *(response.get("probes_per_round", []) for response in responses),
                fillvalue=0,
            )
        ]
        si, global_id, meta = merge_shard_answers(answers, offsets, self._inner_scheme)
        return {
            "ok": True,
            "answered": si is not None,
            "answer_index": global_id,
            "probes": sum(probes_per_round),
            "rounds": sum(1 for p in probes_per_round if p > 0),
            "probes_per_round": probes_per_round,
            "scheme": self.scheme_label,
            "distance": None if si is None else meta["distance"],
            "meta": meta,
        }

    async def query(self, bits) -> dict:
        """One query through every shard; best true distance wins.

        ``bits`` is a wire value, a JSON bit array: it is checked here
        and forwarded to the shards as it came."""
        coerce_rows([_decode_bit_rows(bits)], self.d)  # refuse before the fan-out
        async with self._lock.read_locked():
            offsets = shard_offsets(self._id_spaces())
            responses = await asyncio.gather(
                *(
                    self._shard_read(si, "query", {"bits": bits})
                    for si in range(self.num_shards)
                )
            )
            self._counters["queries"] += 1
            return self._merged_response(responses, offsets)

    async def query_batch(self, queries) -> List[dict]:
        """A whole batch through every shard's batched path, then merge."""
        if not isinstance(queries, list) or not queries:
            raise ValueError(
                "'query_batch' needs a non-empty 'queries' list of bit rows"
            )
        count = coerce_rows(_decode_bit_rows(queries), self.d).shape[0]
        async with self._lock.read_locked():
            offsets = shard_offsets(self._id_spaces())
            per_shard = await asyncio.gather(
                *(
                    self._shard_read(si, "query_batch", {"queries": queries})
                    for si in range(self.num_shards)
                )
            )
            self._counters["query_batches"] += 1
            self._counters["batched_queries"] += count
            return [
                self._merged_response(
                    [response["results"][qi] for response in per_shard], offsets
                )
                for qi in range(count)
            ]

    # -- writes ------------------------------------------------------------
    def _write_response(self, **fields) -> dict:
        return {"ok": True, **fields, **self._totals()}

    async def _write_shards(self, op: str, payloads: Dict[int, dict]) -> Dict[int, dict]:
        """Log one write per shard, send each to the shard's live replicas,
        and return every shard's ack; the mirror follows each ack.  All
        entries are logged before any is sent (durably first, with a
        ``log_dir`` — no replica may see a write the log could lose), and
        the first failure is raised once every write has settled."""
        seqs = {si: self.log.append(si, op, payload) for si, payload in payloads.items()}
        results = await asyncio.gather(
            *(
                self._replicated_write(si, op, payload, seqs[si])
                for si, payload in payloads.items()
            ),
            return_exceptions=True,
        )
        for si, result in zip(payloads, results):
            if not isinstance(result, Exception):
                self._mirror[si] = _Mirror(int(result["live"]), int(result["id_space"]))
        for result in results:
            if isinstance(result, Exception):
                raise result
        return dict(zip(payloads, results))

    async def insert(self, points) -> dict:
        """Insert bit rows, routed by
        :func:`~repro.service.sharded.route_inserts` against the mirror's
        live counts; returned global ids are computed against the
        post-insert offsets.  ``points`` is a wire value, JSON bit rows."""
        rows = coerce_rows(_decode_bit_rows(points), self.d)
        async with self._lock.write_locked():
            if rows.shape[0] == 0:
                return self._write_response(ids=[])
            routing = route_inserts(
                [mirror.live for mirror in self._mirror], rows.shape[0]
            )
            routed: List[List[list]] = [[] for _ in range(self.num_shards)]
            for (si, _), bits in zip(routing, unpack_bits(rows, self.d).tolist()):
                routed[si].append(bits)
            acks = await self._write_shards(
                "insert",
                {si: {"points": batch} for si, batch in enumerate(routed) if batch},
            )
            offsets = shard_offsets(self._id_spaces())
            self._counters["inserts"] += 1
            return self._write_response(
                ids=[offsets[si] + int(acks[si]["ids"][pos]) for si, pos in routing]
            )

    async def delete(self, ids) -> dict:
        """Delete by global id, pre-validated across every shard.

        As in ``ShardedANNIndex.delete``, all ids are located through
        the current offsets (:func:`~repro.service.sharded.locate`) and
        checked live (via the ``check_ids`` verb on a live replica)
        *before* anything is logged, so a bad id leaves the whole
        cluster unchanged.
        """
        id_arr = coerce_delete_ids(ids)
        async with self._lock.write_locked():
            if id_arr.size == 0:
                return self._write_response(deleted=0)
            id_spaces = self._id_spaces()
            offsets = shard_offsets(id_spaces)
            per_shard: List[List[Tuple[int, int]]] = [
                [] for _ in range(self.num_shards)
            ]
            for gid in id_arr:
                si, local = locate(gid, offsets, id_spaces)
                per_shard[si].append((int(gid), local))
            for si, pairs in enumerate(per_shard):
                if not pairs:
                    continue
                check = await self._shard_read(
                    si, "check_ids", {"ids": [local for _, local in pairs]}
                )
                for (gid, _), is_live in zip(pairs, check["live"]):
                    if not is_live:
                        raise ValueError(f"id {gid} is already deleted")
            await self._write_shards(
                "delete",
                {
                    si: {"ids": [local for _, local in pairs]}
                    for si, pairs in enumerate(per_shard)
                    if pairs
                },
            )
            self._counters["deletes"] += 1
            return self._write_response(deleted=int(id_arr.size))

    # -- checkpointing -----------------------------------------------------
    async def snapshot(self) -> dict:
        """Checkpoint: every live replica snapshots to its own snapshot
        directory, then each shard's log truncates up to the minimum
        persisted coverage.

        Runs under the write lock, so every replica saves the same
        applied prefix.  A dead replica keeps its last known coverage —
        truncation never passes entries it may still need for catch-up.
        Replicas started without a default snapshot directory reject
        the bare ``snapshot`` verb; they simply keep their old coverage
        (and pin truncation) rather than failing the checkpoint.
        """
        async with self._lock.write_locked():
            saved: List[dict] = []
            for si, group in enumerate(self._replicas):
                for ri, replica in enumerate(group):
                    if not replica.alive:
                        continue
                    try:
                        ack = await self._request(replica, "snapshot", {})
                    except ReplicaUnavailableError:
                        continue  # marked dead; coverage stays pinned
                    except ReplicaRequestError as exc:
                        saved.append(
                            {
                                "shard": si,
                                "replica": replica.client.address,
                                "error": str(exc),
                            }
                        )
                        continue
                    self._snapshot_seq[si][ri] = int(ack.get("write_seq", 0))
                    saved.append(
                        {
                            "shard": si,
                            "replica": replica.client.address,
                            "path": ack.get("path"),
                            "write_seq": self._snapshot_seq[si][ri],
                        }
                    )
            truncated = [
                self.log.truncate(si, min(seqs))
                for si, seqs in enumerate(self._snapshot_seq)
            ]
            self._counters["checkpoints"] += 1
            return {
                "ok": True,
                "replicas": saved,
                "truncated": truncated,
                "write_seq": [min(seqs) for seqs in self._snapshot_seq],
            }

    # -- health + catch-up -------------------------------------------------
    async def _catch_up(self, replica: _Replica) -> None:
        """Replay the write-log tail to a recovered replica, then revive it.

        Runs under the write lock, so the log cannot grow mid-replay:
        after the replay the replica has applied exactly the log head
        and is bitwise-identical to its live siblings.  Duplicate
        sequence numbers (writes the replica applied from its socket
        buffer before dying) are acked idempotently by its sequencer.
        """
        si = replica.shard
        async with self._lock.write_locked():
            info = await replica.client.request("info", timeout=self.timeout)
            reported = info.get("replication", {}).get("snapshot_seq")
            if reported is not None:
                ri = self._replicas[si].index(replica)
                self._snapshot_seq[si][ri] = int(reported)
            replayed = await self._replay(replica, int(info["replication"]["last_seq"]))
            self._counters["catch_ups"] += 1
            self._counters["replayed_writes"] += replayed
            self._mark_alive(replica)

    async def _health_loop(self) -> None:
        """Ping live replicas (mark dead on failure); revive dead ones."""
        while True:
            await asyncio.sleep(self.health_interval)

            async def check(replica: _Replica) -> None:
                try:
                    if replica.alive:
                        await replica.client.request("ping", timeout=self.timeout)
                    else:
                        await self._catch_up(replica)
                except (ReplicaUnavailableError, ReplicaRequestError):
                    self._mark_dead(replica)
                except ClusterError:
                    pass  # unrecoverable by replay; stays dead, stays counted

            await asyncio.gather(
                *(
                    check(replica)
                    for group in self._replicas
                    for replica in group
                ),
                return_exceptions=True,
            )

    # -- introspection -----------------------------------------------------
    async def describe(self) -> dict:
        """The router's ``info`` response body (index + cluster views)."""
        async with self._lock.read_locked():
            generations: List[Optional[int]] = []
            for si in range(self.num_shards):
                try:
                    info = await self._shard_read(si, "info", {})
                    shard_gens = info["index"].get("generations") or [None]
                    generations.append(shard_gens[0])
                except ClusterError:
                    generations.append(None)
            totals = self._totals()
            return {
                "index": {
                    "n": totals["live"],
                    "d": self.d,
                    "scheme": self.scheme_label,
                    "shards": self.num_shards,
                    "generations": generations,
                    "id_space": totals["id_space"],
                    "spec": None,
                    "kernel": active_kernel(),
                },
                "policy": None,
                "cluster": self._topology(),
            }

    def _topology(self) -> dict:
        return {
            "shards": [
                {
                    "shard": si,
                    "replicas": [r.client.address for r in group],
                    "alive": [r.alive for r in group],
                    "log_base": self.log.base(si),
                    "log_head": self.log.head(si),
                    "live": self._mirror[si].live if self._mirror else None,
                    "id_space": self._mirror[si].id_space if self._mirror else None,
                }
                for si, group in enumerate(self._replicas)
            ],
            "timeout_s": self.timeout,
            "health_interval_s": self.health_interval,
            "wal": self.log.describe(),
        }

    def record_respawns(self, count: int) -> None:
        """Credit supervisor-driven replica respawns to the stats counters."""
        self._counters["respawns"] += int(count)

    def stats(self) -> dict:
        """Router counters + per-replica latency/failure metrics."""
        uptime = time.monotonic() - self._started_at if self._started_at else 0.0
        return {
            "role": "router",
            "kernel": active_kernel(),
            **self._counters,
            "wal_appends": self.log.appends,
            "wal_truncations": self.log.truncations,
            "uptime_s": round(uptime, 3),
            "wal": self.log.describe(),
            "shards": [
                {
                    "shard": si,
                    "log_head": self.log.head(si),
                    "replicas": [replica.metrics() for replica in group],
                }
                for si, group in enumerate(self._replicas)
            ],
        }


# -- the wire layer --------------------------------------------------------
async def _handle_router_request(router: ShardRouter, request: dict) -> dict:
    """One router request's response: the shard server's protocol (and
    error contract, through :func:`repro.service.server._answer`),
    dispatched to the router instead of a local service."""
    op = request.get("op")
    if op == "query":
        bits = request.get("bits")
        if bits is None:
            raise ValueError("'query' needs a 'bits' array of 0/1 values")
        return await router.query(bits)
    if op == "query_batch":
        return {"ok": True, "results": await router.query_batch(request.get("queries"))}
    if op == "insert":
        points = request.get("points")
        if not points:
            raise ValueError("'insert' needs a non-empty 'points' list of bit rows")
        return await router.insert(points)
    if op == "delete":
        ids = request.get("ids")
        if not ids:
            raise ValueError("'delete' needs a non-empty 'ids' list")
        return await router.delete(ids)
    if op == "snapshot":
        if request.get("path") is not None:
            raise ValueError(
                "the router checkpoints each replica to its own "
                "snapshot directory; 'snapshot' takes no 'path' here "
                "(snapshot a shard server directly to save elsewhere)"
            )
        return await router.snapshot()
    if op == "stats":
        return {"ok": True, "stats": router.stats()}
    if op == "info":
        return {"ok": True, **await router.describe()}
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "shutdown":
        return {"ok": True, "stopping": True}
    raise ValueError(f"unknown op {op!r}")


async def serve_router(
    shard_map: Sequence[Sequence[Tuple[str, int]]],
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = DEFAULT_TIMEOUT_S,
    health_interval: float = DEFAULT_HEALTH_INTERVAL_S,
    ready_cb: Optional[Callable[[str, int], None]] = None,
    log_dir: Optional[str] = None,
    recover: bool = False,
    supervisor: Optional[Callable[[], int]] = None,
    supervise_interval: float = 1.0,
) -> None:
    """Serve a :class:`ShardRouter` over TCP until ``shutdown``.

    Clients speak to it exactly like to a single ``repro serve``
    process — :class:`~repro.service.client.ServiceClient` works
    unchanged — but every answer is merged from the shard servers in
    ``shard_map``.  ``ready_cb(host, port)`` fires once listening (the
    CLI writes ``--ready-file`` from it).

    ``log_dir`` makes the write log durable (one WAL segment per shard
    there); ``recover`` replays existing segments at startup.
    ``supervisor`` is a callable returning the number of shard-server
    processes it respawned this sweep — it runs in an executor every
    ``supervise_interval`` seconds (it blocks on process management),
    and its count lands in the router's ``respawns`` stat; the health
    loop then catches the respawned replicas up by replay.
    """
    router = ShardRouter(
        shard_map,
        timeout=timeout,
        health_interval=health_interval,
        log_dir=log_dir,
        recover=recover,
    )
    await router.start()

    async def supervise() -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(supervise_interval)
            respawned = await loop.run_in_executor(None, supervisor)
            if respawned:
                router.record_respawns(respawned)

    supervise_task = None
    if supervisor is not None:
        supervise_task = asyncio.get_running_loop().create_task(
            supervise(), name="router-supervise"
        )
    try:
        await _listen(
            lambda request: _handle_router_request(router, request), host, port, ready_cb
        )
    finally:
        if supervise_task is not None:
            supervise_task.cancel()
            try:
                await supervise_task
            except asyncio.CancelledError:
                pass
        await router.stop()
