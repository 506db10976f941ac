"""Online serving: adaptive micro-batching over the batched engine.

:class:`AsyncANNService` is the request loop the ROADMAP's "heavy
traffic" north star asks for.  Queries arrive *one at a time* (each
``await service.query(x)`` is one request); a single batcher task
coalesces whatever is waiting into micro-batches under a two-knob
policy — flush when ``max_batch`` requests are pending **or** when the
oldest pending request has waited ``max_wait_ms``, whichever comes
first — and executes each flush through the index's existing batched
path (:meth:`~repro.core.index.ANNIndex.query_batch`, i.e. the
:class:`~repro.service.engine.BatchQueryEngine`; for a
:class:`~repro.service.sharded.ShardedANNIndex` the same call fans out
across shards and merges by true distance).  Each request's future
resolves with the ordinary :class:`~repro.core.result.QueryResult`,
per-query probe/round accounting included.

Because ``query_batch`` is bitwise-equivalent to a sequential ``query``
loop *per query, independent of batch composition*, any interleaving of
requests into micro-batches returns exactly the answers a sequential
loop would — ``tests/service/test_async_service.py`` asserts this over
random arrival patterns, and ``docs/SERVING.md`` documents the
latency/throughput trade-off the two knobs span.

The service also accepts **writes**: ``await service.insert(points)``
and ``await service.delete(ids)`` enter the same FIFO queue as queries
and act as *barriers* — the batcher never mixes a write into a query
micro-batch.  Queries enqueued before a write flush (and resolve) from
the pre-write index state; the write then applies atomically between
batches; queries enqueued after it see the post-write state.  Because
the queue is drained by a single batcher task, this linearizes every
request at micro-batch granularity — concurrent readers never observe a
half-applied write or a mid-compaction structure (``docs/SERVING.md``
documents the consistency model).

The module also speaks the wire: :func:`serve` runs an asyncio TCP
server whose protocol is newline-delimited JSON (one request object per
line, one response object per line; see ``docs/SERVING.md`` for the
exact shapes), with verbs ``query``, ``insert``, ``delete``, ``stats``,
``info``, ``ping`` and ``shutdown``.  ``python -m repro serve --index
DIR`` is the CLI entry; :class:`~repro.service.client.ServiceClient` is
the matching synchronous client.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.mutable import coerce_delete_ids
from repro.hamming.distance import hamming_distance
from repro.hamming.kernels import active_kernel
from repro.hamming.points import coerce_rows

__all__ = [
    "AsyncANNService",
    "ServiceMetrics",
    "ServiceStateError",
    "WriteSequencer",
    "describe_index",
    "serve",
]

#: Default policy knobs, shared with the CLI's ``serve`` flags.
DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_WAIT_MS = 2.0


class ServiceStateError(RuntimeError):
    """A request hit the service in a lifecycle state that cannot take it
    (not started, already started, or draining for shutdown).

    Subclasses :class:`RuntimeError` so pre-existing callers that caught
    the untyped form keep working.
    """


@dataclass(frozen=True)
class ServiceMetrics:
    """A point-in-time snapshot of one service's counters.

    Latency percentiles are over a bounded window of the most recent
    requests (arrival → result, in milliseconds); the totals reconcile
    exactly with the per-flush :class:`~repro.service.engine.BatchStats`
    — ``total_probes``/``total_rounds``/``prefetched_cells`` are sums of
    the per-flush stats, ``requests`` is the sum of flush batch sizes —
    which is what ``tests/service/test_async_service.py`` checks.
    """

    requests: int
    in_flight: int
    batches: int
    writes: int
    inserts: int
    deletes: int
    mean_batch: float
    max_observed_batch: int
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    probes_per_query: float
    total_probes: int
    total_rounds: int
    total_sweeps: int
    prefetched_cells: int
    uptime_s: float
    max_batch: int
    max_wait_ms: float

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "in_flight": self.in_flight,
            "batches": self.batches,
            "writes": self.writes,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "mean_batch": round(self.mean_batch, 3),
            "max_observed_batch": self.max_observed_batch,
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "probes_per_query": round(self.probes_per_query, 2),
            "total_probes": self.total_probes,
            "total_rounds": self.total_rounds,
            "total_sweeps": self.total_sweeps,
            "prefetched_cells": self.prefetched_cells,
            "uptime_s": round(self.uptime_s, 3),
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
        }


def _percentile(sorted_ms: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_ms:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_ms)))
    return sorted_ms[min(rank, len(sorted_ms)) - 1]


class _PendingQuery(NamedTuple):
    row: np.ndarray
    future: "asyncio.Future"
    arrival: float


class _PendingWrite(NamedTuple):
    """A queued mutation: a barrier in the request FIFO."""

    op: str  # "insert" | "delete" | "call"
    payload: object  # packed (m, W) rows, a list of global ids, or a callable
    future: "asyncio.Future"
    arrival: float


def describe_index(index) -> Dict[str, object]:
    """JSON-able description of a served index (the ``info`` verb)."""
    scheme = getattr(index, "scheme", None)
    if scheme is not None:
        name = scheme.scheme_name
        shards = 1
        generations = [index.generation] if hasattr(index, "generation") else []
    else:  # ShardedANNIndex: per-shard schemes behind one facade
        shards = index.num_shards
        name = index.scheme_label  # same label merged QueryResults carry
        generations = list(getattr(index, "generations", []))
    spec = getattr(index, "spec", None)
    out = {
        "n": len(index),
        "d": index.d,
        "scheme": name,
        "shards": shards,
        "generations": generations,
        "id_space": int(getattr(index, "id_space", len(index))),
        "spec": None if spec is None else spec.to_dict(),
        "load_mode": getattr(index, "load_mode", "heap"),
        # Provenance: which popcount/distance backend answered (the
        # kernel seam, repro.hamming.kernels) — bitwise-equal across
        # backends, but perf numbers are only comparable like for like.
        "kernel": active_kernel(),
    }
    residency = _residency_info(index)
    if residency is not None:
        out["memory_budget"] = residency["memory_budget"]
    return out


def _residency_info(index) -> Optional[Dict[str, object]]:
    """The residency layer's counters, when the index has one.

    Single indexes have no residency manager (nothing to evict below one
    index), so this is None for them and the stats/info verbs omit the
    block instead of faking zeros.
    """
    stats_fn = getattr(index, "residency_stats", None)
    if stats_fn is None:
        return None
    return stats_fn().to_dict()


class AsyncANNService:
    """In-process asyncio serving facade over one index.

    Parameters
    ----------
    index : an :class:`~repro.core.index.ANNIndex` or
        :class:`~repro.service.sharded.ShardedANNIndex` (anything with
        ``query_batch`` + ``last_batch_stats`` + ``d``)
    max_batch : flush as soon as this many requests are pending (≥ 1;
        1 disables coalescing — the batch-size-1 baseline E17 measures)
    max_wait_ms : flush when the oldest pending request has waited this
        long, even if the batch is not full (0 flushes whatever has
        accumulated by the time the batcher runs — concurrent arrivals
        still coalesce)
    prefetch : forwarded to ``query_batch``
    latency_window : how many recent request latencies the percentile
        snapshot keeps

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with AsyncANNService(index, max_batch=64) as service:
            results = await asyncio.gather(*(service.query(q) for q in qs))
            service.metrics().as_dict()

    Results are bitwise-identical to sequential ``index.query`` calls
    regardless of how requests were interleaved into micro-batches.
    """

    def __init__(
        self,
        index,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        prefetch: bool = True,
        latency_window: int = 8192,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.index = index
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.prefetch = bool(prefetch)
        self._queue: Deque[_PendingQuery] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._batcher: Optional["asyncio.Task"] = None
        self._closing = False
        self._started_at = 0.0
        # Counters (reconciled against per-flush BatchStats by tests).
        self._requests = 0
        self._batches = 0
        self._inserts = 0
        self._deletes = 0
        self._max_observed_batch = 0
        self._total_probes = 0
        self._total_rounds = 0
        self._total_sweeps = 0
        self._prefetched_cells = 0
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "AsyncANNService":
        """Start the batcher task on the running event loop."""
        if self._batcher is not None:
            raise ServiceStateError("service already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closing = False
        self._started_at = self._loop.time()
        self._batcher = self._loop.create_task(self._run(), name="ann-micro-batcher")
        return self

    async def stop(self) -> None:
        """Drain pending requests, then stop the batcher."""
        if self._batcher is None:
            return
        self._closing = True
        self._wake.set()
        await self._batcher
        self._batcher = None

    async def __aenter__(self) -> "AsyncANNService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the request surface -----------------------------------------------
    def _check_accepting(self) -> None:
        if self._batcher is None:
            raise ServiceStateError("service not started (use 'async with' or start())")
        if self._closing:
            raise ServiceStateError("service is stopping; no new requests accepted")

    async def query(self, x) -> object:
        """Submit one query; resolves with its :class:`QueryResult`.

        Accepts a length-``d`` 0/1 bit vector or a packed uint64 row.
        Raises ``ValueError`` immediately (before enqueueing) when the
        query does not match the index dimension, so one malformed
        request never poisons a batch.
        """
        self._check_accepting()
        rows = coerce_rows(x, self.index.d)
        if np.ndim(x) != 1 or rows.shape[0] != 1:
            raise ValueError(
                f"service queries are one at a time; got shape {np.shape(x)}"
            )
        future = self._loop.create_future()
        self._queue.append(_PendingQuery(rows[0], future, self._loop.time()))
        self._wake.set()
        return await future

    def submit_insert(self, points) -> "asyncio.Future":
        """Enqueue an insert *synchronously*; returns its future.

        The split from :meth:`insert` matters for sequenced replication:
        a caller that validates a write-log sequence number and enqueues
        in the same event-loop step guarantees queue order matches
        sequence order — an ``await`` between the two would let another
        task's write interleave.  Shape/dimension validation happens
        here, before enqueueing.
        """
        self._check_accepting()
        rows = coerce_rows(points, self.index.d)
        future = self._loop.create_future()
        self._queue.append(_PendingWrite("insert", rows, future, self._loop.time()))
        self._wake.set()
        return future

    async def insert(self, points) -> List[int]:
        """Insert points; resolves with their assigned global ids.

        The insert is a barrier in the request FIFO: every query
        submitted before it completes against the pre-insert index,
        every query submitted after it sees the new points (exactly
        searchable from the memtable).
        """
        return await self.submit_insert(points)

    def submit_delete(self, ids) -> "asyncio.Future":
        """Enqueue a delete synchronously; returns its future.

        Shape/integrality validation happens here, before enqueueing —
        float ids are rejected, never truncated (same ordering rationale
        as :meth:`submit_insert`).
        """
        self._check_accepting()
        id_list = [int(i) for i in coerce_delete_ids(ids)]
        future = self._loop.create_future()
        self._queue.append(_PendingWrite("delete", id_list, future, self._loop.time()))
        self._wake.set()
        return future

    async def delete(self, ids) -> int:
        """Delete rows by global id; resolves with the deleted count.

        Same barrier semantics as :meth:`insert`; an invalid id rejects
        the whole call when it applies (atomically, between batches) and
        leaves the index unchanged.
        """
        return await self.submit_delete(ids)

    def submit_call(self, fn, count_as: Optional[str] = None) -> "asyncio.Future":
        """Enqueue ``fn`` to run as a write barrier; returns its future.

        ``fn`` executes between micro-batches with the same fence as
        :meth:`insert`/:meth:`delete` — every earlier query resolved
        against the pre-call state, no later query runs until it returns.
        The shard server uses this for sequenced replicated writes (apply
        + advance the acked sequence number atomically) and consistent
        snapshots.  ``count_as`` ("insert"/"delete") attributes the call
        to the write counters; None leaves the metrics untouched.
        """
        self._check_accepting()
        if not callable(fn):
            raise TypeError(f"submit_call needs a callable, got {type(fn).__name__}")
        future = self._loop.create_future()
        item = _PendingWrite("call", (fn, count_as), future, self._loop.time())
        self._queue.append(item)
        self._wake.set()
        return future

    async def barrier(self, fn):
        """Run ``fn`` between micro-batches; resolves with its result."""
        return await self.submit_call(fn)

    # -- metrics -----------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Snapshot the counters (the ``stats`` verb)."""
        now = self._loop.time() if self._loop is not None else 0.0
        uptime = max(now - self._started_at, 0.0) if self._started_at else 0.0
        window = sorted(ms * 1000.0 for ms in self._latencies)
        return ServiceMetrics(
            requests=self._requests,
            # Queries only: pending writes are tracked by the writes/
            # inserts/deletes counters, so query totals keep reconciling.
            in_flight=sum(
                1 for item in self._queue if isinstance(item, _PendingQuery)
            ),
            batches=self._batches,
            writes=self._inserts + self._deletes,
            inserts=self._inserts,
            deletes=self._deletes,
            mean_batch=(self._requests / self._batches) if self._batches else 0.0,
            max_observed_batch=self._max_observed_batch,
            qps=(self._requests / uptime) if uptime > 0 else 0.0,
            p50_ms=_percentile(window, 50),
            p95_ms=_percentile(window, 95),
            p99_ms=_percentile(window, 99),
            probes_per_query=(
                self._total_probes / self._requests if self._requests else 0.0
            ),
            total_probes=self._total_probes,
            total_rounds=self._total_rounds,
            total_sweeps=self._total_sweeps,
            prefetched_cells=self._prefetched_cells,
            uptime_s=uptime,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
        )

    # -- the batcher -------------------------------------------------------
    def _leading_run(self) -> tuple:
        """``(count, barrier)``: queries at the queue's front before the
        first pending write (count capped at ``max_batch``), and whether
        such a write exists.  A barrier means the front run can never
        grow — later arrivals queue behind the write — so it flushes
        immediately instead of waiting out the deadline."""
        count = 0
        for item in self._queue:
            if isinstance(item, _PendingWrite):
                return count, True
            count += 1
            if count >= self.max_batch:
                break
        return count, False

    async def _run(self) -> None:
        loop = self._loop
        max_wait = self.max_wait_ms / 1000.0
        while True:
            if not self._queue:
                if self._closing:
                    return
                self._wake.clear()
                # A submit between the emptiness check and clear() would
                # be lost to a bare wait — re-check before sleeping.
                if self._queue or self._closing:
                    continue
                await self._wake.wait()
                continue
            if isinstance(self._queue[0], _PendingWrite):
                self._apply_write()
                continue
            deadline = self._queue[0].arrival + max_wait
            while not self._closing:
                run, barrier = self._leading_run()
                if run >= self.max_batch or barrier:
                    break
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._wake.clear()
                run, barrier = self._leading_run()
                if run >= self.max_batch or barrier or self._closing:
                    continue
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            self._flush()

    def _apply_write(self) -> None:
        """Apply the write at the queue's head, between micro-batches.

        Runs synchronously on the event loop — by the time it executes,
        every earlier-submitted query has already flushed against the
        pre-write state, and no query can run until it returns.  That is
        the barrier fence.  Like :meth:`_flush` (which runs whole query
        batches on the loop), this trades loop stalls for strict
        linearizability; a write that trips the amortized compaction
        stalls for the rebuild, so latency-sensitive deployments should
        raise ``compact_threshold`` and compact off-peak (e.g. via
        ``repro mutate --compact``).
        """
        item = self._queue.popleft()
        try:
            if item.op == "insert":
                value: object = self.index.insert(item.payload)
                self._inserts += 1
            elif item.op == "delete":
                value = self.index.delete(item.payload)
                self._deletes += 1
            else:  # "call": a barrier callable (sequenced write / snapshot)
                fn, count_as = item.payload
                value = fn()
                if count_as == "insert":
                    self._inserts += 1
                elif count_as == "delete":
                    self._deletes += 1
        except Exception as exc:
            if not item.future.done():
                item.future.set_exception(exc)
            return
        if not item.future.done():
            item.future.set_result(value)

    def _flush(self) -> None:
        """Execute one micro-batch of queries and resolve its futures."""
        take = min(self._leading_run()[0], self.max_batch)
        if take == 0:
            return
        batch = [self._queue.popleft() for _ in range(take)]
        rows = np.stack([item.row for item in batch])
        try:
            results = self.index.query_batch(rows, prefetch=self.prefetch)
        except Exception as exc:  # systemic: fail every request in the flush
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        stats = self.index.last_batch_stats
        now = self._loop.time()
        for item, result in zip(batch, results):
            self._latencies.append(now - item.arrival)
            if not item.future.done():
                item.future.set_result(result)
        self._requests += take
        self._batches += 1
        self._max_observed_batch = max(self._max_observed_batch, take)
        if stats is not None:
            self._total_probes += stats.total_probes
            self._total_rounds += stats.total_rounds
            self._total_sweeps += stats.sweeps
            self._prefetched_cells += stats.prefetched_cells


# -- the wire protocol -----------------------------------------------------
#: StreamReader line limit for the NDJSON protocol.  Large enough for a
#: query_batch of thousands of bit rows; a line beyond it is answered
#: with an error response and the connection is closed (the stream can
#: no longer be re-synchronized mid-line).
WIRE_LINE_LIMIT = 2 ** 24


class WriteSequencer:
    """Orders replicated writes on one shard server.

    The router stamps every insert/delete with a per-shard, monotonically
    increasing write-log sequence number (``docs/DISTRIBUTED.md``).  The
    sequencer admits exactly the next number, acknowledges anything
    already admitted as an idempotent duplicate (a suspended replica can
    receive the same write from its stale TCP buffer *and* a catch-up
    replay), and refuses gaps loudly — applying ``seq`` without
    ``seq - 1`` would silently diverge from every sibling replica.

    ``accepted`` advances synchronously at admission (it gates queue
    order); ``applied`` advances inside the write barrier itself, so a
    ``snapshot`` barrier always records the exact sequence number the
    saved state reflects.
    """

    def __init__(self, initial: int = 0):
        self.accepted = int(initial)
        self.applied = int(initial)
        #: Last applied sequence covered by a *persisted* snapshot — the
        #: loaded snapshot's write_seq at startup, advanced by the
        #: ``snapshot`` verb.  The router truncates its durable WAL up
        #: to the minimum of these across a shard's replicas.
        self.snapshot_seq = int(initial)
        self._acks: Dict[int, dict] = {}
        self._ack_window = 32

    def admit(self, seq) -> bool:
        """True when ``seq`` must be applied, False for a duplicate.

        Raises ``ValueError`` on a sequence gap.
        """
        seq = int(seq)
        if seq <= self.accepted:
            return False
        if seq != self.accepted + 1:
            raise ValueError(
                f"write sequence gap: expected {self.accepted + 1}, got {seq} "
                "(replica out of sync; needs catch-up from the router log)"
            )
        self.accepted = seq
        return True

    def record(self, seq: int, response: dict) -> None:
        """Remember an ack so an exact duplicate can replay it."""
        self._acks[int(seq)] = response
        while len(self._acks) > self._ack_window:
            del self._acks[min(self._acks)]

    def duplicate_ack(self, seq: int) -> dict:
        """The response for an already-admitted sequence number."""
        recorded = self._acks.get(int(seq))
        if recorded is not None:
            return {**recorded, "duplicate": True}
        return {
            "ok": True,
            "duplicate": True,
            "seq": int(seq),
            "applied_seq": self.applied,
        }


class _ServerState(NamedTuple):
    """Everything one serving process shares across connections."""

    service: AsyncANNService
    sequencer: WriteSequencer
    shard_id: Optional[int]
    snapshot_dir: Optional[str] = None


def _jsonable(value):
    """Best-effort conversion of result metadata to JSON-able values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _result_response(result, distance: Optional[int] = None) -> Dict[str, object]:
    return {
        "ok": True,
        "answered": result.answer_index is not None,
        "answer_index": _jsonable(result.answer_index),
        "probes": result.probes,
        "rounds": result.rounds,
        "probes_per_round": list(result.probes_per_round),
        "scheme": result.scheme,
        "distance": None if distance is None else int(distance),
        "meta": _jsonable(result.meta),
    }


def _query_distance(row: np.ndarray, result) -> Optional[int]:
    """True Hamming distance from the query to the answered point — what
    a router needs to merge shard answers exactly like
    :meth:`~repro.service.sharded.ShardedANNIndex.query_batch` does."""
    if result.answer_packed is None:
        return None
    return int(hamming_distance(row, result.answer_packed))


def _write_ack(state: _ServerState, seq: Optional[int], **fields) -> Dict[str, object]:
    index = state.service.index
    ack: Dict[str, object] = {
        "ok": True,
        "live": len(index),
        "id_space": int(getattr(index, "id_space", len(index))),
        **fields,
    }
    if seq is not None:
        ack["seq"] = int(seq)
        ack["applied_seq"] = state.sequencer.applied
    return ack


async def _sequenced_write(
    state: _ServerState, seq, apply_fn, count_as: str
) -> Dict[str, object]:
    """Run one replicated write through the sequencer + write barrier.

    ``apply_fn`` mutates the index and returns the ack payload fields;
    it runs inside the service's barrier together with the ``applied``
    advance, so snapshots taken at any barrier see a consistent
    (state, sequence) pair.
    """
    gate = state.sequencer
    seq_int = int(seq)
    if not gate.admit(seq_int):  # raises on gaps
        return gate.duplicate_ack(seq_int)

    def apply():
        fields = apply_fn()
        gate.applied = seq_int
        return fields

    fields = await state.service.submit_call(apply, count_as=count_as)
    ack = _write_ack(state, seq_int, **fields)
    gate.record(seq_int, ack)
    return ack


async def _handle_request(
    state: _ServerState,
    shutdown: "asyncio.Event",
    line: bytes,
    writer: "asyncio.StreamWriter",
    write_lock: "asyncio.Lock",
) -> None:
    service = state.service
    request_id = None
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        request_id = request.get("id")
        op = request.get("op")
        if op == "query":
            bits = request.get("bits")
            if bits is None:
                raise ValueError("'query' needs a 'bits' array of 0/1 values")
            row = coerce_rows([bits], service.index.d)[0]
            result = await service.query(row)
            response = _result_response(result, distance=_query_distance(row, result))
        elif op == "query_batch":
            queries = request.get("queries")
            if not isinstance(queries, list) or not queries:
                raise ValueError(
                    "'query_batch' needs a non-empty 'queries' list of bit rows"
                )
            # Validate every row before submitting any, so one malformed
            # row fails the whole batch without half-submitting it (the
            # same atomicity ANNIndex.query_batch has).
            rows = coerce_rows(queries, service.index.d)
            results = await asyncio.gather(*(service.query(row) for row in rows))
            response = {
                "ok": True,
                "results": [
                    _result_response(result, distance=_query_distance(row, result))
                    for row, result in zip(rows, results)
                ],
            }
        elif op == "insert":
            points = request.get("points")
            if not points:
                raise ValueError("'insert' needs a non-empty 'points' list of bit rows")
            rows = coerce_rows(points, service.index.d)  # validate pre-admission
            seq = request.get("seq")
            if seq is None:
                ids = await service.insert(rows)
                response = _write_ack(state, None, ids=[int(i) for i in ids])
            else:

                def apply_insert(rows=rows):
                    return {"ids": [int(i) for i in service.index.insert(rows)]}

                response = await _sequenced_write(state, seq, apply_insert, "insert")
        elif op == "delete":
            ids = request.get("ids")
            if not ids:
                raise ValueError("'delete' needs a non-empty 'ids' list")
            # Validated up front (flat, integer, no duplicates) — a JSON
            # float id is rejected here, never truncated.
            id_list = [int(i) for i in coerce_delete_ids(ids)]
            seq = request.get("seq")
            if seq is None:
                deleted = await service.delete(id_list)
                response = _write_ack(state, None, deleted=int(deleted))
            else:

                def apply_delete(id_list=id_list):
                    return {"deleted": int(service.index.delete(id_list))}

                response = await _sequenced_write(state, seq, apply_delete, "delete")
        elif op == "check_ids":
            ids = request.get("ids")
            if not isinstance(ids, list) or not ids:
                raise ValueError("'check_ids' needs a non-empty 'ids' list")
            index = service.index
            id_space = int(getattr(index, "id_space", len(index)))
            response = {
                "ok": True,
                "live": [
                    bool(0 <= int(i) < id_space and index.is_live(int(i)))
                    for i in ids
                ],
                "id_space": id_space,
            }
        elif op == "snapshot":
            path = request.get("path")
            if path is None:
                path = state.snapshot_dir
                if path is None:
                    raise ValueError(
                        "'snapshot' needs a 'path' directory string (this "
                        "server was started without a snapshot directory "
                        "to save back to)"
                    )
            if not path or not isinstance(path, str):
                raise ValueError("'snapshot' needs a 'path' directory string")
            in_place = path == state.snapshot_dir
            gate = state.sequencer

            def snap():
                # Runs at a write barrier: gate.applied is exactly the
                # last write folded into the saved state.  An in-place
                # save only advances snapshot_seq once the save returned
                # — i.e. once the manifest rename hit the disk.
                saved = service.index.save(path, write_seq=gate.applied)
                if in_place:
                    # Only an in-place save moves the replica's durable
                    # coverage: a restart reloads snapshot_dir, not an
                    # export to some other path.
                    gate.snapshot_seq = gate.applied
                return saved, gate.applied

            saved, write_seq = await service.barrier(snap)
            response = {"ok": True, "path": str(saved), "write_seq": int(write_seq)}
        elif op == "stats":
            # The kernel rides inside the stats payload: ServiceClient
            # unwraps response["stats"], so provenance outside it would
            # be invisible to every caller.
            response = {
                "ok": True,
                "stats": {
                    **service.metrics().as_dict(),
                    "kernel": active_kernel(),
                },
                "replication": _replication_info(state),
            }
            residency = _residency_info(service.index)
            if residency is not None:
                response["residency"] = residency
        elif op == "info":
            response = {
                "ok": True,
                "index": describe_index(service.index),
                "policy": {
                    "max_batch": service.max_batch,
                    "max_wait_ms": service.max_wait_ms,
                },
                "replication": _replication_info(state),
            }
            residency = _residency_info(service.index)
            if residency is not None:
                response["residency"] = residency
        elif op == "ping":
            response = {"ok": True, "op": "ping"}
        elif op == "shutdown":
            response = {"ok": True, "stopping": True}
        else:
            raise ValueError(f"unknown op {op!r}")
    except Exception as exc:
        response = {"ok": False, "error": str(exc)}
        op = None
    response["id"] = request_id
    payload = (json.dumps(response, sort_keys=True) + "\n").encode()
    try:
        async with write_lock:
            writer.write(payload)
            try:
                await writer.drain()
            except ConnectionError:
                pass  # client went away; the request still took effect
    finally:
        # A shutdown must stop the server even when the ack could not be
        # delivered (client closed without reading the reply).
        if op == "shutdown":
            shutdown.set()


def _replication_info(state: _ServerState) -> Dict[str, object]:
    return {
        "shard": state.shard_id,
        "last_seq": state.sequencer.applied,
        "accepted_seq": state.sequencer.accepted,
        "snapshot_seq": state.sequencer.snapshot_seq,
    }


async def _connection_loop(
    handler,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
) -> None:
    """One NDJSON connection: each line is handled as its own task
    (``handler(line, writer, write_lock)``), so a client pipelining
    requests gets them processed concurrently; responses carry the
    request's ``id`` and may arrive out of order.  Shared by the shard
    server here and the router in :mod:`repro.service.cluster`."""
    write_lock = asyncio.Lock()
    tasks = set()
    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                # A line beyond WIRE_LINE_LIMIT: the stream cannot be
                # re-synchronized mid-line, so answer with an error and
                # drop only this connection — the service (and every
                # other connection) keeps running.
                async with write_lock:
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "ok": False,
                                    "error": "request line exceeds "
                                    f"{WIRE_LINE_LIMIT} bytes",
                                    "id": None,
                                },
                                sort_keys=True,
                            )
                            + "\n"
                        ).encode()
                    )
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                break
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.create_task(handler(line, writer, write_lock))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except asyncio.CancelledError:
        # Process shutting down with this connection still open; finish
        # cleanly — 3.11's streams done-callback calls task.exception()
        # without a cancelled() guard and would log a spurious traceback.
        pass
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve(
    index,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    ready_cb: Optional[Callable[[str, int], None]] = None,
    shard_id: Optional[int] = None,
    initial_seq: int = 0,
    snapshot_dir: Optional[str] = None,
) -> None:
    """Serve ``index`` over TCP until a client sends ``shutdown``.

    ``port=0`` binds an ephemeral port; ``ready_cb(host, port)`` fires
    with the bound address once the server is listening (the CLI uses it
    to print the address and write ``--ready-file``).

    ``shard_id``/``initial_seq`` turn the process into a **shard server**
    (``python -m repro shard-serve``): ``info``/``stats`` report the
    shard id and the last applied write-log sequence number, and
    sequenced ``insert``/``delete`` requests are gated through a
    :class:`WriteSequencer` starting at ``initial_seq`` (the snapshot's
    recorded ``write_seq``).  A plain ``repro serve`` accepts sequenced
    writes too — the gate simply starts at 0.

    ``snapshot_dir`` is where a bare ``snapshot`` request — no ``path``
    — saves to, letting the router checkpoint every replica before
    truncating its WAL.  The CLI passes ``--snapshot-dir`` when given
    (each replica gets its *own* checkpoint directory, so siblings
    sharing a loaded snapshot never rewrite each other's files) and
    falls back to ``--index``.
    """
    service = AsyncANNService(index, max_batch=max_batch, max_wait_ms=max_wait_ms)
    await service.start()
    state = _ServerState(service, WriteSequencer(initial_seq), shard_id, snapshot_dir)
    shutdown = asyncio.Event()
    server = None
    def handler(line, writer, write_lock):
        return _handle_request(state, shutdown, line, writer, write_lock)

    try:
        server = await asyncio.start_server(
            lambda r, w: _connection_loop(handler, r, w),
            host,
            port,
            limit=WIRE_LINE_LIMIT,
        )
        bound = server.sockets[0].getsockname()
        if ready_cb is not None:
            ready_cb(bound[0], bound[1])
        await shutdown.wait()
    finally:
        # The finally covers start_server failures too (port in use must
        # not leak a running batcher task).
        if server is not None:
            server.close()
            await server.wait_closed()
        await service.stop()
