"""Async client for one shard-server replica, as the router sees it.

:class:`AsyncReplicaClient` is the router-side counterpart of
:class:`~repro.service.client.ServiceClient`: same NDJSON wire protocol,
but asyncio-native and built for a long-lived, failure-prone peer —
it reconnects on demand, matches pipelined responses to requests by
``id`` via a background reader task, bounds every request with a
timeout, and keeps the per-replica latency/failure counters the
router's ``stats`` verb reports.

Error taxonomy (what the router keys retry decisions on):

* :class:`ReplicaRequestError` — the replica *answered* ``ok: false``.
  The request reached a healthy server and was rejected; retrying it on
  a sibling would be rejected identically (validation is deterministic),
  so the error propagates to the caller.
* :class:`ReplicaUnavailableError` — transport failure: connect refused,
  connection dropped mid-request.  The sibling replica holds the same
  state bitwise, so the router retries there.
* :class:`ReplicaTimeoutError` — no answer in time (killed or suspended
  peer).  Subclass of unavailable: same retry-on-sibling treatment, but
  counted separately.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Deque, Dict, Optional

from repro.service.server import _percentile

__all__ = [
    "AsyncReplicaClient",
    "ReplicaError",
    "ReplicaRequestError",
    "ReplicaTimeoutError",
    "ReplicaUnavailableError",
]


class ReplicaError(RuntimeError):
    """Base class for replica-communication failures."""


class ReplicaRequestError(ReplicaError):
    """The replica answered ``ok: false`` — a rejection, not an outage."""


class ReplicaUnavailableError(ReplicaError):
    """Transport failure: the replica cannot be reached or dropped us."""


class ReplicaTimeoutError(ReplicaUnavailableError):
    """The replica did not answer within the request timeout."""


class AsyncReplicaClient:
    """One router→replica NDJSON connection with reconnect and metrics.

    The client is lazy: nothing is connected until the first
    :meth:`request` (or an explicit :meth:`connect`).  After any
    transport failure the connection is torn down and the next request
    reconnects — the router decides *whether* to send that next request
    (health checks + catch-up), the client only makes it safe.

    Concurrent requests share the connection; a reader task resolves
    each response to its request by ``id``.  A timeout tears the
    connection down (the stream may hold a stale response mid-flight),
    failing other in-flight requests with
    :class:`ReplicaUnavailableError` — callers retry on a sibling.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        latency_window: int = 1024,
    ):
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional["asyncio.Task"] = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._next_id = 0
        self._connect_lock = asyncio.Lock()
        # Counters surfaced through the router's stats verb.
        self.requests = 0
        self.failures = 0
        self.timeouts = 0
        self.latencies_ms: Deque[float] = deque(maxlen=int(latency_window))

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._writer is not None

    # -- connection lifecycle ----------------------------------------------
    async def connect(self) -> None:
        """Open the connection if it is not already open."""
        async with self._connect_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.timeout,
                )
            except asyncio.TimeoutError as exc:
                raise ReplicaTimeoutError(
                    f"connect to replica {self.address} timed out "
                    f"after {self.timeout}s"
                ) from exc
            except OSError as exc:
                raise ReplicaUnavailableError(
                    f"cannot connect to replica {self.address}: {exc}"
                ) from exc
            self._reader = reader
            self._writer = writer
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader), name=f"replica-reader-{self.address}"
            )

    async def _read_loop(self, reader: "asyncio.StreamReader") -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    break  # a garbled stream cannot be re-synchronized
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.CancelledError, ValueError):
            pass
        finally:
            self._teardown(
                ReplicaUnavailableError(f"replica {self.address} closed the connection")
            )

    def _teardown(self, exc: ReplicaError) -> None:
        """Drop the connection and fail every in-flight request."""
        writer, self._writer, self._reader = self._writer, None, None
        read_task, self._read_task = self._read_task, None
        if writer is not None:
            writer.close()
        if read_task is not None and read_task is not asyncio.current_task():
            read_task.cancel()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def close(self) -> None:
        self._teardown(ReplicaUnavailableError(f"replica client {self.address} closed"))

    # -- requests ----------------------------------------------------------
    async def request(self, op: str, timeout: Optional[float] = None, **payload) -> dict:
        """Send one request; returns the (``ok: true``) response object.

        Raises :class:`ReplicaRequestError` on an ``ok: false`` answer,
        :class:`ReplicaTimeoutError` when no answer arrives in time, and
        :class:`ReplicaUnavailableError` on any transport failure.
        """
        await self.connect()
        loop = asyncio.get_running_loop()
        request_id = self._next_id
        self._next_id += 1
        future = loop.create_future()
        self._pending[request_id] = future
        self.requests += 1
        started = loop.time()
        try:
            self._writer.write(
                (json.dumps({"op": op, "id": request_id, **payload}) + "\n").encode()
            )
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            self.failures += 1
            self._teardown(
                ReplicaUnavailableError(f"replica {self.address} dropped: {exc}")
            )
            raise ReplicaUnavailableError(
                f"replica {self.address} dropped the connection: {exc}"
            ) from exc
        try:
            response = await asyncio.wait_for(
                future, self.timeout if timeout is None else timeout
            )
        except asyncio.TimeoutError as exc:
            self._pending.pop(request_id, None)
            self.timeouts += 1
            self.failures += 1
            # A late answer can no longer be trusted to match cleanly
            # (the peer may be suspended mid-write); start clean.
            self._teardown(
                ReplicaUnavailableError(
                    f"replica {self.address} timed out; connection reset"
                )
            )
            raise ReplicaTimeoutError(
                f"replica {self.address} did not answer {op!r} within "
                f"{self.timeout if timeout is None else timeout}s"
            ) from exc
        except ReplicaUnavailableError:
            self.failures += 1
            raise
        self.latencies_ms.append((loop.time() - started) * 1000.0)
        if not response.get("ok"):
            raise ReplicaRequestError(
                str(response.get("error", "unknown replica error"))
            )
        return response

    # -- metrics -----------------------------------------------------------
    def metrics(self) -> dict:
        window = sorted(self.latencies_ms)
        return {
            "address": self.address,
            "connected": self.connected,
            "requests": self.requests,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "p50_ms": round(_percentile(window, 50), 3),
            "p99_ms": round(_percentile(window, 99), 3),
        }
