"""Fuzzing the NDJSON wire protocol, plus the client-timeout regression.

The server's contract under malformed input is *per-request error,
never a wedge*: whatever bytes arrive — truncated JSON, binary garbage,
non-object JSON, unknown verbs, oversized lines, half-written frames —
the connection (or at worst that one connection) answers or closes, and
the server keeps serving everyone else.  Each fuzz case therefore ends
by asserting the same server still answers a real query.  The router
shares the server's envelope and listener, so every fuzz case runs
twice: against a server, and against a router in front of one.

The regression half pins the :class:`ServiceTimeoutError` behavior:
a client whose server dies or stops answering *mid-request* must raise,
not block forever (the pre-1.6 client hung on ``readline``).
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints, coerce_rows
from repro.hamming.sampling import random_points
from repro.service import ServiceClient, ServiceError, ServiceTimeoutError
from repro.service.cluster import serve_router
from repro.service.server import WIRE_LINE_LIMIT, serve

N, D = 60, 128
SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=31)


@pytest.fixture(scope="module", params=["server", "router"])
def endpoint(request):
    """One live endpoint shared by every fuzz case — a server, or a
    router in front of one in-process server; surviving all of them on
    a single process is exactly the property under test."""
    gen = np.random.default_rng(17)
    index = ANNIndex.from_spec(PackedPoints(random_points(gen, N, D), D), SPEC)
    threads = []

    def start(main):
        """Run ``main(ready_cb)`` on its own loop; return its address."""
        ready: "queue.Queue" = queue.Queue()
        thread = threading.Thread(
            target=lambda: asyncio.run(main(lambda host, port: ready.put((host, port)))),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
        return ready.get(timeout=10)

    endpoints = [
        start(
            lambda ready_cb: serve(
                index, port=0, max_batch=8, max_wait_ms=1.0, ready_cb=ready_cb
            )
        )
    ]
    if request.param == "router":
        shard_map = [[endpoints[0]]]
        endpoints.insert(0, start(lambda ready_cb: serve_router(shard_map, ready_cb=ready_cb)))
    yield endpoints[0]
    for host, port in endpoints:  # the router stops before its server
        try:
            with ServiceClient(host=host, port=port, timeout=5.0) as client:
                client.shutdown()
        except (ServiceError, OSError):
            pass
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def raw_exchange(endpoint, payload: bytes, timeout: float = 10.0):
    """Send raw bytes on a fresh socket; return the response lines the
    server sends before EOF/timeout (parsed where they are JSON)."""
    host, port = endpoint
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)  # EOF: server answers, then closes
        sock.settimeout(timeout)
        buf = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buf += chunk
    lines = [line for line in buf.split(b"\n") if line]
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(line)
    return parsed


def assert_still_serving(endpoint):
    """The server must answer a real query after whatever we just sent."""
    host, port = endpoint
    bits = [i % 2 for i in range(D)]
    with ServiceClient(host=host, port=port, timeout=10.0) as client:
        assert client.ping()
        result = client.query(bits)
        assert result.probes >= 0


# -- malformed frames --------------------------------------------------------
@given(
    junk=st.one_of(
        st.binary(min_size=1, max_size=200),
        st.text(min_size=1, max_size=200).map(lambda s: s.encode("utf-8", "ignore")),
    ).filter(lambda b: b.strip())
)
@settings(max_examples=25, deadline=None)
def test_garbage_bytes_get_errors_not_wedges(endpoint, junk):
    """Arbitrary garbage: every line is answered (ok: false) or the
    connection is closed — and the server keeps serving afterwards."""
    responses = raw_exchange(endpoint, junk + b"\n")
    for response in responses:
        if isinstance(response, dict) and "op" not in response:
            assert response.get("ok") is False
            assert "error" in response
    assert_still_serving(endpoint)


@pytest.mark.parametrize(
    "frame",
    [
        b'{"op": "query", "bits": [1, 0',  # truncated JSON
        b'{"op": "query"}',  # missing bits
        b'{"op": "query", "bits": "nope"}',  # wrong type
        b'{"op": "query", "bits": [1, 2, 3]}',  # non-binary values
        b'{"op": "frobnicate", "id": 9}',  # unknown verb
        b"[1, 2, 3]",  # non-object JSON
        b'"just a string"',
        b"42",
        b"null",
        b'{"op": "insert", "points": []}',  # empty write
        b'{"op": "delete", "ids": [1, 1]}',  # duplicate ids in one delete
        b'{"op": "delete", "ids": [999999]}',  # out-of-range id
        b'{"op": "insert", "points": [[1, 0]]}',  # wrong dimension
        # Bit values other than JSON integers or booleans equal to 0 or 1:
        pytest.param(
            json.dumps({"op": "query", "bits": [0.9] * D}).encode(),
            id="fractional-bits",
        ),
        pytest.param(
            json.dumps({"op": "query", "bits": ["1"] * D}).encode(), id="string-bits"
        ),
        pytest.param(
            json.dumps({"op": "query", "bits": [0] * (D - 1) + [2]}).encode(),
            id="bit-above-1",
        ),
        pytest.param(
            json.dumps({"op": "query", "bits": [-1] + [0] * (D - 1)}).encode(),
            id="negative-bit",
        ),
        pytest.param(
            json.dumps({"op": "query_batch", "queries": [[0.9] * D]}).encode(),
            id="fractional-batch-row",
        ),
        pytest.param(
            json.dumps({"op": "insert", "points": [[0.5] * D]}).encode(),
            id="fractional-insert-row",
        ),
        pytest.param(
            json.dumps({"op": "insert", "points": [[256] + [0] * (D - 1)]}).encode(),
            id="insert-bit-256",
        ),
    ],
)
def test_bad_requests_get_per_request_errors(endpoint, frame):
    responses = raw_exchange(endpoint, frame + b"\n")
    dicts = [r for r in responses if isinstance(r, dict)]
    assert dicts, f"no JSON response to {frame!r}"
    assert all(r.get("ok") is False and r.get("error") for r in dicts)
    assert_still_serving(endpoint)


ROW = [i % 2 for i in range(D)]


@pytest.mark.parametrize(
    "op, field, value, refusal",
    [
        pytest.param("query", "bits", 512, "got shape (1, 1)", id="bits-int"),
        pytest.param("query", "bits", True, "got shape (1, 1)", id="bits-true"),
        pytest.param("query", "bits", {}, "got shape (1, 1)", id="bits-object"),
        pytest.param("query", "bits", [ROW], "got ndim=3", id="bits-nested-row"),
        pytest.param(
            "query_batch", "queries", [ROW, ROW[:-1]], "inhomogeneous", id="ragged-queries"
        ),
        pytest.param(
            "query_batch", "queries", [ROW, 7], "inhomogeneous", id="queries-row-and-int"
        ),
        pytest.param("insert", "points", 3, "got ndim=0", id="points-int"),
    ],
)
def test_values_that_are_not_bit_rows_keep_their_refusals(
    endpoint, op, field, value, refusal
):
    """A value the wire's bit-row decoder does not convert reaches
    ``coerce_rows`` as it came: the answer is the in-process refusal of
    the raw value, word for word (a query's bits are one row, so
    ``[bits]``)."""
    with pytest.raises(ValueError) as excinfo:
        coerce_rows([value] if op == "query" else value, D)
    expected = str(excinfo.value)
    assert refusal in expected
    frame = json.dumps({"op": op, field: value}).encode() + b"\n"
    (response,) = raw_exchange(endpoint, frame)
    assert response["ok"] is False
    assert response["error"] == expected
    assert_still_serving(endpoint)


@pytest.mark.parametrize("endpoint", ["server"], indirect=True)
@pytest.mark.parametrize(
    "ids, dtype",
    [([1.5], "float64"), (["3"], "<U1"), ([True], "bool")],
    ids=["float-id", "string-id", "boolean-id"],
)
def test_check_ids_refuses_the_ids_delete_refuses(endpoint, ids, dtype):
    """``check_ids`` validates by the delete rule: ``1.5``, ``"3"`` and
    ``true`` are refused, not read as ids 1, 3 and 1.  The router has no
    ``check_ids`` verb, so this runs against the server only."""
    frames = b"".join(
        json.dumps({"op": op, "id": i, "ids": ids}).encode() + b"\n"
        for i, op in enumerate(("check_ids", "delete"))
    )
    check, delete = sorted(raw_exchange(endpoint, frames), key=lambda r: r["id"])
    assert check["ok"] is False and delete["ok"] is False
    assert check["error"] == delete["error"] == f"ids must be integers, got dtype {dtype}"
    (live,) = raw_exchange(endpoint, b'{"op": "check_ids", "ids": [0, 1]}\n')
    assert live["live"] == [True, True]
    assert_still_serving(endpoint)


def test_boolean_bits_answer_like_integers(endpoint):
    """JSON booleans are bit values too: a ``true``/``false`` row answers
    exactly like its 0/1 twin, alone and inside a batch."""
    host, port = endpoint
    ints = [(i // 3) % 2 for i in range(D)]
    bools = [bool(b) for b in ints]
    with ServiceClient(host=host, port=port, timeout=10.0) as client:
        as_ints = client._request("query", bits=ints)
        as_bools = client._request("query", bits=bools)
        batch = client._request("query_batch", queries=[bools, ints])
    assert as_ints.pop("id") != as_bools.pop("id")
    assert as_bools == as_ints
    assert batch["results"][0] == batch["results"][1]


def test_unknown_verb_echoes_request_id(endpoint):
    (response,) = raw_exchange(endpoint, b'{"op": "frobnicate", "id": 7}\n')
    assert response["ok"] is False
    assert response["id"] == 7
    assert "frobnicate" in response["error"]


def test_oversized_line_is_refused_without_wedging(endpoint):
    """A line past WIRE_LINE_LIMIT can't be buffered; the server must
    refuse it (error or close) and keep serving everyone else."""
    big = b'{"op": "query", "bits": "' + b"a" * (WIRE_LINE_LIMIT + 64) + b'"}\n'
    responses = raw_exchange(endpoint, big)
    for response in responses:
        if isinstance(response, dict):
            assert response.get("ok") is False
    assert_still_serving(endpoint)


def test_partial_writes_reassemble_into_one_request(endpoint):
    """A frame dribbled out in pieces is still one request."""
    host, port = endpoint
    bits = [i % 2 for i in range(D)]
    frame = json.dumps({"op": "query", "id": 0, "bits": bits}).encode() + b"\n"
    with socket.create_connection((host, port), timeout=10) as sock:
        for i in range(0, len(frame), 7):
            sock.sendall(frame[i : i + 7])
            time.sleep(0.001)
        sock.settimeout(10)
        response = json.loads(sock.makefile("rb").readline())
    assert response["ok"] is True
    assert response["id"] == 0
    assert_still_serving(endpoint)


def test_pipelined_duplicate_request_ids_both_answered(endpoint):
    """The protocol echoes ids verbatim; two in-flight requests sharing
    an id both get answers (matching them is the client's problem)."""
    bits = [0] * D
    frame = json.dumps({"op": "query", "id": 5, "bits": bits}).encode() + b"\n"
    responses = raw_exchange(endpoint, frame * 2)
    assert len(responses) == 2
    assert all(r["ok"] and r["id"] == 5 for r in responses)


# -- client timeout regression ----------------------------------------------
@pytest.fixture()
def black_hole():
    """A server that accepts and reads but never answers — what a
    SIGSTOPped or wedged process looks like from the client side."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    conns = []
    stop = threading.Event()

    def run():
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(0.1)
            conns.append(conn)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    yield listener.getsockname()
    stop.set()
    thread.join(timeout=5)
    for conn in conns:
        conn.close()
    listener.close()


def test_query_raises_timeout_when_server_never_answers(black_hole):
    host, port = black_hole
    with ServiceClient(host=host, port=port, timeout=0.3) as client:
        with pytest.raises(ServiceTimeoutError, match="did not answer 'query'"):
            client.query([0] * D)


def test_per_request_timeout_overrides_client_default(black_hole):
    host, port = black_hole
    start = time.monotonic()
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        with pytest.raises(ServiceTimeoutError):
            client.ping(timeout=0.3)
    assert time.monotonic() - start < 5.0  # did not wait out the default


def test_timeout_error_is_a_service_error(black_hole):
    host, port = black_hole
    with ServiceClient(host=host, port=port, timeout=0.3) as client:
        with pytest.raises(ServiceError):  # existing handlers keep working
            client.stats()


def test_server_killed_mid_request_raises_instead_of_hanging():
    """Kill the connection between request and response: the client
    must surface a ServiceError immediately, not block on readline."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept_then_slam():
        conn, _ = listener.accept()
        conn.settimeout(5)
        reader = conn.makefile("rb")
        reader.readline()  # swallow the request...
        conn.close()  # ...and die without answering

    thread = threading.Thread(target=accept_then_slam, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    start = time.monotonic()
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        with pytest.raises(ServiceError, match="closed the connection"):
            client.query([0] * D)
    assert time.monotonic() - start < 5.0
    thread.join(timeout=5)
    listener.close()


def test_abandoned_late_responses_do_not_leak_into_parked():
    """Regression: a response that arrives *after* its request timed out
    used to be parked forever — nothing ever asks for an abandoned id,
    so a client surviving repeated timeouts leaked one parked response
    per timeout.  Late responses to abandoned ids must be dropped, and
    the abandoned-id set must drain as they arrive."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    delay = 0.25

    def reply_late():
        conn, _ = listener.accept()
        conn.settimeout(10)
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")
        try:
            while True:
                raw = reader.readline()
                if not raw:
                    return
                request = json.loads(raw)
                time.sleep(delay)  # past the hammering client's timeout
                writer.write(
                    json.dumps({"ok": True, "id": request["id"]}).encode() + b"\n"
                )
                writer.flush()
        except OSError:
            pass
        finally:
            conn.close()

    thread = threading.Thread(target=reply_late, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    hammered = 4
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        for _ in range(hammered):
            with pytest.raises(ServiceTimeoutError):
                client.ping(timeout=0.05)
        assert len(client._abandoned) == hammered
        # A patient request drains every late response ahead of its own:
        # abandoned ids are dropped (not parked), then the real answer
        # arrives.  Before the fix, _parked ended this test 4 entries big.
        assert client.ping(timeout=(hammered + 2) * delay + 5.0)
        assert client._parked == {}
        assert client._abandoned == set()
    thread.join(timeout=10)
    listener.close()


def test_abandoned_set_stays_bounded_when_server_never_answers(black_hole):
    """Regression: against a server that will never answer (the common
    timeout cause), every timeout used to leave one id in _abandoned
    forever — the same slow leak the set was introduced to fix for
    _parked.  The set is capped, evicting the oldest ids first."""
    host, port = black_hole
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        client.ABANDONED_LIMIT = 8  # shadow the class default for the test
        for _ in range(3 * client.ABANDONED_LIMIT):
            with pytest.raises(ServiceTimeoutError):
                client.ping(timeout=0.02)
        assert len(client._abandoned) == client.ABANDONED_LIMIT
        # the newest ids survive — they are the ones a slow server could
        # still answer late
        assert max(client._abandoned) == client._next_id - 1
        assert min(client._abandoned) == client._next_id - client.ABANDONED_LIMIT


def test_late_responses_for_evicted_ids_are_reclaimed_from_parked():
    """A late response whose id was already evicted from _abandoned is
    parked (it looks like any unrecognized id); the next request must
    sweep it out — parked responses for past ids can never be claimed."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    delay = 0.25

    def reply_late():
        conn, _ = listener.accept()
        conn.settimeout(10)
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")
        try:
            while True:
                raw = reader.readline()
                if not raw:
                    return
                request = json.loads(raw)
                time.sleep(delay)  # past the hammering client's timeout
                writer.write(
                    json.dumps({"ok": True, "id": request["id"]}).encode() + b"\n"
                )
                writer.flush()
        except OSError:
            pass
        finally:
            conn.close()

    thread = threading.Thread(target=reply_late, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    hammered = 4
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        client.ABANDONED_LIMIT = 2
        for _ in range(hammered):
            with pytest.raises(ServiceTimeoutError):
                client.ping(timeout=0.05)
        assert len(client._abandoned) == 2  # ids 0 and 1 were evicted
        # The patient ping drains all four late responses before its own:
        # ids still in _abandoned are dropped; the evicted ones are
        # parked (they are indistinguishable from unknown ids).
        assert client.ping(timeout=(hammered + 2) * delay + 5.0)
        assert set(client._parked) <= {0, 1}
        # the next request sweeps the unreachable parked entries
        assert client.ping(timeout=delay + 5.0)
        assert client._parked == {}
    thread.join(timeout=10)
    listener.close()
