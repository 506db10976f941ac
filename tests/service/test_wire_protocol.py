"""The NDJSON wire protocol: server, ServiceClient, and the CLI entry.

A real asyncio TCP server runs on an ephemeral port in a background
thread; the synchronous :class:`~repro.service.client.ServiceClient`
talks to it exactly as scripts and the CI smoke test do.  Remote answers
must carry the same answer/probe/round accounting a local
``index.query`` call returns.
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

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points
from repro.service import ServiceClient, ServiceError
from repro.service.server import serve

N, D = 80, 128
SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=23)


@pytest.fixture(scope="module")
def index():
    gen = np.random.default_rng(7)
    return ANNIndex.from_spec(PackedPoints(random_points(gen, N, D), D), SPEC)


@pytest.fixture(scope="module")
def query_bits():
    gen = np.random.default_rng(8)
    return gen.integers(0, 2, size=(6, D), dtype=np.uint8)


@pytest.fixture()
def endpoint(index):
    """A live server on an ephemeral port; shut down after the test."""
    ready: "queue.Queue" = queue.Queue()

    def run():
        asyncio.run(
            serve(
                index,
                port=0,
                max_batch=8,
                max_wait_ms=1.0,
                ready_cb=lambda host, port: ready.put((host, port)),
            )
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    host, port = ready.get(timeout=10)
    yield host, port
    try:
        with ServiceClient(host=host, port=port, timeout=5.0) as client:
            client.shutdown()
    except OSError:
        pass  # a test already shut the server down
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_query_matches_local_index(endpoint, index, query_bits):
    host, port = endpoint
    with ServiceClient(host=host, port=port) as client:
        for bits in query_bits:
            local = index.query(bits)
            remote = client.query(bits)
            assert remote.answer_index == local.answer_index
            assert remote.probes == local.probes
            assert remote.rounds == local.rounds
            assert remote.probes_per_round == local.probes_per_round
            assert remote.scheme == local.scheme
            assert remote.answered == local.answered


def test_info_and_ping(endpoint, index):
    host, port = endpoint
    with ServiceClient(host=host, port=port) as client:
        assert client.ping()
        info = client.info()
        assert info["index"]["n"] == N
        assert info["index"]["d"] == D
        assert info["index"]["scheme"] == index.scheme.scheme_name
        assert info["index"]["spec"] == SPEC.to_dict()
        assert info["policy"] == {"max_batch": 8, "max_wait_ms": 1.0}


def test_stats_counts_served_queries(endpoint, query_bits):
    host, port = endpoint
    with ServiceClient(host=host, port=port) as client:
        for bits in query_bits[:3]:
            client.query(bits)
        stats = client.stats()
        assert stats["requests"] == 3
        assert stats["batches"] >= 1
        assert stats["total_probes"] > 0
        assert stats["max_batch"] == 8


def test_protocol_errors_are_responses(endpoint):
    host, port = endpoint
    with ServiceClient(host=host, port=port) as client:
        with pytest.raises(ServiceError, match="unknown op"):
            client._request("frobnicate")
        with pytest.raises(ServiceError, match="bits"):
            client._request("query")  # missing the bits payload
        with pytest.raises(ServiceError, match="dimension"):
            client.query(np.zeros(D + 1, dtype=np.uint8))
        # ...and the connection keeps serving afterwards.
        assert client.ping()


@pytest.mark.parametrize(
    "send",
    [
        pytest.param(lambda c: c.query([0.9] * D), id="fractional-query"),
        pytest.param(lambda c: c.query(["1", "0"] * (D // 2)), id="string-query"),
        pytest.param(lambda c: c.query([2] + [0] * (D - 1)), id="two-query"),
        pytest.param(lambda c: c.query_batch([[0.9] * D]), id="fractional-batch"),
        pytest.param(lambda c: c.insert([["1", "0"] * (D // 2)]), id="string-insert"),
    ],
)
def test_client_refuses_bits_the_server_refuses(send):
    # Regression: the client sent int(b) of every value, so [0.9, ...]
    # went out as the all-zeros row and ["1", ...] as ones.  It now
    # raises the server's ValueError before writing anything; the peer
    # here never answers, so a request that did go out would time out.
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        with ServiceClient(*listener.getsockname(), timeout=0.5) as client:
            peer, _ = listener.accept()
            with pytest.raises(ValueError, match="bits must be"):
                send(client)
        with peer:
            peer.settimeout(5.0)
            assert peer.recv(1 << 16) == b""  # closed without a byte sent
    finally:
        listener.close()


def test_malformed_line_gets_error_response(endpoint):
    host, port = endpoint
    with socket.create_connection((host, port), timeout=5.0) as raw:
        raw.sendall(b"this is not json\n")
        response = json.loads(raw.makefile("rb").readline())
    assert response["ok"] is False
    assert response["id"] is None


def test_pipelined_requests_match_by_id(endpoint, query_bits):
    # Two raw requests written back to back; responses may arrive in any
    # order, but each carries its request id.
    host, port = endpoint
    with socket.create_connection((host, port), timeout=5.0) as raw:
        lines = b"".join(
            json.dumps(
                {"op": "query", "id": i, "bits": [int(b) for b in query_bits[i]]}
            ).encode()
            + b"\n"
            for i in range(2)
        )
        raw.sendall(lines)
        reader = raw.makefile("rb")
        responses = [json.loads(reader.readline()) for _ in range(2)]
    assert {r["id"] for r in responses} == {0, 1}
    assert all(r["ok"] for r in responses)


def test_client_rejects_packed_queries(endpoint):
    host, port = endpoint
    with ServiceClient(host=host, port=port) as client:
        with pytest.raises(ValueError, match="bit vectors"):
            client.query(np.zeros(2, dtype=np.uint64))


def test_shutdown_stops_the_server(index):
    ready: "queue.Queue" = queue.Queue()

    def run():
        asyncio.run(
            serve(index, port=0, ready_cb=lambda host, port: ready.put((host, port)))
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    host, port = ready.get(timeout=10)
    with ServiceClient(host=host, port=port) as client:
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=1.0).close()


def test_shutdown_without_reading_ack_still_stops(index):
    # A scripted client may fire shutdown and close without reading the
    # reply; the server must stop anyway (regression: the ack write
    # failing used to skip the shutdown trigger).
    ready: "queue.Queue" = queue.Queue()

    def run():
        asyncio.run(
            serve(index, port=0, ready_cb=lambda host, port: ready.put((host, port)))
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    host, port = ready.get(timeout=10)
    with socket.create_connection((host, port), timeout=5.0) as raw:
        raw.sendall(b'{"op": "shutdown", "id": 0}\n')
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestServeCLI:
    def test_serve_ready_file_roundtrip(self, index, tmp_path, query_bits):
        """build → serve → client round-trip → stats → shutdown, through
        the CLI exactly as the CI smoke step drives it."""
        from repro.cli import main

        snapshot = tmp_path / "idx"
        index.save(snapshot)
        ready_file = tmp_path / "ready"
        result: dict = {}

        def run():
            result["code"] = main(
                ["serve", "--index", str(snapshot), "--port", "0",
                 "--max-batch", "16", "--max-wait-ms", "1",
                 "--ready-file", str(ready_file)]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 15
        while not ready_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        host, port = ready_file.read_text().split()
        with ServiceClient(host=host, port=int(port)) as client:
            local = index.query(query_bits[0])
            remote = client.query(query_bits[0])
            assert remote.answer_index == local.answer_index
            assert remote.probes == local.probes
            assert client.stats()["requests"] == 1
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["code"] == 0
