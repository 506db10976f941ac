#!/usr/bin/env python
"""Online serving: concurrent queries through the micro-batching service.

Starts an in-process :class:`~repro.service.server.AsyncANNService` over
a small index, fires a wave of concurrent single-query requests at it
(each ``await service.query(x)`` is one request, as over the wire), and
prints the metrics snapshot: the service coalesced the wave into a few
micro-batches, yet every request's answer and probe/round accounting is
identical to a sequential ``index.query`` loop.

The same service speaks newline-delimited JSON over TCP::

    python -m repro build --scheme algorithm1 --out /tmp/idx
    python -m repro serve --index /tmp/idx --port 7878
    # then, from anywhere:
    #   from repro import ServiceClient
    #   with ServiceClient(port=7878) as client:
    #       client.query(bits); client.stats(); client.shutdown()

Architecture, protocol reference, and tuning guide: docs/SERVING.md.

Run:  python examples/serve_and_query.py
"""

import asyncio

import numpy as np

from repro import ANNIndex, AsyncANNService, IndexSpec, PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points


async def main() -> None:
    rng = np.random.default_rng(2016)
    n, d, requests = 400, 1024, 128

    print(f"Building index: n={n} points in {{0,1}}^{d}")
    database = PackedPoints(random_points(rng, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(rng, database.row(int(rng.integers(0, n))), int(rng.integers(0, 50)), d)
            for _ in range(requests)
        ]
    )
    spec = IndexSpec(scheme="algorithm1", params={"rounds": 3, "c1": 8.0}, seed=7)
    index = ANNIndex.from_spec(database, spec)

    print(f"Sequential reference: {requests} index.query calls...")
    reference = [index.query(q) for q in queries]

    print(f"Serving the same {requests} queries as concurrent requests...")
    async with AsyncANNService(index, max_batch=64, max_wait_ms=2.0) as service:
        results = await asyncio.gather(*(service.query(q) for q in queries))
        metrics = service.metrics()

    identical = all(
        s.answer_index == r.answer_index
        and s.probes == r.probes
        and s.probes_per_round == r.probes_per_round
        for s, r in zip(reference, results)
    )
    snapshot = metrics.as_dict()
    print("\n  metrics snapshot (the 'stats' protocol verb):")
    for key in ("requests", "batches", "mean_batch", "qps",
                "p50_ms", "p95_ms", "p99_ms", "probes_per_query"):
        print(f"    {key:>18}: {snapshot[key]}")
    print(f"\n  {requests} requests coalesced into {metrics.batches} micro-batches "
          f"(mean occupancy {metrics.mean_batch:.1f})")
    print(f"  results identical to the sequential loop: {identical}")


if __name__ == "__main__":
    asyncio.run(main())
