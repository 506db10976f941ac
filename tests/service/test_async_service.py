"""AsyncANNService: interleaving equivalence + micro-batching policy.

The serving guarantee is the batched engine's guarantee lifted to the
online layer: however concurrent requests get interleaved into
micro-batches (any concurrency, any batch cap, any wait deadline, single
or sharded index), every request resolves with a result bitwise-identical
to a sequential ``index.query`` call, and the service's counters
reconcile exactly with the per-flush
:class:`~repro.service.engine.BatchStats`.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import AsyncANNService, ShardedANNIndex

N, D, K = 100, 128, 2
NUM_QUERIES = 24

SPEC = IndexSpec(scheme="algorithm1", params={"rounds": K, "gamma": 4.0}, seed=17)


@pytest.fixture(scope="module")
def db():
    gen = np.random.default_rng(41)
    return PackedPoints(random_points(gen, N, D), D)


@pytest.fixture(scope="module")
def queries(db):
    gen = np.random.default_rng(42)
    return np.vstack(
        [
            flip_random_bits(gen, db.row(int(gen.integers(0, N))), int(gen.integers(0, 12)), D)
            for _ in range(NUM_QUERIES)
        ]
    )


@pytest.fixture(scope="module", params=["single", "sharded"])
def served_index(request, db):
    if request.param == "single":
        return ANNIndex.from_spec(db, SPEC)
    return ShardedANNIndex.build(db, SPEC, shards=2)


@pytest.fixture(scope="module")
def expected(served_index, queries):
    return [served_index.query(q) for q in queries]


def assert_bitwise_equal(result, reference):
    assert result.answer_index == reference.answer_index
    assert result.probes == reference.probes
    assert result.rounds == reference.rounds
    assert result.probes_per_round == reference.probes_per_round


class _RecordingIndex:
    """Duck-typed index proxy recording every flush's (size, BatchStats)."""

    def __init__(self, index):
        self._index = index
        self.flushes = []

    def __getattr__(self, name):
        return getattr(self._index, name)

    def __len__(self):
        return len(self._index)

    def query_batch(self, rows, prefetch=True):
        results = self._index.query_batch(rows, prefetch=prefetch)
        self.flushes.append((rows.shape[0], self._index.last_batch_stats))
        return results


async def _random_arrivals(service, queries, rng, max_delay_ms):
    """Submit every query as its own task at a random arrival offset,
    in a shuffled order; return results indexed like ``queries``."""
    order = rng.permutation(len(queries))
    delays = rng.uniform(0.0, max_delay_ms / 1000.0, size=len(queries))

    async def fire(qi, delay):
        await asyncio.sleep(delay)
        return qi, await service.query(queries[qi])

    pairs = await asyncio.gather(
        *(fire(int(qi), float(delays[slot])) for slot, qi in enumerate(order))
    )
    results = [None] * len(queries)
    for qi, result in pairs:
        results[qi] = result
    return results


@pytest.mark.parametrize(
    "max_batch,max_wait_ms,max_delay_ms,trial_seed",
    [
        (1, 0.0, 2.0, 0),     # no coalescing: the sequential baseline policy
        (4, 0.0, 2.0, 1),     # zero deadline: flush whatever has accumulated
        (8, 1.0, 3.0, 2),
        (64, 2.0, 0.0, 3),    # all-at-once arrivals, one (or few) big flushes
        (5, 0.5, 5.0, 4),     # cap that never divides the batch evenly
    ],
)
def test_interleaving_equivalence(
    served_index,
    queries,
    expected,
    max_batch,
    max_wait_ms,
    max_delay_ms,
    trial_seed,
    memo_cap,
):
    rng = np.random.default_rng(trial_seed)

    async def run():
        async with AsyncANNService(
            served_index, max_batch=max_batch, max_wait_ms=max_wait_ms
        ) as service:
            return await _random_arrivals(service, queries, rng, max_delay_ms)

    results = asyncio.run(run())
    for result, reference in zip(results, expected):
        assert_bitwise_equal(result, reference)


def test_metrics_reconcile_with_batch_stats(served_index, queries, expected):
    recording = _RecordingIndex(served_index)

    async def run():
        async with AsyncANNService(recording, max_batch=7, max_wait_ms=1.0) as service:
            rng = np.random.default_rng(99)
            results = await _random_arrivals(service, queries, rng, 4.0)
            return results, service.metrics()

    results, metrics = asyncio.run(run())
    for result, reference in zip(results, expected):
        assert_bitwise_equal(result, reference)

    sizes = [size for size, _ in recording.flushes]
    stats = [s for _, s in recording.flushes]
    assert metrics.requests == len(queries) == sum(sizes)
    assert metrics.batches == len(recording.flushes)
    assert metrics.max_observed_batch == max(sizes) <= 7
    assert metrics.mean_batch == pytest.approx(sum(sizes) / len(sizes))
    assert metrics.total_probes == sum(s.total_probes for s in stats)
    assert metrics.total_rounds == sum(s.total_rounds for s in stats)
    assert metrics.total_sweeps == sum(s.sweeps for s in stats)
    assert metrics.prefetched_cells == sum(s.prefetched_cells for s in stats)
    # memo_cells is a gauge: the latest flush's value, not a sum.
    assert metrics.memo_cells == stats[-1].memo_cells > 0
    # ...and the flush-level stats reconcile with per-query accounting.
    assert metrics.total_probes == sum(r.probes for r in results)
    assert metrics.probes_per_query == pytest.approx(
        sum(r.probes for r in results) / len(results)
    )
    assert metrics.in_flight == 0
    assert metrics.p50_ms <= metrics.p95_ms <= metrics.p99_ms


def test_batch_cap_one_never_coalesces(served_index, queries, expected):
    async def run():
        async with AsyncANNService(served_index, max_batch=1, max_wait_ms=5.0) as service:
            results = await asyncio.gather(*(service.query(q) for q in queries))
            return results, service.metrics()

    results, metrics = asyncio.run(run())
    assert metrics.max_observed_batch == 1
    assert metrics.batches == metrics.requests == len(queries)
    for result, reference in zip(results, expected):
        assert_bitwise_equal(result, reference)


def test_deadline_collects_concurrent_burst(served_index, queries):
    # A burst submitted in one loop tick, a cap it fits under, and a
    # generous deadline: the policy must gather it into a single flush.
    burst = queries[:10]

    async def run():
        async with AsyncANNService(
            served_index, max_batch=64, max_wait_ms=250.0
        ) as service:
            await asyncio.gather(*(service.query(q) for q in burst))
            return service.metrics()

    metrics = asyncio.run(run())
    assert metrics.batches == 1
    assert metrics.max_observed_batch == len(burst)


def test_full_batch_flushes_before_deadline(served_index, queries):
    # Cap 4 with a deadline far beyond the test's patience: the size
    # trigger must fire, not the clock.
    burst = queries[:8]

    async def run():
        async with AsyncANNService(
            served_index, max_batch=4, max_wait_ms=60_000.0
        ) as service:
            results = await asyncio.wait_for(
                asyncio.gather(*(service.query(q) for q in burst)), timeout=30.0
            )
            return results, service.metrics()

    results, metrics = asyncio.run(run())
    assert len(results) == len(burst)
    assert metrics.max_observed_batch == 4
    assert metrics.batches == 2


def test_wrong_dimension_rejected_before_batching(served_index, queries, expected):
    async def run():
        async with AsyncANNService(served_index, max_batch=4, max_wait_ms=1.0) as service:
            with pytest.raises(ValueError, match="bits"):
                await service.query(np.zeros(D + 3, dtype=np.uint8))
            with pytest.raises(ValueError, match="one at a time"):
                await service.query(np.zeros((2, D), dtype=np.uint8))
            # The service keeps serving after rejected requests.
            return await service.query(queries[0])

    assert_bitwise_equal(asyncio.run(run()), expected[0])


def test_query_outside_lifecycle_raises(served_index, queries):
    service = AsyncANNService(served_index)

    async def before_start():
        with pytest.raises(RuntimeError, match="not started"):
            await service.query(queries[0])

    asyncio.run(before_start())

    async def after_stop():
        async with AsyncANNService(served_index) as running:
            pass
        with pytest.raises(RuntimeError):
            await running.query(queries[0])

    asyncio.run(after_stop())


def test_stop_drains_pending_requests(served_index, queries, expected):
    async def run():
        service = await AsyncANNService(
            served_index, max_batch=64, max_wait_ms=10_000.0
        ).start()
        tasks = [asyncio.create_task(service.query(q)) for q in queries[:6]]
        await asyncio.sleep(0)  # let the submissions enqueue
        await service.stop()  # deadline far away: stop must flush the queue
        return await asyncio.gather(*tasks)

    results = asyncio.run(run())
    for result, reference in zip(results, expected[:6]):
        assert_bitwise_equal(result, reference)


def test_invalid_policy_rejected(served_index):
    with pytest.raises(ValueError, match="max_batch"):
        AsyncANNService(served_index, max_batch=0)
    with pytest.raises(ValueError, match="max_wait_ms"):
        AsyncANNService(served_index, max_wait_ms=-1.0)
