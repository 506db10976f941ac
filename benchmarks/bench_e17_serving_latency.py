"""E17 — online serving: adaptive micro-batching vs batch-size-1 serving.

Not a paper claim (the paper's cost model is probes, not seconds): this
experiment characterizes the online layer added in
:mod:`repro.service.server`, the way E15 characterizes the offline
batched engine.  An open-loop driver fires queries at an
:class:`~repro.service.server.AsyncANNService` at fixed arrival rates
(arrival times do not wait for completions, as in real traffic); the
service coalesces whatever is pending into micro-batches under the
``max_batch``/``max_wait_ms`` policy and executes each flush through the
batched engine.  The comparison is the same service with ``max_batch=1``
— every request served alone, the rate a naive one-query-at-a-time
server sustains.

Criteria (asserted): at saturation (arrival rate well above the
batch-size-1 capacity), the micro-batched service with cap ≥ 64 sustains
at least 2× the queries/sec of batch-size-1 serving, and every request's
result is bitwise-identical to a sequential ``index.query`` loop —
micro-batching buys throughput without touching the answers or their
probe/round accounting.

Catalog: ``docs/BENCHMARKS.md``; serving architecture and tuning guide:
``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import AsyncANNService

# Reference workload: E15's simulator-bound sizes, where per-query
# dispatch overhead is what micro-batching amortizes.
N, D, K = 400, 1024, 3
NUM_REQUESTS = 256
MICRO_BATCH_CAP = 64
MAX_WAIT_MS = 5.0

INDEX_SPEC = IndexSpec(
    scheme="algorithm1", params={"gamma": 4.0, "rounds": K, "c1": 8.0}, seed=11
)


def _build_index(db):
    index = ANNIndex.from_spec(db, INDEX_SPEC)
    index.prepare()  # isolate marginal per-query cost, as in E15
    return index


@pytest.fixture(scope="module")
def e17_workload():
    gen = np.random.default_rng(2017)
    db = PackedPoints(random_points(gen, N, D), D)
    queries = np.vstack(
        [
            flip_random_bits(gen, db.row(int(gen.integers(0, N))), int(gen.integers(0, D // 20)), D)
            for _ in range(NUM_REQUESTS)
        ]
    )
    return db, queries


async def _drive_open_loop(index, queries, rate_qps, max_batch, max_wait_ms):
    """Fire one request per query at fixed inter-arrival spacing; return
    (results in query order, makespan seconds, latencies, metrics)."""
    interval = 0.0 if rate_qps == float("inf") else 1.0 / rate_qps
    service = AsyncANNService(index, max_batch=max_batch, max_wait_ms=max_wait_ms)
    async with service:
        loop = asyncio.get_running_loop()

        async def fire(qi):
            await asyncio.sleep(qi * interval)
            begin = loop.time()
            result = await service.query(queries[qi])
            return result, loop.time() - begin

        start = time.perf_counter()
        outcomes = await asyncio.gather(*(fire(qi) for qi in range(len(queries))))
        makespan = time.perf_counter() - start
        metrics = service.metrics()
    results = [result for result, _ in outcomes]
    latencies = sorted(latency for _, latency in outcomes)
    return results, makespan, latencies, metrics


def _serve_run(db, queries, rate_qps, max_batch):
    index = _build_index(db)
    return asyncio.run(
        _drive_open_loop(index, queries, rate_qps, max_batch, MAX_WAIT_MS)
    )


def _pctl(sorted_vals, q):
    return sorted_vals[min(len(sorted_vals) - 1, int(q / 100 * len(sorted_vals)))]


@pytest.fixture(scope="module")
def e17_rows(e17_workload, report_table):
    db, queries = e17_workload
    # Sequential reference: the answers every serving run must reproduce.
    reference_index = _build_index(db)
    reference = [reference_index.query(q) for q in queries]

    # Batch-size-1 capacity at saturation sets the arrival-rate ladder.
    _, base_makespan, _, _ = _serve_run(db, queries, float("inf"), 1)
    base_capacity = len(queries) / base_makespan
    rates = [0.5 * base_capacity, 2.0 * base_capacity, float("inf")]
    labels = ["0.5x cap", "2x cap", "saturation"]

    rows = []
    for label, rate in zip(labels, rates):
        for policy, cap in (("batch=1", 1), (f"batch≤{MICRO_BATCH_CAP}", MICRO_BATCH_CAP)):
            results, makespan, latencies, metrics = _serve_run(db, queries, rate, cap)
            identical = all(
                s.answer_index == r.answer_index
                and s.probes == r.probes
                and s.rounds == r.rounds
                and s.probes_per_round == r.probes_per_round
                for s, r in zip(reference, results)
            )
            rows.append(
                {
                    "arrival": label,
                    "policy": policy,
                    "q/s": round(len(queries) / makespan),
                    "p50 ms": round(_pctl(latencies, 50) * 1000, 2),
                    "p95 ms": round(_pctl(latencies, 95) * 1000, 2),
                    "mean batch": round(metrics.mean_batch, 1),
                    "identical": identical,
                }
            )
    report_table(
        f"E17: open-loop serving, micro-batch vs batch-1 "
        f"(n={N}, d={D}, k={K}, {NUM_REQUESTS} requests, wait≤{MAX_WAIT_MS:g}ms)",
        rows,
    )
    from artifacts import write_artifact

    saturated = next(
        r for r in rows if r["arrival"] == "saturation" and r["policy"].startswith("batch≤")
    )
    single = next(
        r for r in rows if r["arrival"] == "saturation" and r["policy"] == "batch=1"
    )
    write_artifact(
        "e17_serving_latency",
        {
            "saturation_qps_batch1": single["q/s"],
            "saturation_qps_micro": saturated["q/s"],
            "micro_speedup": saturated["q/s"] / single["q/s"],
            "saturation_p50_ms": saturated["p50 ms"],
            "saturation_p95_ms": saturated["p95 ms"],
            "mean_batch": saturated["mean batch"],
        },
        extras={"n": N, "d": D, "requests": NUM_REQUESTS, "max_batch": MICRO_BATCH_CAP},
    )
    return rows


def _row(rows, arrival, policy_prefix):
    return next(
        r for r in rows if r["arrival"] == arrival and r["policy"].startswith(policy_prefix)
    )


def test_e17_all_runs_bitwise_identical(e17_rows):
    assert all(r["identical"] for r in e17_rows)


def test_e17_micro_batching_2x_at_saturation(e17_rows):
    single = _row(e17_rows, "saturation", "batch=1")
    micro = _row(e17_rows, "saturation", "batch≤")
    speedup = micro["q/s"] / single["q/s"]
    assert speedup >= 2.0, (
        f"expected micro-batched serving >= 2x batch-1 q/s at saturation, "
        f"got {speedup:.2f}x ({micro['q/s']} vs {single['q/s']})"
    )


def test_e17_saturation_batches_fill(e17_rows):
    # At saturation the coalescer should actually be batching: mean
    # occupancy well above 1 is what the speedup assert rests on.
    micro = _row(e17_rows, "saturation", "batch≤")
    assert micro["mean batch"] >= 4.0


def test_e17_light_load_stays_low_latency(e17_rows):
    # At half the batch-1 capacity, micro-batching's p95 may add at most
    # the wait deadline plus scheduling slack over batch-1 serving — the
    # latency cost side of the trade-off documented in docs/SERVING.md.
    single = _row(e17_rows, "0.5x cap", "batch=1")
    micro = _row(e17_rows, "0.5x cap", "batch≤")
    slack_ms = 10 * MAX_WAIT_MS + 50.0
    assert micro["p95 ms"] <= single["p95 ms"] + slack_ms
