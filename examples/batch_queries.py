#!/usr/bin/env python
"""Batched querying: serve many queries per round sweep.

Builds one index, answers a batch of queries through
``ANNIndex.query_batch`` (the ``repro.service.BatchQueryEngine``), and
checks the results against a sequential ``query`` loop: answers and
per-query probe/round accounting are identical — batching changes the
wall clock, never the cell-probe semantics.

Run:  python examples/batch_queries.py
"""

import time

import numpy as np

from repro import ANNIndex, IndexSpec, PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points


def main() -> None:
    rng = np.random.default_rng(2016)
    n, d, gamma, rounds, batch = 400, 1024, 4.0, 3, 256

    print(f"Building database: n={n} points in {{0,1}}^{d}")
    database = PackedPoints(random_points(rng, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(rng, database.row(int(rng.integers(0, n))), int(rng.integers(0, 50)), d)
            for _ in range(batch)
        ]
    )
    spec = IndexSpec(
        scheme="algorithm1",
        params={"gamma": gamma, "rounds": rounds, "c1": 8.0},
        seed=7,
    )

    def build() -> ANNIndex:
        index = ANNIndex.from_spec(database, spec)
        # Warm the one-time preprocessing so the comparison is marginal cost.
        for i in range(index.scheme.params.base.levels + 1):
            index.scheme.level_sketches.accurate_db(i)
        return index

    seq_index, bat_index = build(), build()

    print(f"Sequential loop over {batch} queries...")
    t0 = time.perf_counter()
    seq_results = [seq_index.query(q) for q in queries]
    seq_secs = time.perf_counter() - t0

    print(f"One query_batch call over the same {batch} queries...")
    t0 = time.perf_counter()
    bat_results = bat_index.query_batch(queries)
    bat_secs = time.perf_counter() - t0

    identical = all(
        s.answer_index == b.answer_index
        and s.probes == b.probes
        and s.probes_per_round == b.probes_per_round
        for s, b in zip(seq_results, bat_results)
    )
    stats = bat_index.last_batch_stats
    print(f"\n  sequential: {batch / seq_secs:8.0f} queries/sec")
    print(f"  batched:    {batch / bat_secs:8.0f} queries/sec "
          f"({seq_secs / bat_secs:.1f}x)")
    print(f"  engine:     {stats.sweeps} lockstep sweeps, "
          f"{stats.prefetched_cells} cells prefetched, "
          f"{stats.total_probes} probes charged")
    print(f"  results identical to the sequential loop: {identical}")


if __name__ == "__main__":
    main()
