#!/usr/bin/env python
"""Quickstart: build a k-round ANN index from an IndexSpec and inspect
probe accounting.

Reproduces the basic workflow of the paper's model: a database of points
in {0,1}^d is preprocessed into polynomial-size tables; each query runs as
k rounds of parallel cell-probes and returns a γ-approximate nearest
neighbor with exact probe/round accounting.

Construction goes through the typed spec surface: an
:class:`repro.IndexSpec` names a registered scheme (see
``python -m repro schemes``) plus its parameters, and
``ANNIndex.from_spec`` builds it.  The spec round-trips through
``to_dict``/``from_dict`` so experiments can be reproduced exactly.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ANNIndex, IndexSpec, PackedPoints, available_schemes
from repro.hamming.sampling import flip_random_bits, random_points


def main() -> None:
    rng = np.random.default_rng(2016)
    n, d, gamma, rounds = 500, 1024, 4.0, 3

    print(f"Building database: n={n} points in {{0,1}}^{d}")
    database = PackedPoints(random_points(rng, n, d), d)

    print(f"Building index: γ={gamma}, k={rounds} rounds (Algorithm 1)")
    spec = IndexSpec(
        scheme="algorithm1",
        params={"gamma": gamma, "rounds": rounds, "c1": 8.0},
        seed=7,
    )
    index = ANNIndex.from_spec(database, spec)
    print(f"  spec: {spec.to_dict()}  (registered schemes: {', '.join(available_schemes())})")
    report = index.size_report()
    print(f"  logical table cells: {report.table_cells:.3e} "
          f"(= n^{report.cells_log_n(n):.1f}), word size {report.word_bits} bits")
    print(f"  {report.notes}\n")

    print("Querying 10 planted near-neighbors:")
    successes = 0
    for i in range(10):
        base = database.row(int(rng.integers(0, n)))
        query = flip_random_bits(rng, base, int(rng.integers(0, 40)), d)
        result = index.query(query)
        ratio = result.ratio(database, query)
        ok = ratio is not None and ratio <= gamma
        successes += ok
        print(f"  query {i}: probes={result.probes:2d} rounds={result.rounds} "
              f"per-round={result.probes_per_round} ratio={ratio:.2f} "
              f"path={result.meta.get('path')} {'OK' if ok else 'MISS'}")
    print(f"\nγ-approximation success: {successes}/10 "
          f"(paper guarantees ≥ 2/3 per query; amplify with "
          f"IndexSpec.preset('high-recall') or spec.replace(boost=...))")

    # Batched querying: one call answers many queries with the adaptive
    # rounds executed for the whole batch at once; results (answers and
    # probe/round accounting) are identical to a sequential query loop.
    # See examples/batch_queries.py for a throughput comparison.
    batch = np.vstack([
        flip_random_bits(rng, database.row(int(rng.integers(0, n))), 20, d)
        for _ in range(32)
    ])
    results = index.query_batch(batch)
    stats = index.last_batch_stats
    print(f"\nquery_batch over {len(results)} queries: "
          f"{stats.sweeps} lockstep sweeps, {stats.total_probes} probes, "
          f"{stats.prefetched_cells} cells prefetched in batched kernels")

    # The same surface serves every registered scheme — e.g. the exact
    # linear-scan baseline, batched through the identical engine:
    exact = ANNIndex.from_spec(database, IndexSpec(scheme="linear-scan"))
    exact_results = exact.query_batch(batch[:4])
    print(f"linear-scan baseline on 4 queries: "
          f"probes/query={exact_results[0].probes}, "
          f"exact answers={[r.answer_index for r in exact_results]}")


if __name__ == "__main__":
    main()
