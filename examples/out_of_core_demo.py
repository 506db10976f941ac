"""Out-of-core serving: zero-copy snapshots under a memory budget.

Demonstrates the format-v3 storage layer (:mod:`repro.storage`):

1. build a sharded index and save it — every array payload becomes its
   own raw ``.npy`` file the OS can map;
2. load it with ``load_mode="mmap"``: no shard attaches until a query
   needs it, and attached shards hold memory-mapped payloads that page
   in lazily;
3. add a ``memory_budget`` that holds roughly one shard, sweep queries
   through, and watch the residency manager evict least-recently-queried
   shards while the answers stay bitwise-identical to the eager heap
   load;
4. write one point — the touched shard is promoted to heap (copy-on-
   write) and becomes ineligible for eviction until saved again.

Run: ``PYTHONPATH=src python examples/out_of_core_demo.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import IndexSpec, PackedPoints, ShardedANNIndex
from repro.hamming.sampling import flip_random_bits, random_points


def main() -> None:
    rng = np.random.default_rng(20160613)
    n, d = 256, 512
    db = PackedPoints(random_points(rng, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(rng, db.row(int(rng.integers(0, n))), 12, d)
            for _ in range(24)
        ]
    )

    spec = IndexSpec(scheme="algorithm1", params={"rounds": 2, "c1": 8.0}, seed=3)
    sharded = ShardedANNIndex.build(db, spec, shards=4)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "v3"
        sharded.save(snapshot)
        payloads = sorted(p for p in snapshot.rglob("*.npy"))
        print(f"format-v3 snapshot: {len(payloads)} raw .npy payloads")

        heap = ShardedANNIndex.load(snapshot)  # eager: everything resident
        expected = heap.query_batch(queries)

        lazy = ShardedANNIndex.load(snapshot, load_mode="mmap")
        before = lazy.residency_stats()
        print(f"mmap load attaches nothing: {before.attached}/{before.shards}")
        assert before.attached == 0

        # A budget of about one shard forces the manager to cycle shards
        # in and out as the fan-out sweeps them.
        budget = lazy._handles[0].meta.nbytes + 1
        tight = ShardedANNIndex.load(
            snapshot, load_mode="mmap", memory_budget=budget
        )
        actual = tight.query_batch(queries)
        identical = all(
            e.answer_index == a.answer_index
            and e.probes == a.probes
            and e.rounds == a.rounds
            for e, a in zip(expected, actual)
        )
        stats = tight.residency_stats()
        print(
            f"budget={budget} B: {stats.evictions} evictions, "
            f"{stats.misses} cold attaches, "
            f"{stats.resident_bytes} B resident, "
            f"answers bitwise-identical: {identical}"
        )
        assert identical and stats.evictions > 0
        assert stats.resident_bytes <= budget

        # Writes promote the touched shard to heap and mark it dirty, so
        # eviction can never drop unsaved mutations.
        tight.insert(db.words[:1])
        after = tight.residency_stats()
        print(
            f"after one insert: promotions={after.promotions}, "
            f"dirty shards stay attached"
        )
        assert after.promotions >= 1


if __name__ == "__main__":
    main()
