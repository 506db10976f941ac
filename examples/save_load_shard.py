"""Persistence + sharding: save an index, load it back, shard it.

Demonstrates the serving substrate added on top of the batched engine:

1. build an index from a spec and snapshot it to a directory
   (``manifest.json`` + ``database/`` + ``arrays/`` payload trees);
2. load it back and verify the answers are bitwise-identical;
3. build a 4-shard :class:`~repro.service.sharded.ShardedANNIndex`,
   query through the fan-out/merge path, and round-trip it through its
   own snapshot.

Run: ``PYTHONPATH=src python examples/save_load_shard.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ANNIndex, IndexSpec, PackedPoints, ShardedANNIndex
from repro.hamming.sampling import flip_random_bits, random_points


def main() -> None:
    rng = np.random.default_rng(42)
    n, d = 400, 1024
    db = PackedPoints(random_points(rng, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(rng, db.row(int(rng.integers(0, n))), 25, d)
            for _ in range(32)
        ]
    )

    spec = IndexSpec(scheme="algorithm1", params={"rounds": 3, "c1": 8.0}, seed=7)
    index = ANNIndex.from_spec(db, spec)
    before = index.query_batch(queries)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "index"
        index.save(snapshot)
        files = sorted(p.name for p in snapshot.iterdir())
        print(f"saved snapshot: {files}")

        loaded = ANNIndex.load(snapshot)
        after = loaded.query_batch(queries)
        identical = all(
            b.answer_index == a.answer_index
            and b.probes == a.probes
            and b.rounds == a.rounds
            for b, a in zip(before, after)
        )
        print(f"loaded index answers bitwise-identically: {identical}")
        assert identical

        sharded = ShardedANNIndex.build(db, spec, shards=4)
        merged = sharded.query_batch(queries)
        stats = sharded.last_batch_stats
        print(
            f"sharded x{sharded.num_shards}: answered "
            f"{sum(r.answered for r in merged)}/{len(merged)}, "
            f"probes={stats.total_probes} (summed across shards), "
            f"sweeps={stats.sweeps} (max across shards)"
        )

        shard_snapshot = Path(tmp) / "sharded"
        sharded.save(shard_snapshot)
        reloaded = ShardedANNIndex.load(shard_snapshot)
        again = reloaded.query_batch(queries)
        identical = all(
            m.answer_index == a.answer_index and m.probes == a.probes
            for m, a in zip(merged, again)
        )
        print(f"sharded snapshot round-trips: {identical}")
        assert identical


if __name__ == "__main__":
    main()
