"""Streaming mutations: insert, delete, compact — and the rebuild oracle.

Builds an index, mutates it while querying, and demonstrates the
headline invariant of the mutation layer: after a compaction the index
answers **bitwise-identically** to a from-scratch build on the surviving
rows under the generation seed ``RngTree(seed).child("generation", g)``.

Run:  python examples/streaming_mutations.py
"""

import numpy as np

from repro import ANNIndex, IndexSpec, PackedPoints
from repro.core.mutable import generation_seed
from repro.hamming.sampling import random_points

rng = np.random.default_rng(2016)
n, d = 200, 512
database = PackedPoints(random_points(rng, n, d), d)

spec = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=7)
index = ANNIndex.from_spec(database, spec)
queries = random_points(rng, 8, d)

# --- streaming writes -----------------------------------------------------
fresh = random_points(rng, 5, d)
ids = index.insert(fresh)  # searchable immediately (exact memtable scan)
print(f"inserted ids {ids}; live rows: {len(index)}")

hit = index.query(fresh[0])
print(f"query for an inserted point -> id {hit.answer_index} "
      f"(source: {hit.meta['mutable']['source']})")

victim = index.query(queries[0]).answer_index
index.delete([victim])  # tombstoned: can never surface again
print(f"deleted id {victim}; new answer: "
      f"{index.query(queries[0]).answer_index}")

# --- amortized compaction + the rebuild-equivalence oracle ----------------
generation = index.compact()
survivors = index.database  # renumbered 0..live-1
oracle = ANNIndex.from_spec(
    survivors, spec.replace(seed=generation_seed(spec.seed, generation))
)
for q in queries:
    a, b = index.query(q), oracle.query(q)
    assert (a.answer_index, a.probes, a.rounds, a.probes_per_round) == (
        b.answer_index, b.probes, b.rounds, b.probes_per_round
    )
print(f"generation {generation}: compacted index is bitwise-identical to a "
      f"fresh build on the {len(index)} survivors ✓")
