"""repro — reproduction of *Randomized Approximate Nearest Neighbor Search
with Limited Adaptivity* (Liu, Pan, Yin; SPAA 2016, arXiv:1602.04421).

The package provides:

* :class:`~repro.core.index.ANNIndex` + :class:`~repro.api.IndexSpec` — the
  public facade: a typed spec (scheme name, params, seed, boost, named
  presets) builds any registered scheme via ``ANNIndex.from_spec``;
* :mod:`repro.registry` — the scheme registry: the paper's algorithms
  *and* every baseline are constructible by name, so one harness serves
  them all (``available_schemes()``, ``build_scheme(db, spec)``);
* :class:`~repro.core.lambda_ann.OneProbeNearNeighborScheme` — the 1-probe
  λ-ANNS folklore scheme (Theorem 11);
* a faithful **cell-probe model simulator** (:mod:`repro.cellprobe`) with
  exact probe/round accounting and structurally enforced limited adaptivity;
* the Hamming-space and sketching substrates (:mod:`repro.hamming`,
  :mod:`repro.sketch`);
* baselines the paper positions against (:mod:`repro.baselines`): LSH,
  linear scan, fully-adaptive binary search;
* the lower-bound machinery (:mod:`repro.lowerbound`): LPM, the
  γ-separated ball-tree reduction, protocol accounting, and a numeric
  round-elimination ledger for Theorem 4;
* the experiment harness (:mod:`repro.analysis`, :mod:`repro.workloads`)
  behind the benches in ``benchmarks/``;
* index persistence (:mod:`repro.persistence`: ``ANNIndex.save``/``load``
  snapshots that answer bitwise-identically and carry live mutation
  state) and sharded serving
  (:class:`~repro.service.sharded.ShardedANNIndex`: per-shard builds,
  fan-out querying, true-distance merging, inserts routed to the
  smallest shard);
* **mutable indexes** (:mod:`repro.core.mutable`): ``ANNIndex.insert`` /
  ``delete`` / ``compact`` — tombstone bitmap consulted at result-merge
  time, an exactly-scanned memtable of fresh inserts, and amortized
  compaction that rebuilds from the survivors under
  ``RngTree(seed).child("generation", g)`` seeds, making post-compaction
  queries bitwise-identical to a from-scratch build on the live rows;
* the online serving layer (:mod:`repro.service.server`):
  :class:`~repro.service.server.AsyncANNService` coalesces concurrent
  requests into adaptive micro-batches (flush on batch-size cap or wait
  deadline) with answers bitwise-identical to sequential queries,
  ``python -m repro serve`` exposes it over newline-delimited JSON TCP,
  and :class:`~repro.service.client.ServiceClient` is the synchronous
  client (see ``docs/SERVING.md``).
"""

from repro.api import IndexSpec
from repro.core import (
    ANNIndex,
    Algorithm1Params,
    Algorithm2Params,
    BaseParameters,
    BoostedScheme,
    LargeKScheme,
    OneProbeNearNeighborScheme,
    QueryResult,
    SimpleKRoundScheme,
)
from repro.hamming import PackedPoints
from repro.registry import available_schemes, build_scheme
from repro.service import (
    AsyncANNService,
    BatchQueryEngine,
    BatchStats,
    ServiceClient,
    ServiceMetrics,
    ShardedANNIndex,
)
from repro.storage import ResidencyManager, ResidencyStats

__version__ = "1.9.0"

__all__ = [
    "ANNIndex",
    "Algorithm1Params",
    "Algorithm2Params",
    "AsyncANNService",
    "BaseParameters",
    "BatchQueryEngine",
    "BatchStats",
    "BoostedScheme",
    "IndexSpec",
    "LargeKScheme",
    "OneProbeNearNeighborScheme",
    "PackedPoints",
    "QueryResult",
    "ResidencyManager",
    "ResidencyStats",
    "ServiceClient",
    "ServiceMetrics",
    "ShardedANNIndex",
    "SimpleKRoundScheme",
    "available_schemes",
    "build_scheme",
    "__version__",
]
