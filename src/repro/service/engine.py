"""The batched query engine: lockstep round execution for query batches.

``BatchQueryEngine.run`` takes a packed ``(B, W)`` batch and drives one
query plan per query (see :mod:`repro.cellprobe.plan`).  Execution is a
sequence of *sweeps*; in each sweep every still-active plan has one round
outstanding, and the engine

1. **prefetches** the union of the sweep's probes: requests are grouped
   by table, and each :class:`~repro.cellprobe.table.LazyTable` with a
   batched content function materializes all its missing cells in one
   vectorized pass (one broadcast XOR/popcount kernel call instead of a
   Python-level scan per probe);
2. **executes** each query's round through that query's own
   :class:`~repro.cellprobe.session.ProbeSession`, which now only hits
   the warm memo cache — charging probes and rounds to the query exactly
   as the sequential path does (a table's memo is capped, but it is
   cleared only at a prefetch or a miss, never between a sweep's
   prefetch and its reads);
3. **advances** each plan with its round's contents.

Before the first sweep, ``scheme.batch_prepare`` computes every query's
sketch addresses level by level with one vectorized application per
level, replacing per-query sketching — typically the largest win.

Because prefetching only changes *when* memoized cell contents are
computed (never what they contain), and accounting runs through
unmodified per-query sessions, results are identical to running
``scheme.query`` over the batch sequentially — the equivalence tests in
``tests/service`` assert this field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cellprobe.accounting import ProbeAccountant
from repro.cellprobe.plan import PlanDraft
from repro.cellprobe.scheme import CellProbingScheme
from repro.cellprobe.session import ProbeRequest
from repro.cellprobe.table import LazyTable
from repro.hamming.distance import cross_distances, hamming_distance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mutable import MutationState
    from repro.core.result import QueryResult

__all__ = [
    "BatchQueryEngine",
    "BatchStats",
    "merge_mutation_candidates",
    "nearest_candidate",
]


def nearest_candidate(candidates: Iterable[Optional[Tuple]]) -> Optional[Tuple]:
    """The candidate with the smallest ``(true distance, global id)``.

    Candidates are tuples led by those two fields (later fields ride
    along); ``None`` entries are skipped.  The one pick of the mutation
    merge and of the shard merge, in process and at the router.
    """
    best = None
    for candidate in candidates:
        if candidate is not None and (best is None or candidate[:2] < best[:2]):
            best = candidate
    return best


def merge_mutation_candidates(
    queries: np.ndarray,
    results: List["QueryResult"],
    state: "MutationState",
) -> List["QueryResult"]:
    """Apply the mutation layer's result-merge rule to a batch.

    Per query the merged answer is the minimum of two candidates by
    ``(true Hamming distance, global id)`` — the sharded merge rule:

    * the static scheme's answer, **dropped when its row is tombstoned**
      (the bitmap consult is metadata, never a charged probe), and
    * the best live memtable row, found by an exact scan (distances for
      the whole batch come from one :func:`cross_distances` kernel call;
      each live memtable row costs one probe, charged as a parallel
      round folded into the static rounds via
      :meth:`~repro.cellprobe.accounting.ProbeAccountant.merge_parallel`,
      so rounds never increase past ``max(static rounds, 1)``).

    Called with a batch of one by the sequential ``ANNIndex.query`` path,
    so both paths share one implementation and stay bitwise-identical.
    Accountants are merged in place; the returned results reuse them.
    """
    from repro.core.result import QueryResult  # deferred: avoids core<->service cycle

    positions, mem_words = state.memtable.live_entries()
    mem_count = int(positions.size)
    mem_ids = [int(state.n_static + p) for p in positions]
    mem_probes = [("memtable", gid) for gid in mem_ids]
    dists = cross_distances(queries, mem_words) if mem_count else None
    merged: List[QueryResult] = []
    for qi, res in enumerate(results):
        accountant = res.accountant
        suppressed = res.answer_index is not None and bool(
            state.tombstones[res.answer_index]
        )
        static = memtable = None  # (distance, global id, packed row, source)
        if res.answer_index is not None and not suppressed:
            static = (
                hamming_distance(queries[qi], res.answer_packed),
                int(res.answer_index),
                res.answer_packed,
                "static",
            )
        if mem_count:
            scan = ProbeAccountant()
            scan.charge_round(scan.begin_round(), list(mem_probes))
            accountant.merge_parallel(scan)
            j = int(np.argmin(dists[qi]))  # first min == smallest id
            memtable = (int(dists[qi][j]), mem_ids[j], mem_words[j], "memtable")
        best = nearest_candidate((static, memtable))
        meta = dict(res.meta)
        meta["mutable"] = {
            "generation": state.generation,
            "memtable_scanned": mem_count,
            "static_tombstoned": suppressed,
            "source": None if best is None else best[3],
        }
        merged.append(
            QueryResult(
                answer_index=None if best is None else best[1],
                answer_packed=None if best is None else best[2],
                accountant=accountant,
                scheme=res.scheme,
                meta=meta,
            )
        )
    return merged


@dataclass
class BatchStats:
    """Execution statistics of one :meth:`BatchQueryEngine.run` call.

    ``memo_cells`` is a gauge, not a count of this run's work: the cells
    memoized after the run across every ``LazyTable`` the engine's
    prefetch sweeps have classified.  It reads 0 when nothing has been
    classified — under ``prefetch=False`` and for schemes without plans.
    """

    batch_size: int
    sweeps: int
    total_probes: int
    total_rounds: int
    prefetched_cells: int
    memo_cells: int

    def as_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "sweeps": self.sweeps,
            "total_probes": self.total_probes,
            "total_rounds": self.total_rounds,
            "prefetched_cells": self.prefetched_cells,
            "memo_cells": self.memo_cells,
        }


class BatchQueryEngine:
    """Executes query batches against one scheme with cross-query batching.

    Parameters
    ----------
    scheme : any :class:`~repro.cellprobe.scheme.CellProbingScheme`; plan-
        capable schemes (both paper algorithms and the boosted wrapper)
        get lockstep batched execution, others fall back to a plain loop
    prefetch : disable to skip the vectorized cell prefetch (used by tests
        to show prefetching does not change results)

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.params import Algorithm1Params, BaseParameters
    >>> from repro.core.algorithm1 import SimpleKRoundScheme
    >>> from repro.hamming.points import PackedPoints
    >>> from repro.hamming.sampling import random_points
    >>> from repro.service import BatchQueryEngine
    >>> rng = np.random.default_rng(0)
    >>> db = PackedPoints(random_points(rng, 64, 128), 128)
    >>> scheme = SimpleKRoundScheme(db, Algorithm1Params(BaseParameters(64, 128), k=2), seed=1)
    >>> engine = BatchQueryEngine(scheme)
    >>> results = engine.run(random_points(rng, 5, 128))
    >>> len(results), all(r.rounds <= 2 for r in results)
    (5, True)
    """

    def __init__(self, scheme: CellProbingScheme, prefetch: bool = True):
        self.scheme = scheme
        self.prefetch = bool(prefetch)
        self.last_stats: Optional[BatchStats] = None
        # Persistent table classification: id(table) -> (table, supports
        # prefetch).  A scheme's tables are stable objects, so classifying
        # each once amortizes the per-probe getattr across every sweep of
        # every run.  The table object is stored for BOTH classifications,
        # which pins every classified table and guarantees no id is ever
        # recycled onto a stale entry.
        self._prefetchable: Dict[int, tuple] = {}
        # Pooled per-sweep address buffers, keyed like _prefetchable.  A
        # steady stream of flushes re-walks the same tables every sweep;
        # reusing the list objects (cleared after each prefetch) removes
        # the per-sweep dict/list churn.  The XOR/count temporaries of the
        # distance kernels themselves are pooled one layer down, in the
        # active backend's ScratchPool (repro.hamming.kernels).
        self._addr_scratch: Dict[int, List[object]] = {}

    def run(self, queries: np.ndarray) -> List[object]:
        """Answer a packed batch; returns per-query results in order."""
        batch = np.asarray(queries, dtype=np.uint64)
        if batch.ndim == 1:
            batch = batch[None, :]
        size = batch.shape[0]
        scheme = self.scheme
        if size == 0:
            self.last_stats = BatchStats(0, 0, 0, 0, 0, self.memo_cells())
            return []
        if not scheme.supports_plans():
            results = [scheme.query(batch[i]) for i in range(size)]
            self.last_stats = BatchStats(
                batch_size=size,
                sweeps=0,
                total_probes=sum(r.probes for r in results),
                total_rounds=sum(r.rounds for r in results),
                prefetched_cells=0,
                memo_cells=self.memo_cells(),
            )
            return results

        scheme.begin_query()
        scheme.batch_prepare(batch)
        accountants = [scheme.make_accountant() for _ in range(size)]
        sessions = [scheme.make_session(acc) for acc in accountants]
        plans = [scheme.query_plan(batch[i]) for i in range(size)]
        results: List[Optional[object]] = [None] * size
        pending: Dict[int, List[ProbeRequest]] = {}
        for i, plan in enumerate(plans):
            try:
                pending[i] = next(plan)
            except StopIteration as stop:
                results[i] = self._finalize(stop.value, accountants[i])

        sweeps = 0
        prefetched = 0
        while pending:
            sweeps += 1
            if self.prefetch:
                prefetched += self._prefetch_sweep(pending.values())
            for i in list(pending):  # insertion order == query order
                contents = sessions[i].parallel_read(pending[i])
                try:
                    pending[i] = plans[i].send(contents)
                except StopIteration as stop:
                    results[i] = self._finalize(stop.value, accountants[i])
                    del pending[i]

        self.last_stats = BatchStats(
            batch_size=size,
            sweeps=sweeps,
            total_probes=sum(acc.total_probes for acc in accountants),
            total_rounds=sum(acc.total_rounds for acc in accountants),
            prefetched_cells=prefetched,
            memo_cells=self.memo_cells(),
        )
        return results

    def memo_cells(self) -> int:
        """Cells memoized now across the ``LazyTable`` objects classified
        by this engine's prefetch sweeps (0 before any sweep)."""
        return sum(
            table.cached_cells()
            for table, _ in self._prefetchable.values()
            if isinstance(table, LazyTable)
        )

    # -- internals ---------------------------------------------------------
    def _finalize(self, draft: PlanDraft, accountant) -> object:
        if not isinstance(draft, PlanDraft):
            raise TypeError(
                f"query plan of {type(self.scheme).__name__} returned "
                f"{type(draft).__name__}, expected PlanDraft"
            )
        return self.scheme.finalize(draft, accountant)

    def _prefetch_sweep(self, request_lists: Iterable[List[ProbeRequest]]) -> int:
        """Batch-materialize the sweep's missing cells, grouped by table."""
        classify = self._prefetchable
        scratch = self._addr_scratch
        touched: List[int] = []  # tables with addresses this sweep, in order
        for requests in request_lists:
            for req in requests:
                table = req.table
                tid = id(table)
                entry = classify.get(tid)
                if entry is None:
                    entry = (table, bool(getattr(table, "supports_prefetch", False)))
                    classify[tid] = entry
                if entry[1]:
                    addrs = scratch.get(tid)
                    if addrs is None:
                        addrs = scratch[tid] = []
                    if not addrs:
                        touched.append(tid)
                    addrs.append(req.address)
        filled = 0
        try:
            for tid in touched:
                filled += classify[tid][0].prefetch(scratch[tid])
        finally:
            for tid in touched:
                scratch[tid].clear()
        return filled
