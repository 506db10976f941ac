"""The public facade: :class:`ANNIndex`.

Construction goes through a typed :class:`~repro.api.IndexSpec` and the
scheme registry (:mod:`repro.registry`), so every registered scheme —
both paper algorithms and all baselines — is buildable by name::

    from repro import ANNIndex, IndexSpec
    index = ANNIndex.from_spec(points_bits, IndexSpec(
        scheme="algorithm1", params={"rounds": 3}, seed=7))
    result = index.query(query_bits)
    result.answer_index, result.probes, result.rounds

    results = index.query_batch(query_bits_batch)  # batched, same answers

The index is **mutable**: :meth:`ANNIndex.insert` buffers fresh points
in an exactly-scanned memtable, :meth:`ANNIndex.delete` tombstones rows
so they never surface again, and an amortized compaction
(:meth:`ANNIndex.compact`, auto-triggered once the dirty fraction
exceeds ``compact_threshold``) rebuilds the static structure from the
surviving rows through the registry under the generation seed
``RngTree(seed).child("generation", g)`` — after which queries are
bitwise-identical to a from-scratch build on the survivors (see
:mod:`repro.core.mutable` for the exact contract).

Accepts either raw 0/1 bit arrays or pre-packed
:class:`~repro.hamming.points.PackedPoints`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.api import IndexSpec
from repro.cellprobe.scheme import CellProbingScheme, SchemeSizeReport
from repro.core.mutable import (
    DEFAULT_COMPACT_THRESHOLD,
    MutationState,
    generation_seed,
)
from repro.core.result import QueryResult
from repro.hamming.points import PackedPoints, coerce_rows
from repro.registry import build_scheme
from repro.service.engine import (
    BatchQueryEngine,
    BatchStats,
    merge_mutation_candidates,
)

__all__ = ["ANNIndex"]

DatabaseLike = Union[PackedPoints, np.ndarray]


def _coerce_database(database: DatabaseLike) -> PackedPoints:
    if isinstance(database, PackedPoints):
        return database
    arr = np.asarray(database)
    if arr.dtype == np.uint64:
        raise TypeError(
            "raw uint64 arrays are ambiguous; wrap packed data in PackedPoints"
        )
    return PackedPoints.from_bits(arr)


class ANNIndex:
    """γ-approximate nearest-neighbor index with a k-round probe budget.

    Use :meth:`from_spec`; the constructor takes an already-constructed
    scheme.
    """

    def __init__(
        self,
        database: PackedPoints,
        scheme: CellProbingScheme,
        spec: Optional[IndexSpec] = None,
        *,
        generation: int = 0,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ):
        self.database = database
        self.scheme = scheme
        #: the spec this index was built from (None for hand-built schemes)
        self.spec = spec
        #: how the payloads are resident: "heap" (built or materialized
        #: load) or "mmap" (zero-copy snapshot mapping; set by load())
        self.load_mode = "heap"
        self._last_batch_stats: Optional[BatchStats] = None
        # One engine per prefetch flag: the engine's table classification
        # is warm after the first batch, so reuse it across calls.
        self._engines: Dict[bool, BatchQueryEngine] = {}
        #: tombstones + memtable + generation counter (repro.core.mutable)
        self.mutation = MutationState(
            len(database),
            database.word_count,
            compact_threshold=compact_threshold,
            generation=generation,
        )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        database: DatabaseLike,
        spec: IndexSpec,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ) -> "ANNIndex":
        """Build an index from a validated :class:`~repro.api.IndexSpec`.

        This is the canonical constructor: the spec names a registered
        scheme, the registry builds it (boost wrapping included), and the
        spec rides along on the index for reproducibility
        (``index.spec.to_dict()`` round-trips the exact recipe).

        Specs with ``seed=None`` are pinned to fresh entropy first, so the
        index's spec always records the public coins that replay it — the
        invariant :meth:`save` depends on.

        ``compact_threshold`` tunes the amortized rebuild trigger of the
        mutation layer (fraction of static rows that may be dirty before
        :meth:`compact` fires automatically; ``float("inf")`` disables).
        """
        db = _coerce_database(database)
        spec = spec.resolve_seed()
        return cls(
            db, build_scheme(db, spec), spec=spec, compact_threshold=compact_threshold
        )

    # -- persistence -------------------------------------------------------
    def save(self, path, extras=None, write_seq=0) -> "str":
        """Snapshot this index to a directory (see :mod:`repro.persistence`).

        Writes a JSON manifest (format version + spec + seed), the packed
        database, and the scheme's array payloads as raw ``.npy`` files
        that :meth:`load` can also memory-map (``load_mode="mmap"``).
        ``extras`` (JSON-able mapping) lands in the manifest for harnesses
        to read back; ``write_seq`` records the replicated write-log
        position for shard replicas (``docs/DISTRIBUTED.md``).
        """
        from repro.persistence import save_index

        return str(save_index(self, path, extras=extras, write_seq=write_seq))

    @classmethod
    def load(cls, path, load_mode: str = "heap") -> "ANNIndex":
        """Load a snapshot written by :meth:`save`.

        The loaded index answers :meth:`query`/:meth:`query_batch`
        bitwise-identically to the index that was saved —
        ``load_mode="mmap"`` (format-v3 snapshots) maps the packed
        database and large scheme arrays zero-copy instead of
        materializing them, with identical answers and probe accounting.
        """
        from repro.persistence import load_index

        return load_index(path, load_mode=load_mode)

    def prepare(self) -> "ANNIndex":
        """Materialize deferred preprocessing now (sketch masks, per-level
        database sketches).  Returns ``self``; a snapshot saved afterwards
        carries the warmed arrays, so its loads skip that work."""
        self.scheme.prewarm()
        return self

    # -- mutation ----------------------------------------------------------
    def insert(self, points) -> List[int]:
        """Insert points (bit rows, packed rows, or :class:`PackedPoints`).

        Returns the inserted rows' global ids, in input order.  Inserts
        land in the memtable — exactly scanned by every query, so they
        are searchable immediately — until the amortized compaction folds
        them into the static structure.  When this call itself triggers a
        compaction, the returned ids are the *post-compaction* ids (ids
        are positional and remap when the survivors are renumbered).
        """
        rows = coerce_rows(points, self.database.d)
        if rows.shape[0] == 0:
            return []
        ids = self.mutation.insert_rows(rows)
        if self._maybe_compact():
            n = len(self.database)
            return list(range(n - rows.shape[0], n))
        return ids

    def delete(self, ids) -> int:
        """Delete rows by global id; returns how many were deleted.

        Static rows are tombstoned (the bitmap is consulted at
        result-merge time, so they never surface again); memtable rows
        are killed in place.  The call is atomic: an out-of-range,
        already-deleted, or repeated id raises ``ValueError`` and leaves
        the index unchanged.  May trigger the amortized compaction.
        """
        count = self.mutation.delete_ids(ids)
        self._maybe_compact()
        return count

    def compact(self) -> int:
        """Rebuild the static structure from the surviving rows now.

        Survivors keep their relative order (static survivors first, then
        live memtable rows) and are renumbered ``0..live-1``; the new
        structure is built through the registry with the next
        generation's seed, ``RngTree(seed).child("generation", g)``, so
        the compacted index answers **bitwise-identically** to
        ``ANNIndex.from_spec(survivors, spec.replace(seed=generation_seed(seed, g)))``.
        No-op on a clean index.  Returns the current generation.  Raises
        when the index has no spec (hand-built scheme), or when the
        scheme cannot be rebuilt on the survivors (e.g. fewer than 2 live
        rows for every registered scheme).
        """
        state = self.mutation
        if state.dirty_count == 0:
            return state.generation
        if self.spec is None:
            raise RuntimeError(
                "index has no spec (hand-built scheme); only registry-built "
                "indexes can compact"
            )
        if self.spec.seed is None:
            raise RuntimeError(
                "index spec has no concrete seed; build through "
                "ANNIndex.from_spec (which pins one)"
            )
        survivors = state.survivor_words(self.database.words)
        if survivors.shape[0] == 0:
            raise ValueError("cannot compact an index with no live rows")
        g = state.generation + 1
        new_db = PackedPoints(survivors, self.database.d)
        spec_g = self.spec.replace(seed=generation_seed(self.spec.seed, g))
        scheme = build_scheme(new_db, spec_g)  # may raise on scheme constraints
        self.database = new_db
        self.scheme = scheme
        self._engines = {}  # cached engines are bound to the old scheme
        self.mutation = MutationState(
            len(new_db),
            new_db.word_count,
            compact_threshold=state.compact_threshold,
            generation=g,
        )
        return g

    def _maybe_compact(self) -> bool:
        """Run the amortized compaction when the trigger fires.

        Deferred (returns False, state stays buffered) when the index has
        no rebuildable spec or the scheme's own constraints reject the
        current live set — the dirt is retried on later mutations.
        """
        if not self.mutation.should_compact():
            return False
        if self.spec is None or self.spec.seed is None:
            return False
        try:
            self.compact()
        except ValueError:
            return False
        return True

    @property
    def generation(self) -> int:
        """How many compactions this index has absorbed."""
        return self.mutation.generation

    @property
    def live_count(self) -> int:
        """Rows that are currently searchable (``len(self)``)."""
        return self.mutation.live_count

    @property
    def id_space(self) -> int:
        """Allocated global ids: static rows plus all memtable entries."""
        return self.mutation.id_space

    def is_live(self, global_id: int) -> bool:
        """Whether a global id currently resolves to a searchable row."""
        return self.mutation.is_live(global_id)

    def live_ids(self) -> np.ndarray:
        """All live global ids, ascending."""
        return self.mutation.live_ids()

    # -- querying ----------------------------------------------------------
    def _merge_mutations(
        self, queries: np.ndarray, results: List[QueryResult]
    ) -> List[QueryResult]:
        """Tombstone-filter + memtable-merge a batch of scheme results.

        Identity when the index is clean (no tombstones, no live
        memtable rows) — that pass-through is what makes a freshly
        compacted index bitwise-identical to a from-scratch build.
        """
        if not self.mutation.merge_needed or not results:
            return results
        return merge_mutation_candidates(queries, results, self.mutation)

    def query(self, x: Union[np.ndarray, list]) -> QueryResult:
        """Answer one query given as a length-d bit vector or packed row."""
        rows = coerce_rows(x, self.database.d)
        if rows.shape[0] != 1:
            raise ValueError(f"query needs one row, got {rows.shape[0]}")
        return self._merge_mutations(rows, [self.scheme.query(rows[0])])[0]

    def query_packed(self, x: np.ndarray) -> QueryResult:
        """Answer one query given as a packed uint64 row."""
        arr = np.asarray(x, dtype=np.uint64)
        return self._merge_mutations(arr[None, :], [self.scheme.query(arr)])[0]

    def _engine(self, prefetch: bool) -> BatchQueryEngine:
        """The cached batch engine for this prefetch flag."""
        engine = self._engines.get(prefetch)
        if engine is None:
            engine = BatchQueryEngine(self.scheme, prefetch=prefetch)
            self._engines[prefetch] = engine
        return engine

    def query_batch(
        self, queries: Union[np.ndarray, list], prefetch: bool = True
    ) -> List[QueryResult]:
        """Answer many queries at once through the batched engine.

        Accepts a ``(B, d)`` bit array or a packed ``(B, W)`` uint64 array
        (a single query is promoted to a batch of one).  Results are
        identical to a sequential :meth:`query` loop — same answers, same
        per-query probe/round accounting — but each adaptive round's work
        is vectorized across the whole batch, so throughput is much higher
        (see ``benchmarks/bench_e15_batch_throughput.py``).

        ``prefetch=False`` disables cross-query cell prefetching (the
        engine then only batches sketch addresses); mainly for tests.
        """
        arr = coerce_rows(queries, self.database.d)
        engine = self._engine(bool(prefetch))
        results = engine.run(arr)
        stats = engine.last_stats
        if results and self.mutation.merge_needed:
            results = self._merge_mutations(arr, results)
            # Memtable scans charge real probes; keep the batch stats
            # reconciled with the merged per-query accountants.
            stats = BatchStats(
                batch_size=stats.batch_size,
                sweeps=stats.sweeps,
                total_probes=sum(r.probes for r in results),
                total_rounds=sum(r.rounds for r in results),
                prefetched_cells=stats.prefetched_cells,
            )
        self._last_batch_stats = stats
        return results

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """Execution statistics of the most recent :meth:`query_batch`."""
        return self._last_batch_stats

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        """Number of live (searchable) points — static rows minus
        tombstones plus live memtable inserts."""
        return self.mutation.live_count

    @property
    def d(self) -> int:
        """Dimension of the Hamming cube."""
        return self.database.d

    @property
    def rounds(self) -> Optional[int]:
        """The scheme's declared round budget ``k``."""
        return getattr(self.scheme, "k", None)

    def size_report(self) -> SchemeSizeReport:
        """Logical table-size accounting of the underlying scheme."""
        return self.scheme.size_report()
