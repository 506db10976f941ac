"""Sharded serving: partition the database, fan queries out, merge by
true distance.

:class:`ShardedANNIndex` is the shard-and-merge pattern of distributed
LSH/ANN services, on top of this package's existing layers.  The shard
decisions (:func:`shard_offsets`/:func:`locate`, :func:`route_inserts`,
:func:`merge_shard_answers`) are module functions that the router,
:class:`~repro.service.cluster.ShardRouter`, calls too.

* **Partitioning** splits the database rows into ``S`` contiguous shards
  of near-equal size; shard ``i`` owns global rows
  ``[offset_i, offset_i + n_i)``, so local answer indexes remap to global
  row ids by adding the shard's offset.
* **Building** constructs one registry scheme per shard, in process.
  Each shard gets its own public coins, derived from the root spec's
  seed through ``RngTree(seed).child("shard", i)`` (pass
  ``shared_seed=True`` to give every shard the root seed instead — with
  one shard that reproduces the unsharded index bitwise).
* **Residency** (:mod:`repro.storage.residency`): every shard lives
  behind a :class:`~repro.storage.residency.ShardHandle` driven by a
  :class:`~repro.storage.residency.ResidencyManager`.  In-memory builds
  keep every shard attached; :meth:`load` with ``load_mode="mmap"``
  and/or a ``memory_budget`` attaches shards lazily on first use, maps
  their payloads zero-copy, and evicts the least-recently-queried
  clean shards when the resident total exceeds the budget (pinned and
  dirty shards are exempt).  The first *write* to a clean mmap'd shard
  transparently promotes it to a heap reload (copy-on-write at shard
  granularity), so the mutation layer's bitwise guarantees are untouched.
* **Querying** runs each shard's existing
  :class:`~repro.service.engine.BatchQueryEngine` over the whole batch
  and merges per query by *true Hamming distance* between the query and
  each shard's answer point, tie-broken by smallest global row id.
  Shards answer in parallel rounds, so per-query accounting merges with
  :meth:`~repro.cellprobe.accounting.ProbeAccountant.merge_parallel`
  (probes add, rounds max), and per-shard
  :class:`~repro.service.engine.BatchStats` aggregate the same way
  (probes/prefetches sum, sweeps max).
* **Mutation** delegates to the shards' own mutation layers
  (:mod:`repro.core.mutable`): :meth:`ShardedANNIndex.insert` routes
  each new point to the shard with the fewest live rows (ties → the
  smallest shard index), :meth:`ShardedANNIndex.delete` maps global ids
  back to per-shard tombstones/memtable kills, and each shard compacts
  independently (amortized, or all at once via
  :meth:`ShardedANNIndex.compact`).  Global ids stay positional:
  shard ``i``'s ids occupy ``[offsets[i], offsets[i] + shard.id_space)``
  where the offsets are the running sum of the shards' *allocated* id
  spaces — so, like single-index ids, they remap when a shard grows or
  compacts.  (Cold shards report id spaces from their manifests, which
  is exact: a shard can only diverge from its snapshot by being written,
  and written shards are dirty, hence never evicted.)
"""

from __future__ import annotations

import bisect
import itertools
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import IndexSpec
from repro.cellprobe.accounting import ProbeAccountant
from repro.cellprobe.scheme import SchemeSizeReport
from repro.core.index import ANNIndex, DatabaseLike, _coerce_database
from repro.core.mutable import coerce_delete_ids
from repro.core.result import QueryResult
from repro.hamming.distance import hamming_distance
from repro.hamming.points import coerce_rows
from repro.service.engine import BatchStats, nearest_candidate
from repro.storage.residency import (
    ResidencyManager,
    ResidencyStats,
    ShardHandle,
    ShardMeta,
)
from repro.utils.rng import RngTree

__all__ = [
    "ShardedANNIndex",
    "locate",
    "merge_shard_answers",
    "route_inserts",
    "shard_bounds",
    "shard_label",
    "shard_offsets",
    "shard_seed",
]


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` row ranges for ``n`` rows.

    The first ``n % shards`` shards take one extra row, so sizes differ by
    at most one and every row lands in exactly one shard.
    """
    if shards < 1:
        raise ValueError(f"need >= 1 shard, got {shards}")
    if n < shards:
        raise ValueError(f"cannot split {n} rows into {shards} shards")
    base, extra = divmod(n, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def shard_seed(root_seed: int, shard: int) -> int:
    """Shard ``i``'s public-coin seed: ``RngTree(root).child("shard", i)``.

    Deterministic in the root seed, independent across shards."""
    return RngTree(root_seed).child("shard", shard).root_entropy


def shard_offsets(id_spaces: Sequence[int]) -> List[int]:
    """Each shard's first global id: the running sum of the id spaces."""
    return list(itertools.accumulate(id_spaces, initial=0))[:-1]


def locate(gid: int, offsets: Sequence[int], id_spaces: Sequence[int]) -> Tuple[int, int]:
    """Resolve a global id to ``(shard index, shard-local id)``.

    The id partition: shard ``i`` owns ``[offsets[i], offsets[i] +
    id_spaces[i])``.  Raises ``ValueError`` for ids outside every shard.
    """
    gid = int(gid)
    si = bisect.bisect_right(offsets, gid) - 1
    if si < 0 or gid - offsets[si] >= id_spaces[si]:
        raise ValueError(f"id {gid} out of range [0, {sum(id_spaces)})")
    return si, gid - offsets[si]


def route_inserts(live: Sequence[int], count: int) -> List[Tuple[int, int]]:
    """``(shard, position in its batch)`` for each of ``count`` new points.

    Greedy per point: each goes to the shard with the fewest live rows at
    that moment, ties to the smallest shard index.
    """
    live, sizes, routing = list(live), [0] * len(live), []
    for _ in range(count):
        si = live.index(min(live))
        routing.append((si, sizes[si]))
        sizes[si] += 1
        live[si] += 1
    return routing


def shard_label(inner: str, shards: int) -> str:
    """The scheme name merged results carry: ``sharded(<inner>×S)``."""
    return f"sharded({inner}×{shards})"


def merge_shard_answers(
    answers: Sequence[Optional[Tuple[int, int, Mapping]]],
    offsets: Sequence[int],
    inner: str,
) -> Tuple[Optional[int], Optional[int], Dict[str, object]]:
    """Merge one query's shard answers by ``(true distance, global id)``.

    ``answers[i]`` is shard ``i``'s ``(distance, local id, meta)``, or
    None.  Returns the winning shard and its global id (None, None when
    no shard answered) and the merged ``meta``.  The best true distance
    among the shards' answers is a c-approximate answer for the union.
    """
    best = nearest_candidate(
        None if answer is None else (int(answer[0]), offsets[si] + int(answer[1]), si)
        for si, answer in enumerate(answers)
    )
    meta: Dict[str, object] = {
        "shards": len(answers),
        "shards_answered": sum(answer is not None for answer in answers),
        "inner": inner,
    }
    if best is None:
        return None, None, meta
    distance, global_id, si = best
    meta.update(shard=si, distance=distance, winner_meta=dict(answers[si][2]))
    return si, global_id, meta


def _meta_from_index(shard: ANNIndex) -> ShardMeta:
    """Cold metadata for an in-memory shard (resident-size estimate only:
    such handles have no snapshot path, so they can never be evicted and
    the byte count only feeds the stats display)."""
    return ShardMeta(
        n=len(shard.database),
        d=shard.database.d,
        live_n=shard.live_count,
        generation=shard.generation,
        id_space=shard.id_space,
        scheme_name=shard.scheme.scheme_name,
        nbytes=int(shard.database.words.nbytes),
    )


def _meta_from_manifest(shard_dir: Path, manifest: Mapping[str, object]) -> ShardMeta:
    """Cold metadata from a format-v3 shard manifest — no payload I/O.

    The id space needs the memtable row count, which only the v3
    ``payloads`` index records without opening a v2 ``database.npz``;
    this is why lazy residency requires v3 snapshots.
    """
    from repro import persistence
    from repro.storage import layout

    payloads = persistence.payload_index(shard_dir, manifest)
    mem_rel = layout.payload_relpath(layout.DATABASE_DIR, "memtable_words")
    if mem_rel not in payloads:
        raise persistence.IndexPersistenceError(
            f"snapshot {shard_dir} payload index is missing {mem_rel}"
        )
    n = int(manifest["n"])
    return ShardMeta(
        n=n,
        d=int(manifest["d"]),
        live_n=int(manifest.get("live_n", n)),
        generation=int(manifest.get("generation", 0)),
        id_space=n + int(payloads[mem_rel]["shape"][0]),
        scheme_name=str(manifest.get("scheme_name", "?")),
        nbytes=layout.payload_nbytes(payloads),
    )


def _snapshot_loader(handle: ShardHandle) -> ANNIndex:
    """The residency manager's loader: (re)load a shard from its snapshot."""
    return ANNIndex.load(handle.path, load_mode=handle.load_mode)


class ShardedANNIndex:
    """``S`` per-shard ANN indexes served as one, with distance merging.

    Use :meth:`build` (or :meth:`load`); the constructor takes
    already-built shard indexes plus their global row offsets.
    """

    def __init__(
        self,
        shards: Sequence[ANNIndex],
        offsets: Sequence[int],
        spec: Optional[IndexSpec] = None,
    ):
        if not shards:
            raise ValueError("need at least one shard")
        if len(offsets) != len(shards):
            raise ValueError(
                f"{len(shards)} shards but {len(offsets)} offsets"
            )
        handles = [
            ShardHandle(
                shard_id=i,
                meta=_meta_from_index(shard),
                path=None,
                load_mode=getattr(shard, "load_mode", "heap"),
                index=shard,
            )
            for i, shard in enumerate(shards)
        ]
        self._init_state(handles, spec=spec, memory_budget=None, load_mode="heap")
        supplied = [int(o) for o in offsets]
        # Offsets are derived state (running sum of shard id spaces); the
        # constructor argument survives for snapshot/caller validation.
        if supplied != self.offsets:
            raise ValueError(
                f"offsets {supplied} do not match the shards' id spaces "
                f"(expected {self.offsets})"
            )

    def _init_state(
        self,
        handles: List[ShardHandle],
        spec: Optional[IndexSpec],
        memory_budget: Optional[int],
        load_mode: str,
    ) -> None:
        dims = {handle.meta.d for handle in handles}
        if len(dims) != 1:
            raise ValueError(f"shards disagree on dimension: {sorted(dims)}")
        self._handles = handles
        self._residency = ResidencyManager(
            handles, _snapshot_loader, memory_budget=memory_budget
        )
        #: the root spec sharding was derived from (None for hand-assembled)
        self.spec = spec
        self.d = handles[0].meta.d
        #: the mode shards load with ("mmap" keeps payloads zero-copy)
        self.load_mode = load_mode
        self._last_batch_stats: Optional[BatchStats] = None

    # -- residency ---------------------------------------------------------
    def _attach(self, shard_id: int, for_write: bool = False) -> ANNIndex:
        """The shard's live index, loading/evicting/promoting as needed."""
        return self._residency.attach(shard_id, for_write=for_write)

    @property
    def shards(self) -> List[ANNIndex]:
        """Every shard's live index (attaching all of them).

        The historical fully-resident surface: iterating or indexing this
        list forces cold shards in.  Residency-aware code should go
        through per-shard attaches instead and let the manager evict.
        """
        return [self._attach(i) for i in range(len(self._handles))]

    def residency_stats(self) -> ResidencyStats:
        """Hit/miss/eviction counters and per-shard occupancy."""
        return self._residency.stats()

    def pin(self, shard_id: int) -> None:
        """Exempt one shard from budget eviction."""
        self._residency.pin(shard_id)

    def unpin(self, shard_id: int) -> None:
        self._residency.unpin(shard_id)

    @property
    def memory_budget(self) -> Optional[int]:
        return self._residency.memory_budget

    @property
    def offsets(self) -> List[int]:
        """Each shard's first global id: the running sum of the shards'
        allocated id spaces (static rows + memtable entries).  Recomputed
        on demand because inserts and compactions resize shards; cold
        shards answer from their manifests without attaching."""
        return shard_offsets(self._id_spaces())

    def _id_spaces(self) -> List[int]:
        return [handle.id_space for handle in self._handles]

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: DatabaseLike,
        spec: IndexSpec,
        shards: int,
        warm: bool = True,
        shared_seed: bool = False,
        compact_threshold: Optional[float] = None,
    ) -> "ShardedANNIndex":
        """Partition ``database`` into ``shards`` and build every shard.

        ``warm`` materializes each shard's preprocessing at build time
        (:meth:`ANNIndex.prepare`).  ``shared_seed`` gives every shard the
        root seed instead of an independent ``RngTree("shard", i)``
        derivation.  ``compact_threshold`` forwards to every shard's
        mutation layer (None = the default amortized trigger).
        """
        from repro.core.mutable import DEFAULT_COMPACT_THRESHOLD

        threshold = (
            DEFAULT_COMPACT_THRESHOLD if compact_threshold is None else compact_threshold
        )
        db = _coerce_database(database)
        spec = spec.resolve_seed()
        bounds = shard_bounds(len(db), shards)
        specs = [
            spec if shared_seed else spec.replace(seed=shard_seed(spec.seed, i))
            for i in range(shards)
        ]
        built = [
            ANNIndex.from_spec(
                db.take(range(start, stop)),
                shard_spec,
                compact_threshold=threshold,
            )
            for (start, stop), shard_spec in zip(bounds, specs)
        ]
        if warm:
            for index in built:
                index.prepare()
        return cls(built, [start for start, _ in bounds], spec=spec)

    # -- persistence -------------------------------------------------------
    def save(self, path, extras=None) -> str:
        """Snapshot every shard plus a parent manifest to a directory.

        Every shard is written in the raw-payload layout :meth:`load` can
        memory-map.
        """
        from repro import persistence

        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        shard_dirs = []
        for i in range(self.num_shards):
            shard_dirs.append(f"shard-{i:04d}")
            self._attach(i).save(directory / shard_dirs[-1])
        manifest = {
            "format": persistence.FORMAT_NAME,
            "format_version": persistence.FORMAT_VERSION,
            "kind": persistence.KIND_SHARDED,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "shards": shard_dirs,
            "offsets": self.offsets,
            "d": self.d,
            "extras": dict(extras or {}),
        }
        persistence._write_manifest(directory, manifest)
        return str(directory)

    @classmethod
    def load(
        cls,
        path,
        load_mode: str = "heap",
        memory_budget: Optional[int] = None,
        pin: Sequence[int] = (),
    ) -> "ShardedANNIndex":
        """Load a snapshot written by :meth:`save`.

        The default (``load_mode="heap"``, no budget) attaches every
        shard eagerly, exactly as before.  ``load_mode="mmap"`` and/or a
        ``memory_budget`` (bytes) switch to *lazy residency*: shards
        attach on first query, map format-v3 payloads zero-copy, and the
        least-recently-used clean shards are evicted whenever the
        resident total exceeds the budget.  ``pin`` names shard indexes
        exempt from eviction.  Lazy loading requires every shard to be a
        format-v3 snapshot (the manifest payload index is what lets cold
        shards report sizes and id spaces without touching payload
        files), so v1/v2 snapshots load eagerly in heap mode only; answers
        are bitwise-identical in every mode.
        """
        from repro import persistence

        persistence.check_load_mode(load_mode)
        directory = Path(path)
        manifest = persistence.read_manifest(directory)
        if manifest.get("kind") != persistence.KIND_SHARDED:
            raise persistence.IndexPersistenceError(
                f"snapshot {directory} holds a {manifest.get('kind')!r}, "
                "not a sharded index"
            )
        lazy = load_mode == "mmap" or memory_budget is not None
        handles: List[ShardHandle] = []
        for i, shard_dir in enumerate(manifest["shards"]):
            shard_path = directory / shard_dir
            shard_manifest = persistence.read_manifest(shard_path)
            if lazy:
                persistence.require_mappable(
                    shard_path, int(shard_manifest["format_version"])
                )
                handle = ShardHandle(
                    shard_id=i,
                    meta=_meta_from_manifest(shard_path, shard_manifest),
                    path=shard_path,
                    load_mode=load_mode,
                )
            else:
                index = ANNIndex.load(shard_path, load_mode=load_mode)
                handle = ShardHandle(
                    shard_id=i,
                    meta=_meta_from_index(index),
                    path=shard_path,
                    load_mode=load_mode,
                    index=index,
                )
            handles.append(handle)
        for shard_id in pin:
            handles[int(shard_id)].pinned = True
        spec_dict = manifest.get("spec")
        spec = None if spec_dict is None else IndexSpec.from_dict(spec_dict)
        self = cls.__new__(cls)
        self._init_state(
            handles, spec=spec, memory_budget=memory_budget, load_mode=load_mode
        )
        supplied = [int(o) for o in manifest["offsets"]]
        if supplied != self.offsets:
            raise persistence.IndexPersistenceError(
                f"snapshot {directory} offsets {supplied} do not match the "
                f"shards' id spaces (expected {self.offsets})"
            )
        return self

    # -- querying ----------------------------------------------------------
    def query(self, x: Union[np.ndarray, list]) -> QueryResult:
        """Answer one query through every shard; best true distance wins."""
        rows = coerce_rows(x, self.d)
        if rows.shape[0] != 1:
            raise ValueError(f"query needs one row, got {rows.shape[0]}")
        return self.query_batch(rows)[0]

    def query_batch(
        self, queries: Union[np.ndarray, list], prefetch: bool = True
    ) -> List[QueryResult]:
        """Fan a batch out through every shard's batched engine and merge.

        Per query, every shard's answer is scored by its true Hamming
        distance to the query; the smallest distance wins (ties: smallest
        global row id).  Shards run in parallel rounds, so merged
        accounting sums probes and takes the max of rounds.

        Shards attach (and, under a memory budget, evict each other) one
        at a time as the fan-out walks them — per-shard stats are
        captured inside the walk, while the shard is certainly resident.
        """
        arr = coerce_rows(queries, self.d)
        offsets = self.offsets
        per_shard: List[List[QueryResult]] = []
        shard_stats: List[Optional[BatchStats]] = []
        for si in range(self.num_shards):
            shard = self._attach(si)
            per_shard.append(shard.query_batch(arr, prefetch=prefetch))
            shard_stats.append(shard.last_batch_stats)
        inner = self._handles[0].scheme_name
        merged: List[QueryResult] = []
        total_rounds = 0
        for qi in range(arr.shape[0]):
            accountant = ProbeAccountant()
            answers = []
            for res in (results[qi] for results in per_shard):
                accountant.merge_parallel(res.accountant)
                answers.append(
                    None
                    if res.answer_packed is None
                    else (hamming_distance(arr[qi], res.answer_packed), res.answer_index, res.meta)
                )
            total_rounds += accountant.total_rounds
            si, global_id, meta = merge_shard_answers(answers, offsets, inner)
            merged.append(
                QueryResult(
                    global_id,
                    None if si is None else per_shard[si][qi].answer_packed,
                    accountant,
                    scheme=self.scheme_label,
                    meta=meta,
                )
            )
        self._last_batch_stats = BatchStats(
            batch_size=arr.shape[0],
            sweeps=max((s.sweeps for s in shard_stats if s is not None), default=0),
            total_probes=sum(s.total_probes for s in shard_stats if s is not None),
            total_rounds=total_rounds,
            prefetched_cells=sum(
                s.prefetched_cells for s in shard_stats if s is not None
            ),
            memo_cells=sum(s.memo_cells for s in shard_stats if s is not None),
        )
        return merged

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """Aggregated statistics of the most recent :meth:`query_batch`."""
        return self._last_batch_stats

    # -- mutation ----------------------------------------------------------
    def insert(self, points) -> List[int]:
        """Insert points, each routed to the shard with the fewest live
        rows at that moment (ties → smallest shard index).

        Returns global ids in input order.  Routing is greedy per point —
        a batch spreads across shards as their live counts equalize —
        and each shard may run its own amortized compaction, so the
        returned ids are computed against the post-insert offsets.
        Receiving shards attach for write: a clean mmap'd shard is
        promoted to heap first (see :mod:`repro.storage.residency`).
        """
        rows = coerce_rows(points, self.d)
        if rows.shape[0] == 0:
            return []
        routing = route_inserts(
            [handle.live_count for handle in self._handles], rows.shape[0]
        )
        shard_of = np.array([si for si, _ in routing])
        local_ids = [
            self._attach(si, for_write=True).insert(rows[shard_of == si])
            if si in shard_of
            else []
            for si in range(self.num_shards)
        ]
        offsets = self.offsets
        return [offsets[si] + local_ids[si][pos] for si, pos in routing]

    def delete(self, ids) -> int:
        """Delete rows by global id; returns how many were deleted.

        Ids are mapped to ``(shard, local id)`` through the current
        offsets and pre-validated across every shard before any shard is
        touched, so a bad id leaves the whole sharded index unchanged.
        (Validation needs each target shard's mutation state, so targets
        attach read-only during the check and for-write only once the
        whole batch is known good.)
        """
        arr = coerce_delete_ids(ids)
        if arr.size == 0:
            return 0
        id_spaces = self._id_spaces()
        offsets = shard_offsets(id_spaces)
        per_shard: List[List[int]] = [[] for _ in self._handles]
        for gid in arr:
            si, local = locate(gid, offsets, id_spaces)
            if not self._attach(si).is_live(local):
                raise ValueError(f"id {int(gid)} is already deleted")
            per_shard[si].append(local)
        for si, locals_ in enumerate(per_shard):
            if locals_:
                self._attach(si, for_write=True).delete(locals_)
        return int(arr.size)

    def compact(self) -> List[int]:
        """Compact every dirty shard; returns the shards' generations.

        Raises if some dirty shard cannot rebuild (e.g. fewer than 2 live
        rows); shards already compacted before the error stay compacted.
        Shards with nothing to compact attach read-only (the no-op
        :meth:`ANNIndex.compact` does not diverge them from their
        snapshots, so they stay evictable).
        """
        generations: List[int] = []
        for si in range(self.num_shards):
            shard = self._attach(si)
            if shard.mutation.dirty_count:
                shard = self._attach(si, for_write=True)
            generations.append(shard.compact())
        return generations

    @property
    def generations(self) -> List[int]:
        """Each shard's compaction generation."""
        return [handle.generation for handle in self._handles]

    @property
    def live_count(self) -> int:
        return sum(handle.live_count for handle in self._handles)

    @property
    def id_space(self) -> int:
        return sum(handle.id_space for handle in self._handles)

    def is_live(self, global_id: int) -> bool:
        """Whether a global id currently resolves to a searchable row."""
        try:
            si, local = locate(global_id, self.offsets, self._id_spaces())
        except ValueError:
            return False
        return self._attach(si).is_live(local)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return sum(handle.live_count for handle in self._handles)

    @property
    def num_shards(self) -> int:
        return len(self._handles)

    @property
    def scheme_label(self) -> str:
        """The scheme name merged results carry: ``sharded(<inner>×S)``."""
        return shard_label(self._handles[0].scheme_name, len(self._handles))

    def size_report(self) -> SchemeSizeReport:
        """Combined logical size accounting across all shards (attaches
        every shard — sizes come from the live schemes)."""
        reports = [self._attach(i).size_report() for i in range(self.num_shards)]
        return SchemeSizeReport(
            table_cells=sum(r.table_cells for r in reports),
            word_bits=max(r.word_bits for r in reports),
            table_names=[
                (f"shard{i}", r.table_cells) for i, r in enumerate(reports)
            ],
            notes=f"{len(reports)} shards of {self._handles[0].scheme_name}",
        )
