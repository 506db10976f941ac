"""Streaming mutation state: tombstones, the insert memtable, compaction.

Every scheme in the package builds a *static* structure for a fixed
database.  :class:`MutationState` is the bookkeeping that dynamizes such
a structure the classic way (tombstones + write buffer + amortized
rebuild), shared by :class:`~repro.core.index.ANNIndex` and, through it,
the sharded and async serving layers:

* **Tombstones** — a bitmap over the static rows, consulted at
  result-merge time (:func:`repro.service.engine.merge_mutation_candidates`)
  so a deleted row can never surface as an answer.  Checking the bitmap
  is metadata work, not a cell probe, so it is never charged.
* **Memtable** — fresh inserts, kept out of the static structure and
  *exactly* scanned at query time (one probe per live memtable row,
  charged as one extra parallel round merged with the static rounds).
* **Generations** — the amortized rebuild counter.  Compaction rebuilds
  the static structure from the surviving rows through the registry with
  seed ``RngTree(seed).child("generation", g)`` (:func:`generation_seed`),
  which is what makes the rebuild-equivalence oracle reproducible: after
  compaction to generation ``g`` the index is *bitwise identical* — same
  answers, same probe/round accounting — to a fresh
  ``ANNIndex.from_spec(survivors, spec.replace(seed=generation_seed(seed, g)))``.

**Row ids are positional and remap at compaction** (the FAISS
``remove_ids`` convention): at any moment ids ``0..n_static-1`` are the
static rows (tombstoned ids stay allocated but dead) and ids
``n_static..n_static+m-1`` are the memtable entries in insertion order;
compaction renumbers the survivors — static survivors first, in id
order, then live memtable rows — to ``0..live-1``.

The invariant the property harness in
``tests/integration/test_mutation_properties.py`` checks at every step:
the answer of a mutated index is exactly the documented merge of (a) a
fresh registry build of the current generation's base rows under the
generation seed and (b) the exact memtable scan, with tombstoned rows
filtered — i.e. query answers are a pure function of
``(base rows, seed, generation, tombstones, memtable)``, never of the
mutation history that produced them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngTree

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "Memtable",
    "MutationState",
    "coerce_delete_ids",
    "generation_seed",
]


def coerce_delete_ids(ids) -> np.ndarray:
    """Validated int64 id array for a delete call.

    The single id-validation gate shared by every delete surface
    (:meth:`MutationState.delete_ids`, the sharded index, the async
    service, the wire client): the list must be flat, genuinely integer
    (int64-casting a float array would silently truncate and delete the
    wrong row), and free of within-call duplicates.
    """
    raw = np.atleast_1d(np.asarray(ids))
    if raw.ndim != 1:
        raise ValueError(f"delete expects a flat id list, got shape {raw.shape}")
    if raw.size == 0:
        return raw.astype(np.int64)
    if not np.issubdtype(raw.dtype, np.integer):
        raise ValueError(f"ids must be integers, got dtype {raw.dtype}")
    arr = raw.astype(np.int64)
    unique, counts = np.unique(arr, return_counts=True)
    repeated = unique[counts > 1]
    if repeated.size:
        raise ValueError(f"duplicate ids in one delete call: {repeated.tolist()}")
    return arr

#: Compact once (tombstones + memtable entries) exceed this fraction of
#: the static row count.  ``float("inf")`` disables auto-compaction.
DEFAULT_COMPACT_THRESHOLD = 0.25


def generation_seed(seed: int, generation: int) -> int:
    """The public-coin seed of rebuild generation ``generation``.

    Generation 0 is the original build, so it keeps the root seed
    (existing snapshots and specs stay bitwise-reproducible); generation
    ``g >= 1`` derives ``RngTree(seed).child("generation", g)`` — a
    deterministic, collision-free stream per rebuild, so the
    rebuild-equivalence oracle can re-derive any generation's coins from
    the root spec alone.
    """
    if seed is None:
        raise ValueError("generation seeds need a concrete root seed")
    if generation == 0:
        return int(seed)
    return RngTree(int(seed)).child("generation", int(generation)).root_entropy


class Memtable:
    """Fresh inserts, exactly scanned at query time.

    Entries keep their position (and therefore their global id) until the
    next compaction; deleting a memtable entry marks it dead in place so
    later entries' ids never shift between compactions.
    """

    __slots__ = ("_word_count", "_rows", "_deleted", "_live_count", "_live_cache")

    def __init__(self, word_count: int):
        self._word_count = int(word_count)
        self._rows: List[np.ndarray] = []
        self._deleted: List[bool] = []
        self._live_count = 0
        # (positions, words) of the live entries; queried on every merge,
        # invalidated on every mutation.
        self._live_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        """Total entries, dead ones included (they still occupy ids)."""
        return len(self._rows)

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def live_count(self) -> int:
        """Entries that are still live (scanned per query, one probe each)."""
        return self._live_count

    def append(self, row: np.ndarray) -> int:
        """Add one packed row; returns its memtable position."""
        arr = np.asarray(row, dtype=np.uint64).ravel()
        if arr.shape[0] != self._word_count:
            raise ValueError(
                f"memtable rows have {self._word_count} words, got {arr.shape[0]}"
            )
        self._rows.append(arr.copy())
        self._deleted.append(False)
        self._live_count += 1
        self._live_cache = None
        return len(self._rows) - 1

    def is_live(self, position: int) -> bool:
        return 0 <= position < len(self._rows) and not self._deleted[position]

    def delete(self, position: int) -> None:
        """Mark one live entry dead (caller validates liveness first)."""
        if not self.is_live(position):
            raise ValueError(f"memtable position {position} is not live")
        self._deleted[position] = True
        self._live_count -= 1
        self._live_cache = None

    def live_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, words)`` of the live entries, in position order.

        Position order is insertion order, so the first minimum of a
        distance scan over ``words`` is automatically the smallest global
        id — the tie-break rule of the result merge.  Cached between
        mutations: queries hit this on every merge.
        """
        if self._live_cache is None:
            positions = np.array(
                [i for i, dead in enumerate(self._deleted) if not dead],
                dtype=np.int64,
            )
            if positions.size == 0:
                words = np.empty((0, self._word_count), dtype=np.uint64)
            else:
                words = np.vstack([self._rows[i] for i in positions])
            self._live_cache = (positions, words)
        return self._live_cache

    def all_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(words, deleted)`` for every entry in position order (the
        persistence payload — dead entries ship too, so ids survive a
        save/load cycle unchanged)."""
        words = (
            np.vstack(self._rows)
            if self._rows
            else np.empty((0, self._word_count), dtype=np.uint64)
        )
        return words, np.array(self._deleted, dtype=bool)


class MutationState:
    """Tombstones + memtable + generation counter for one static database.

    All id arithmetic lives here; :class:`~repro.core.index.ANNIndex`
    owns one instance and swaps in a fresh one at each compaction.
    """

    def __init__(
        self,
        n_static: int,
        word_count: int,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
        generation: int = 0,
    ):
        if not (compact_threshold > 0):  # also rejects NaN
            raise ValueError(
                f"compact_threshold must be > 0 (inf disables), got {compact_threshold}"
            )
        self.n_static = int(n_static)
        self.compact_threshold = float(compact_threshold)
        self.generation = int(generation)
        self.tombstones = np.zeros(self.n_static, dtype=bool)
        self.tombstone_count = 0
        self.memtable = Memtable(word_count)

    # -- derived counts ----------------------------------------------------
    @property
    def id_space(self) -> int:
        """Allocated ids: static rows plus every memtable entry ever added."""
        return self.n_static + len(self.memtable)

    @property
    def live_count(self) -> int:
        return self.n_static - self.tombstone_count + self.memtable.live_count

    @property
    def dirty_count(self) -> int:
        """Rows a compaction would clean up: tombstones + memtable entries."""
        return self.tombstone_count + len(self.memtable)

    @property
    def merge_needed(self) -> bool:
        """Whether query results need the mutation merge at all.

        False exactly when no static row is tombstoned and no live
        memtable row exists — then results pass through untouched, which
        is what makes a freshly compacted index bitwise-identical to a
        from-scratch build.
        """
        return self.tombstone_count > 0 or self.memtable.live_count > 0

    def should_compact(self) -> bool:
        """The amortized trigger: dirty fraction over the static size.

        Never triggers below 2 live rows (no registered scheme can build
        on fewer); the dirt stays buffered until rows return.
        """
        if self.dirty_count == 0 or self.live_count < 2:
            return False
        return self.dirty_count > self.compact_threshold * max(1, self.n_static)

    # -- id queries --------------------------------------------------------
    def is_live(self, global_id: int) -> bool:
        gid = int(global_id)
        if 0 <= gid < self.n_static:
            return not self.tombstones[gid]
        return self.memtable.is_live(gid - self.n_static)

    def live_ids(self) -> np.ndarray:
        """All live global ids, ascending (static rows then memtable)."""
        static_live = np.flatnonzero(~self.tombstones).astype(np.int64)
        positions, _ = self.memtable.live_entries()
        return np.concatenate([static_live, positions + self.n_static])

    # -- mutations ---------------------------------------------------------
    def insert_rows(self, words: np.ndarray) -> List[int]:
        """Append packed rows to the memtable; returns their global ids."""
        return [self.n_static + self.memtable.append(row) for row in words]

    def delete_ids(self, ids) -> int:
        """Tombstone/kill the given global ids; returns how many.

        Validates *everything* before touching any state, so a bad id —
        out of range, already dead, or repeated within the call — leaves
        the index unchanged (the call is atomic).
        """
        arr = coerce_delete_ids(ids)
        if arr.size == 0:
            return 0
        bad = [int(g) for g in arr if not (0 <= g < self.id_space)]
        if bad:
            raise ValueError(
                f"ids out of range [0, {self.id_space}): {bad}"
            )
        dead = [int(g) for g in arr if not self.is_live(int(g))]
        if dead:
            raise ValueError(f"ids already deleted: {dead}")
        for gid in arr:
            gid = int(gid)
            if gid < self.n_static:
                self.tombstones[gid] = True
                self.tombstone_count += 1
            else:
                self.memtable.delete(gid - self.n_static)
        return int(arr.size)

    # -- compaction support ------------------------------------------------
    def survivor_words(self, static_words: np.ndarray) -> np.ndarray:
        """The live rows in the post-compaction id order: static survivors
        (original id order) followed by live memtable rows (insertion
        order)."""
        static_live = static_words[~self.tombstones]
        _, mem_words = self.memtable.live_entries()
        return np.concatenate([static_live, mem_words], axis=0)

    # -- persistence hooks -------------------------------------------------
    def export_arrays(self) -> dict:
        """The snapshot mutation payload (``database/`` payload keys)."""
        words, deleted = self.memtable.all_entries()
        return {
            "tombstones": self.tombstones.astype(np.uint8),
            "memtable_words": words,
            "memtable_deleted": deleted.astype(np.uint8),
        }

    def restore_arrays(
        self,
        tombstones: np.ndarray,
        memtable_words: np.ndarray,
        memtable_deleted: np.ndarray,
    ) -> None:
        """Install a snapshot's mutation payload (validating shapes)."""
        stones = np.asarray(tombstones)
        if stones.shape != (self.n_static,):
            raise ValueError(
                f"tombstone bitmap has shape {stones.shape}, "
                f"expected ({self.n_static},)"
            )
        words = np.asarray(memtable_words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != self.memtable.word_count:
            raise ValueError(
                f"memtable words have shape {words.shape}, expected "
                f"(m, {self.memtable.word_count})"
            )
        deleted = np.asarray(memtable_deleted).astype(bool)
        if deleted.shape != (words.shape[0],):
            raise ValueError(
                f"memtable deletion flags have shape {deleted.shape}, "
                f"expected ({words.shape[0]},)"
            )
        self.tombstones = stones.astype(bool).copy()
        self.tombstone_count = int(self.tombstones.sum())
        self.memtable = Memtable(words.shape[1])
        for i in range(words.shape[0]):
            pos = self.memtable.append(words[i])
            if deleted[i]:
                self.memtable.delete(pos)
