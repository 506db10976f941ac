"""Out-of-core storage: zero-copy snapshot payloads and shard residency.

Two layers, both below the index logic and above the filesystem:

* :mod:`repro.storage.layout` — the snapshot payload tree (format v3):
  every large array is its own raw ``.npy`` file, indexed by the manifest, so
  ``load_mode="mmap"`` maps the packed database and per-scheme arrays
  zero-copy instead of materializing them in heap.
* :mod:`repro.storage.residency` — :class:`ResidencyManager`: lazy
  per-shard attach, LRU eviction under a memory budget, and the
  write-promotes-to-heap rule that keeps mutation bitwise-sound.

The persistence codec (:mod:`repro.persistence`) writes and reads the
layout; :class:`~repro.service.sharded.ShardedANNIndex` drives the
residency manager.  ``docs/PERSISTENCE.md`` documents the on-disk
format, ``docs/SERVING.md`` the serving-side behavior.
"""

from repro.storage.layout import StorageLayoutError
from repro.storage.residency import (
    ResidencyError,
    ResidencyManager,
    ResidencyStats,
    ShardHandle,
    ShardMeta,
)

__all__ = [
    "ResidencyError",
    "ResidencyManager",
    "ResidencyStats",
    "ShardHandle",
    "ShardMeta",
    "StorageLayoutError",
]
