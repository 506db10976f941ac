"""The format-v3 payload tree: raw ``.npy`` files for zero-copy loads.

The read-only formats v1/v2 pack every array into two compressed
``.npz`` archives — compact, but an archive member can only be *read*,
never mapped: loading always decompresses the whole payload into heap.
Format v3, the one every save writes, trades a little disk for
residency control: each array becomes its own uncompressed ``.npy`` file
under the snapshot directory, so ``np.load(..., mmap_mode="r")`` maps it
zero-copy and the OS pages data in on demand.  (Modern numpy aligns the ``.npy`` header to 64 bytes, so
mapped arrays are allocator-grade aligned.)

Layout inside a snapshot directory::

    database/words.npy              the packed database
    database/tombstones.npy         mutation payload (always loaded heap)
    database/memtable_words.npy
    database/memtable_deleted.npy
    arrays/<key...>.npy             one file per export_arrays() key,
                                    '/'-separated components as nested
                                    directories (copy0/accurate/3.npy)

The manifest's ``payloads`` field indexes every file::

    {"arrays/accurate/0.npy": {"shape": [12, 1024], "dtype": "<u8",
                               "nbytes": 98304}, ...}

The index is what makes *cold* snapshots cheap to reason about: the
residency layer (:mod:`repro.storage.residency`) reads shard sizes and
memtable row counts from manifests alone, without opening a single
payload file.

This module is deliberately free of index/scheme knowledge — it moves
named arrays to and from disk.  The persistence codec
(:mod:`repro.persistence`) owns what the names mean.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Mapping

import numpy as np

__all__ = [
    "ARRAYS_DIR",
    "DATABASE_DIR",
    "StorageLayoutError",
    "atomic_write",
    "key_from_relpath",
    "payload_nbytes",
    "payload_relpath",
    "read_group",
    "read_payload",
    "write_payloads",
]

DATABASE_DIR = "database"
ARRAYS_DIR = "arrays"

#: Every '/'-separated key component must be a plain filename — no path
#: tricks (``..``), no separators, nothing the filesystem would reinterpret.
_COMPONENT = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")

LOAD_MODES = ("heap", "mmap")


class StorageLayoutError(RuntimeError):
    """A payload tree could not be written or read (bad key, missing or
    mismatched payload file)."""


def check_load_mode(load_mode: str) -> str:
    """Validate and return a load mode (``"heap"`` or ``"mmap"``)."""
    if load_mode not in LOAD_MODES:
        raise StorageLayoutError(
            f"unknown load_mode {load_mode!r}; expected one of {LOAD_MODES}"
        )
    return load_mode


def payload_relpath(group: str, key: str) -> str:
    """The snapshot-relative path for array ``key`` in ``group``.

    ``key`` components split on ``/`` and become nested directories, so
    the export-key namespace (``copy0/accurate/3``) maps onto the
    filesystem unchanged.
    """
    components = key.split("/")
    if not all(_COMPONENT.match(c) for c in components):
        raise StorageLayoutError(
            f"array key {key!r} has a component unsafe as a filename"
        )
    return "/".join([group, *components]) + ".npy"


def key_from_relpath(group: str, relpath: str) -> str:
    """Invert :func:`payload_relpath` for entries of ``group``."""
    prefix = group + "/"
    if not relpath.startswith(prefix) or not relpath.endswith(".npy"):
        raise StorageLayoutError(
            f"payload path {relpath!r} does not belong to group {group!r}"
        )
    return relpath[len(prefix) : -len(".npy")]


def atomic_write(target: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``target`` atomically: ``write(fh)`` fills a temp file next
    to it, which is flushed, fsync'd and ``os.replace``\\ d into place;
    then the directory is fsync'd (best effort) so the rename survives a
    crash.  Readers see the old file or the new one, never a torn mix.
    The snapshot payloads and manifest and the write-ahead log's
    segments are all written this way."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    try:
        fd = os.open(target.parent, os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds; the rename still happened
    try:
        os.fsync(fd)
    except OSError:
        pass  # unsupported on this filesystem; best effort
    finally:
        os.close(fd)


def write_payloads(
    directory: Path, group: str, arrays: Mapping[str, np.ndarray]
) -> Dict[str, Dict[str, object]]:
    """Write each array as ``<group>/<key>.npy``; return the payload index.

    The returned mapping (relpath → shape/dtype/nbytes) goes into the
    manifest, where it serves both as the read-side file list and as the
    cold-size oracle for the residency layer.

    Each file is written to a temp name, fsync'd, and ``os.replace``\\ d
    into place, so the final path always holds a *fresh, complete* inode:
    a process (this one or a sibling replica) that has the old file
    mmap'd keeps reading the old bytes — POSIX keeps a replaced inode
    alive for existing mappings — instead of seeing pages change (or
    zero out) under a live query, and a crash mid-write never leaves a
    half-written payload at the final name.
    """
    index: Dict[str, Dict[str, object]] = {}
    for key in sorted(arrays):
        arr = np.asarray(arrays[key])
        relpath = payload_relpath(group, key)
        target = directory / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(target, lambda fh: np.save(fh, arr, allow_pickle=False))
        index[relpath] = {
            "shape": [int(s) for s in arr.shape],
            "dtype": arr.dtype.str,
            "nbytes": int(arr.nbytes),
            # Byte offset of the raw data past the .npy header (the file
            # is exactly header + data).  Recorded so mmap reads can map
            # the data region directly — without it, every cold attach
            # pays one random header read per payload file just to
            # rediscover what the manifest already knows.
            "offset": int(target.stat().st_size) - int(arr.nbytes),
        }
    return index


def read_payload(
    directory: Path,
    relpath: str,
    info: Mapping[str, object],
    load_mode: str = "heap",
) -> np.ndarray:
    """Load one indexed payload, heap or zero-copy mmap.

    Heap reads parse the ``.npy`` header and check its shape and dtype
    against the manifest's index entry, so a swapped or truncated payload
    fails loudly before any query runs — the v3 analogue of the npz
    tamper checks.  Mmap reads go the other way: the manifest entry's
    shape, dtype, and data offset describe the mapping directly, so
    attaching a shard reads *no* payload bytes at all (not even headers);
    a file too short for its manifest entry still fails at map time.
    """
    check_load_mode(load_mode)
    path = directory / relpath
    if not path.is_file():
        raise StorageLayoutError(f"snapshot {directory} is missing {relpath}")
    expected_shape = tuple(int(s) for s in info.get("shape", ()))
    expected_dtype = str(info.get("dtype"))
    if load_mode == "mmap" and "offset" in info:
        dtype = np.dtype(expected_dtype)
        nbytes = int(info.get("nbytes", 0))
        if nbytes == 0:
            return np.zeros(expected_shape, dtype=dtype)
        try:
            size = path.stat().st_size
            if size < int(info["offset"]) + nbytes:
                raise ValueError(
                    f"file is {size} bytes, too short for the mapped region"
                )
            return np.memmap(
                path, dtype=dtype, mode="r", offset=int(info["offset"]),
                shape=expected_shape,
            )
        except (OSError, ValueError) as exc:
            raise StorageLayoutError(
                f"payload {relpath} cannot be mapped as "
                f"{expected_dtype}{list(expected_shape)} that the manifest "
                f"records: {exc}"
            ) from exc
    try:
        arr = np.load(
            path, mmap_mode="r" if load_mode == "mmap" else None, allow_pickle=False
        )
    except Exception as exc:
        raise StorageLayoutError(
            f"snapshot {directory} has an unreadable {relpath}: {exc}"
        ) from exc
    if arr.shape != expected_shape or arr.dtype.str != expected_dtype:
        raise StorageLayoutError(
            f"payload {relpath} is {arr.dtype.str}{list(arr.shape)} on disk "
            f"but the manifest records {expected_dtype}{list(expected_shape)}"
        )
    return arr


def read_group(
    directory: Path,
    payload_index: Mapping[str, Mapping[str, object]],
    group: str,
    load_mode: str = "heap",
) -> Dict[str, np.ndarray]:
    """Load every payload of ``group`` back into a key → array dict."""
    out: Dict[str, np.ndarray] = {}
    for relpath in sorted(payload_index):
        if not relpath.startswith(group + "/"):
            continue
        key = key_from_relpath(group, relpath)
        out[key] = read_payload(directory, relpath, payload_index[relpath], load_mode)
    return out


def payload_nbytes(payload_index: Mapping[str, Mapping[str, object]]) -> int:
    """Total bytes the indexed payloads occupy once resident."""
    return sum(int(info.get("nbytes", 0)) for info in payload_index.values())
