"""On-disk snapshots of built indexes: the persistence codec.

An index snapshot is a directory holding a JSON manifest and a tree of
raw ``.npy`` payload files (FAISS-style index I/O, adapted to the
lazy-table simulator):

``manifest.json``
    Format name + version, the index's :meth:`IndexSpec.to_dict()
    <repro.api.IndexSpec.to_dict>` (always with a *concrete* seed — see
    below), the database geometry ``(n, d)``, the scheme name, the array
    payload keys, the mutation layer's ``generation`` counter,
    ``compact_threshold`` and ``live_n`` (a consistency check on the
    restored state), the ``payloads`` file index, and free-form
    ``extras`` (the CLI records its workload there so ``bench --index``
    can regenerate the matching queries).

``database/``
    The packed database (``words.npy``, the ``(n, W)`` uint64 word
    matrix) plus the mutation layer's state (:mod:`repro.core.mutable`):
    the ``tombstones`` bitmap over the static rows, the
    ``memtable_words`` of buffered inserts, and their
    ``memtable_deleted`` flags.

``arrays/``
    The scheme's array payloads from
    :meth:`~repro.cellprobe.scheme.CellProbingScheme.export_arrays`:
    per-level parity sketch masks, materialized database sketches, LSH
    sampled-bit positions, data-dependent pivots/dispatch masks — nested
    components namespaced by ``/``-separated keys (boosted copies under
    ``copy<i>/``), one file per key (:mod:`repro.storage.layout`).

Loading rebuilds the scheme through the registry from the manifest's spec
— every scheme derives all randomness from the spec's seed through
:class:`~repro.utils.rng.RngTree`, so the rebuild is bitwise-identical —
then installs the array payloads: lazily-derived caches (sketch masks,
database sketches) are primed so the loaded index answers without
recomputing preprocessing, and eagerly-rebuilt state (bucket hash
positions, pivots) is verified against the payload so a corrupted or
mismatched snapshot fails loudly instead of answering from different
randomness.  ``load(..., load_mode="mmap")`` maps the packed database and
large scheme arrays zero-copy instead, so a served index pages data in on
demand; mutation state is always loaded into heap — it mutates.

Concrete seeds are what make this sound: :meth:`ANNIndex.from_spec
<repro.core.index.ANNIndex.from_spec>` pins ``seed=None`` specs to fresh
entropy at build time, so every built index carries a seed that replays
its exact public coins.

**Format versions:** every save writes :data:`FORMAT_VERSION` (3).
Snapshots of the two older layouts stay readable in heap mode: v2 stored
the database and mutation state in ``database.npz`` and the scheme
arrays in ``arrays.npz``; v1 is v2 without mutation state, and loads as a
clean generation-0 index.  Compressed ``.npz`` members cannot be mapped,
so loading a v1/v2 snapshot with ``load_mode="mmap"`` raises a typed
error; saving over one writes v3 and removes the archives.

**Crash safety / save epochs:** the manifest is the *sole* commit
point.  Every save writes its payload tree under a fresh root — the first
save into a directory (``save_epoch`` 0) uses ``database/`` and
``arrays/`` directly; each overwrite bumps the epoch and writes under
``payloads-<epoch>/`` (recorded as ``payload_root``).  Payload files are
fsync'd and renamed into place, the manifest commits atomically last, and
only then is the previous epoch pruned.  A save killed at any point
leaves the directory loading as the old committed state, the new state,
or (fresh directories only) a typed error — never a torn mixture, and an
in-place checkpoint never disturbs the snapshot it replaces
(``tests/core/test_crash_safety.py``).

The full on-disk format specification — manifest fields, the
format-version policy, per-scheme payload keys, and the tamper checks —
lives in ``docs/PERSISTENCE.md``, written to be consumable without
reading this module.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

import numpy as np

from repro.storage import layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import ANNIndex

__all__ = [
    "FORMAT_VERSION",
    "IndexPersistenceError",
    "load_any",
    "load_index",
    "read_manifest",
    "save_index",
    "snapshot_write_seq",
]

#: The version every save writes, and the newest this build reads: the
#: raw ``.npy`` payload tree (:mod:`repro.storage.layout`) indexed by the
#: manifest, which ``load(..., load_mode="mmap")`` maps zero-copy.
#: Versions 1 and 2 (``.npz`` archives) are read-only.
FORMAT_VERSION = 3

#: Load modes :func:`load_index` accepts: ``"heap"`` materializes every
#: payload; ``"mmap"`` (format v3 only) maps the packed database and
#: scheme arrays zero-copy.  Answers are bitwise-identical either way.
LOAD_MODES = ("heap", "mmap")

FORMAT_NAME = "repro-ann-index"
MANIFEST_FILE = "manifest.json"
#: The archives a v1/v2 snapshot keeps its payloads in.
DATABASE_FILE = "database.npz"
ARRAYS_FILE = "arrays.npz"

#: Manifest ``kind`` values this module knows how to load.
KIND_INDEX = "ann-index"
KIND_SHARDED = "sharded-ann-index"

PathLike = Union[str, Path]


class IndexPersistenceError(RuntimeError):
    """A snapshot could not be written or read (missing files, unknown
    format version, payload/seed mismatch, unsaveable index)."""


def _write_manifest(path: Path, manifest: Dict[str, object]) -> None:
    """Write the manifest atomically (:func:`repro.storage.layout.atomic_write`).

    The manifest is written *last* in every save, so its appearance is
    what commits a snapshot.  A bare ``write_text`` could be caught
    mid-write by a crash and leave a truncated manifest — a snapshot
    that fails as garbage instead of reading as "incomplete save".
    With the rename, readers see either the old manifest or the new
    one, never a torn in-between.
    """
    text = json.dumps(manifest, indent=2, sort_keys=True)
    layout.atomic_write(path / MANIFEST_FILE, lambda fh: fh.write(text.encode("utf-8")))


def read_manifest(path: PathLike) -> Dict[str, object]:
    """Read and validate a snapshot directory's manifest.

    Raises :class:`IndexPersistenceError` when the directory is not a
    snapshot, the format name is foreign, or the format version is newer
    than this code understands.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise IndexPersistenceError(
            f"{directory} is not an index snapshot (no {MANIFEST_FILE})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise IndexPersistenceError(f"unreadable manifest in {directory}: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise IndexPersistenceError(
            f"{manifest_path} has format {manifest.get('format')!r}, "
            f"expected {FORMAT_NAME!r}"
        )
    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1 or version > FORMAT_VERSION:
        raise IndexPersistenceError(
            f"unsupported index format version {version!r} in {manifest_path} "
            f"(this build reads versions 1..{FORMAT_VERSION})"
        )
    return manifest


def check_load_mode(load_mode: str) -> str:
    """Validate a load-mode string (:data:`LOAD_MODES`)."""
    if load_mode not in LOAD_MODES:
        raise IndexPersistenceError(
            f"unknown load_mode {load_mode!r}; expected one of {LOAD_MODES}"
        )
    return load_mode


def require_mappable(directory: Path, version: int) -> None:
    """A v1/v2 snapshot under an mmap or lazy load is a typed error."""
    if version < FORMAT_VERSION:
        raise IndexPersistenceError(
            f"snapshot {directory} is format v{version}, whose compressed "
            f".npz payloads cannot be memory-mapped; load_mode='mmap' and "
            f"lazy sharded loads need format v{FORMAT_VERSION} — load it in "
            f"heap mode and save it again (every save writes "
            f"v{FORMAT_VERSION})"
        )


def _next_save_epoch(directory: Path) -> int:
    """The save epoch for the next save into ``directory``.

    Epoch 0 (a directory with no readable manifest — fresh, or wrecked
    beyond commitment) writes the canonical file names; every overwrite
    bumps the committed snapshot's epoch and writes under epoch-suffixed
    names.  Fresh names are what make overwrites crash-safe: the old
    snapshot's data files are never touched until the new manifest has
    committed, so a save killed at any point leaves the old state
    bitwise intact.
    """
    try:
        prior = read_manifest(directory)
    except IndexPersistenceError:
        return 0
    epoch = prior.get("save_epoch", 0)
    return (epoch if isinstance(epoch, int) and epoch >= 0 else 0) + 1


#: Epoch-suffixed payload roots: ``payloads-00000001/database/...``.
_PAYLOAD_ROOT_PREFIX = "payloads-"


def _payload_root_name(epoch: int) -> str:
    return "" if epoch == 0 else f"{_PAYLOAD_ROOT_PREFIX}{epoch:08d}"


def _manifest_filename(manifest: Mapping[str, object], key: str, default: str) -> str:
    """Resolve a v2 manifest's recorded archive name (plain names only)."""
    name = manifest.get(key) or default
    if not isinstance(name, str) or "/" in name or "\\" in name or name in (".", ".."):
        raise IndexPersistenceError(
            f"snapshot manifest has an unsafe {key} entry: {name!r}"
        )
    return name


def _payload_root(directory: Path, manifest: Mapping[str, object]) -> Path:
    """The directory a snapshot's payload tree lives under."""
    root = manifest.get("payload_root") or ""
    if root:
        if not isinstance(root, str) or "/" in root or "\\" in root or root in (".", ".."):
            raise IndexPersistenceError(
                f"snapshot {directory} manifest has an unsafe payload_root "
                f"entry: {root!r}"
            )
        return directory / root
    return directory


def _prune_stale_payloads(directory: Path, manifest: Mapping[str, object]) -> None:
    """Drop data files the just-committed manifest no longer references.

    Runs *after* the manifest commit, so a crash anywhere in the save
    leaves the previously committed snapshot untouched.  Covers old
    epochs' payload roots, the ``.npz`` archives of a v1/v2 snapshot
    saved over, and temp litter from saves that crashed mid-write.
    Unlinking files an mmap'd index (this process or a sibling) still
    maps is safe — POSIX keeps the inode alive for existing mappings.
    Best-effort: the manifest no longer names these files, so a failed
    removal costs disk, not correctness.
    """
    import shutil

    root = str(manifest.get("payload_root") or "")
    keep = {root} if root else {layout.DATABASE_DIR, layout.ARRAYS_DIR}
    for entry in directory.iterdir():
        name = entry.name
        if name in keep:
            continue
        if entry.is_file():
            stale = name.endswith(".tmp") or (
                name.endswith(".npz")
                and (name.startswith("database") or name.startswith("arrays"))
            )
        else:
            stale = name in (layout.DATABASE_DIR, layout.ARRAYS_DIR) or (
                name.startswith(_PAYLOAD_ROOT_PREFIX)
            )
        if not stale:
            continue
        try:
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()
        except OSError:
            pass


def save_index(
    index: "ANNIndex",
    path: PathLike,
    extras: Optional[Mapping[str, object]] = None,
    write_seq: int = 0,
) -> Path:
    """Snapshot a built :class:`~repro.core.index.ANNIndex` to ``path``.

    The directory is created if needed; existing snapshot files are
    overwritten.  ``extras`` lands verbatim in the manifest (JSON-able
    values only).  ``write_seq`` records the last replicated write-log
    sequence number this index has applied (see ``docs/DISTRIBUTED.md``);
    a replica restarted from the snapshot resumes catch-up from there.
    Snapshots written before the field existed read back as 0 through
    :func:`snapshot_write_seq`.  The snapshot is always format
    :data:`FORMAT_VERSION`, which both load modes accept.  Returns the
    directory path.

    Saves are crash-safe end to end, including overwrites: payload files
    go under a *fresh* epoch root (fsync'd, written via temp + rename),
    the manifest — which records that root — commits last and
    atomically, and only then are the previous epoch's files pruned.  A
    process killed at any point of a save leaves a directory that loads
    as the old committed state, the new state, or (fresh directory only)
    fails with a typed error — never a torn mixture, and never a
    destroyed predecessor.
    """
    spec = index.spec
    if spec is None:
        raise IndexPersistenceError(
            "index has no spec (hand-built scheme); only registry-built "
            "indexes (ANNIndex.from_spec) can be saved"
        )
    if spec.seed is None:
        raise IndexPersistenceError(
            "index spec has no concrete seed, so its randomness cannot be "
            "replayed; build through ANNIndex.from_spec (which pins one)"
        )
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    epoch = _next_save_epoch(directory)
    root_name = _payload_root_name(epoch)
    root = directory / root_name if root_name else directory
    root.mkdir(parents=True, exist_ok=True)
    db = index.database
    state = index.mutation
    arrays = index.scheme.export_arrays()
    try:
        payloads = layout.write_payloads(
            root,
            layout.DATABASE_DIR,
            {"words": db.words, **state.export_arrays()},
        )
        payloads.update(layout.write_payloads(root, layout.ARRAYS_DIR, arrays))
    except layout.StorageLayoutError as exc:
        raise IndexPersistenceError(str(exc)) from exc
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": KIND_INDEX,
        "spec": spec.to_dict(),
        "seed": spec.seed,
        "n": len(db),
        "d": db.d,
        "live_n": state.live_count,
        "generation": state.generation,
        "compact_threshold": state.compact_threshold,
        "scheme_name": index.scheme.scheme_name,
        "array_keys": sorted(arrays),
        "write_seq": int(write_seq),
        "save_epoch": epoch,
        "payloads": payloads,
        "payload_root": root_name,
        "extras": dict(extras or {}),
    }
    _write_manifest(directory, manifest)
    _prune_stale_payloads(directory, manifest)
    return directory


def snapshot_write_seq(path: PathLike) -> int:
    """The write-log sequence number a snapshot was taken at.

    0 for snapshots that never served replicated writes (including every
    snapshot written before the field existed — absence means "start of
    the log", so old snapshots replay the full write history, which is
    always safe).
    """
    value = read_manifest(path).get("write_seq", 0)
    if not isinstance(value, int) or value < 0:
        raise IndexPersistenceError(
            f"snapshot {path} has a malformed write_seq field: {value!r}"
        )
    return value


#: database.npz keys a format-v2 snapshot must carry beyond words/d.
_MUTATION_KEYS = ("tombstones", "memtable_words", "memtable_deleted")


def _read_npz(directory: Path, filename: str) -> Dict[str, np.ndarray]:
    """Read one snapshot ``.npz`` member into a plain dict.

    A missing, truncated, or otherwise unreadable archive — the
    ``database.npz``/``arrays.npz`` corruption cases the tamper tests
    cover — raises :class:`IndexPersistenceError` instead of leaking
    ``zipfile``/``numpy`` internals.
    """
    path = directory / filename
    if not path.is_file():
        raise IndexPersistenceError(f"snapshot {directory} is missing {filename}")
    try:
        with np.load(path) as payload:
            return {key: payload[key] for key in payload.files}
    except Exception as exc:
        raise IndexPersistenceError(
            f"snapshot {directory} has an unreadable {filename}: {exc}"
        ) from exc


def _load_database(directory: Path, version: int, manifest: Mapping[str, object]):
    """A v1/v2 snapshot's packed database plus (v2) its mutation triple."""
    from repro.hamming.points import PackedPoints

    db_file = _manifest_filename(manifest, "database_file", DATABASE_FILE)
    payload = _read_npz(directory, db_file)
    if "words" not in payload or "d" not in payload:
        raise IndexPersistenceError(
            f"snapshot {directory} {db_file} is missing words/d"
        )
    try:
        database = PackedPoints(payload["words"], int(payload["d"]))
    except Exception as exc:
        raise IndexPersistenceError(
            f"snapshot {directory} holds an invalid packed database: {exc}"
        ) from exc
    if version < 2:
        return database, None
    missing = [key for key in _MUTATION_KEYS if key not in payload]
    if missing:
        raise IndexPersistenceError(
            f"snapshot {directory} {db_file} is missing format-v2 "
            f"mutation payload(s): {', '.join(missing)}"
        )
    return database, tuple(payload[key] for key in _MUTATION_KEYS)


def payload_index(directory: Path, manifest: Mapping[str, object]) -> Dict[str, dict]:
    """The manifest's format-v3 ``payloads`` file index (relpath → info)."""
    payloads = manifest.get("payloads")
    if not isinstance(payloads, dict) or not payloads:
        raise IndexPersistenceError(
            f"snapshot {directory} manifest is missing the format-v3 "
            "payloads index"
        )
    return payloads


def _load_database_v3(directory: Path, manifest: Mapping[str, object], load_mode: str):
    """The packed database + mutation triple from the v3 payload tree.

    The word matrix honors ``load_mode``; the mutation triple is always
    materialized in heap — it is *mutable* state (tombstone flips,
    memtable appends), so it can never alias a read-only mapping.
    Mapped words skip the O(n) padding re-scan
    (:meth:`PackedPoints.from_validated`): paging in the whole file to
    re-check an invariant the packer already enforced would defeat the
    lazy load.
    """
    from repro.hamming.points import PackedPoints

    payloads = payload_index(directory, manifest)
    root = _payload_root(directory, manifest)
    try:
        words_rel = layout.payload_relpath(layout.DATABASE_DIR, "words")
        if words_rel not in payloads:
            raise IndexPersistenceError(
                f"snapshot {directory} payload index is missing {words_rel}"
            )
        words = layout.read_payload(root, words_rel, payloads[words_rel], load_mode)
        mutation = []
        for key in _MUTATION_KEYS:
            rel = layout.payload_relpath(layout.DATABASE_DIR, key)
            if rel not in payloads:
                raise IndexPersistenceError(
                    f"snapshot {directory} payload index is missing {rel}"
                )
            mutation.append(layout.read_payload(root, rel, payloads[rel], "heap"))
    except layout.StorageLayoutError as exc:
        raise IndexPersistenceError(str(exc)) from exc
    d = int(manifest["d"])
    try:
        if load_mode == "mmap":
            database = PackedPoints.from_validated(words, d)
        else:
            database = PackedPoints(words, d)
    except Exception as exc:
        raise IndexPersistenceError(
            f"snapshot {directory} holds an invalid packed database: {exc}"
        ) from exc
    return database, tuple(mutation)


def _read_arrays_v3(
    directory: Path, manifest: Mapping[str, object], load_mode: str
) -> Dict[str, np.ndarray]:
    """The scheme's array payloads from the v3 tree, keyed like the npz."""
    try:
        return layout.read_group(
            _payload_root(directory, manifest),
            payload_index(directory, manifest),
            layout.ARRAYS_DIR,
            load_mode,
        )
    except layout.StorageLayoutError as exc:
        raise IndexPersistenceError(str(exc)) from exc


def load_index(path: PathLike, load_mode: str = "heap") -> "ANNIndex":
    """Load a snapshot written by :func:`save_index`.

    The returned index answers bitwise-identically to the one saved: the
    scheme is rebuilt from the manifest's spec (seed derived through the
    recorded compaction generation, same registry factory), the array
    payloads are installed on top, and any tombstones/memtable state is
    restored and checked against the manifest's ``live_n``.

    ``load_mode="mmap"`` maps the packed database and large scheme
    arrays zero-copy instead of materializing them; answers and probe
    accounting stay bitwise-identical to ``"heap"``, the default.  v1/v2
    snapshots load in heap mode only.
    """
    from repro.api import IndexSpec
    from repro.core.index import ANNIndex
    from repro.core.mutable import DEFAULT_COMPACT_THRESHOLD, generation_seed
    from repro.registry import build_scheme

    check_load_mode(load_mode)
    directory = Path(path)
    manifest = read_manifest(directory)
    if manifest.get("kind") != KIND_INDEX:
        raise IndexPersistenceError(
            f"snapshot {directory} holds a {manifest.get('kind')!r}, not a "
            f"single index; use repro.persistence.load_any"
        )
    version = int(manifest["format_version"])
    if load_mode == "mmap":
        require_mappable(directory, version)
    if version >= FORMAT_VERSION:
        database, mutation_payload = _load_database_v3(directory, manifest, load_mode)
    else:
        database, mutation_payload = _load_database(directory, version, manifest)
    spec = IndexSpec.from_dict(manifest["spec"])
    if int(manifest["n"]) != len(database) or int(manifest["d"]) != database.d:
        raise IndexPersistenceError(
            f"manifest geometry (n={manifest['n']}, d={manifest['d']}) does "
            f"not match the stored database (n={len(database)}, d={database.d})"
        )
    generation = int(manifest.get("generation", 0))
    threshold = float(manifest.get("compact_threshold", DEFAULT_COMPACT_THRESHOLD))
    scheme_spec = spec
    if generation > 0:
        scheme_spec = spec.replace(seed=generation_seed(spec.seed, generation))
    scheme = build_scheme(database, scheme_spec)
    if version >= FORMAT_VERSION:
        arrays = _read_arrays_v3(directory, manifest, load_mode)
    else:
        arrays = _read_npz(
            directory, _manifest_filename(manifest, "arrays_file", ARRAYS_FILE)
        )
    try:
        # mmap loads adopt the payloads (header-validated, content
        # trusted) so no array is read in full before a query probes it;
        # heap loads keep the eager rebuild-and-verify restore.
        if load_mode == "mmap":
            scheme.adopt_arrays(arrays)
        else:
            scheme.restore_arrays(arrays)
    except ValueError as exc:
        raise IndexPersistenceError(
            f"snapshot {directory} payload rejected: {exc}"
        ) from exc
    index = ANNIndex(
        database,
        scheme,
        spec=spec,
        generation=generation,
        compact_threshold=threshold,
    )
    if mutation_payload is not None:
        try:
            index.mutation.restore_arrays(*mutation_payload)
        except ValueError as exc:
            raise IndexPersistenceError(
                f"snapshot {directory} mutation state rejected: {exc}"
            ) from exc
    if "live_n" in manifest and int(manifest["live_n"]) != index.live_count:
        raise IndexPersistenceError(
            f"snapshot {directory} mutation state is inconsistent: manifest "
            f"records {manifest['live_n']} live rows, payload restores "
            f"{index.live_count}"
        )
    index.load_mode = load_mode
    return index


def load_any(
    path: PathLike,
    load_mode: str = "heap",
    memory_budget: Optional[int] = None,
    pin=(),
):
    """Load whatever index kind a snapshot directory holds.

    Returns an :class:`~repro.core.index.ANNIndex` for single-index
    snapshots and a :class:`~repro.service.sharded.ShardedANNIndex` for
    sharded ones — the CLI's ``bench --index DIR`` / ``serve`` entry
    point.  ``load_mode``/``memory_budget``/``pin`` forward to the
    loaders; a ``memory_budget`` on a single-index snapshot is an error
    (residency eviction is per shard — there is nothing to evict below
    one index).
    """
    manifest = read_manifest(path)
    kind = manifest.get("kind")
    if kind == KIND_INDEX:
        if memory_budget is not None:
            raise IndexPersistenceError(
                f"snapshot {path} holds a single index; memory_budget "
                "controls per-shard residency and needs a sharded snapshot "
                "(use load_mode='mmap' alone to keep a single index "
                "out-of-core)"
            )
        return load_index(path, load_mode=load_mode)
    if kind == KIND_SHARDED:
        from repro.service.sharded import ShardedANNIndex

        return ShardedANNIndex.load(
            path, load_mode=load_mode, memory_budget=memory_budget, pin=pin
        )
    raise IndexPersistenceError(f"unknown snapshot kind {kind!r} in {path}")
