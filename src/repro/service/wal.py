"""The shard router's per-shard write log, in memory or durable.

The router's write log (``docs/DISTRIBUTED.md``) is the cluster's
source of truth: replica state is a pure function of (snapshot,
applied log prefix).  :class:`WriteAheadLog` is that log, and the
router holds no other copy.  Built with ``log_dir=None`` it keeps each
shard's base and entries in memory and opens no file — a router crash
then loses every entry past the replicas' applied sequence.  Built
with a directory it makes the log durable:

* One append-only JSONL **segment** per shard (``shard-NNNN.wal``
  under ``log_dir``).  The first line is a header recording the
  segment's ``base_seq`` (the replicas' agreed applied sequence when
  the segment was created or last truncated); every following line is
  one entry ``{"seq", "op", "payload", "checksum"}``.
* **fsync-on-append**: :meth:`append` writes the entry line, flushes,
  and ``os.fsync``\\ s before returning — the router only replicates a
  write after it is durable, so a crash at *any* point leaves a log
  that replays to a prefix of the acknowledged history plus at most
  the in-flight write.
* **Torn-tail tolerance**: a crash mid-append can leave a truncated
  final line — recognizable because the file then lacks a trailing
  newline (an entry is one sequential write ending in ``\\n``).  On
  open, such an unterminated tail is dropped (and counted).  A
  *newline-terminated* line that fails to parse or checksum — even the
  final one — was fully appended and later damaged: that is external
  corruption of possibly acknowledged history and raises loudly.
* **Atomic header/truncation writes**: segment creation and
  :meth:`truncate` rewrite the file through
  :func:`repro.storage.layout.atomic_write` (temp + fsync + rename, like
  the snapshot manifests), so a crash never leaves a half-written
  header.

Sequence numbers are the router's per-shard write sequence:
``base_seq`` + the entry count is the log head, and entries are
strictly consecutive.  :meth:`truncate` advances ``base_seq`` to the
minimum replica ``snapshot_seq`` once every replica has persisted a
snapshot covering the prefix — the dropped entries can never be needed
again.  Memory-only and durable logs truncate by the same rule.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, IO, List, Optional

from repro.storage.layout import atomic_write

__all__ = [
    "WalCorruptionError",
    "WalError",
    "WriteAheadLog",
    "entry_checksum",
    "read_segment",
    "segment_path",
]

WAL_FORMAT = "repro-shard-wal"
WAL_VERSION = 1


class WalError(RuntimeError):
    """Write-ahead-log failure (misuse, unreadable segment, bad state)."""


class WalCorruptionError(WalError):
    """A segment is damaged beyond the tolerated torn final line."""


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def entry_checksum(seq: int, op: str, payload: dict) -> str:
    """CRC32 (hex) over the canonical JSON of ``[seq, op, payload]``."""
    data = _canonical([int(seq), str(op), payload]).encode("utf-8")
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def _header_checksum(shard: int, base_seq: int) -> str:
    return entry_checksum(base_seq, "__header__", {"shard": int(shard)})


def segment_path(log_dir: Path, shard: int) -> Path:
    return Path(log_dir) / f"shard-{int(shard):04d}.wal"


def read_segment(path: Path) -> Dict[str, object]:
    """Parse one segment: ``{"shard", "base_seq", "entries", "torn_tail"}``.

    Entries come back as ``{"seq", "op", "payload"}`` dicts (checksums
    verified and stripped).  A torn final line — one the file does not
    newline-terminate, i.e. an append a crash cut short — is dropped
    and reported; damage anywhere else, including a terminated final
    line, raises :class:`WalCorruptionError`.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise WalError(f"cannot read WAL segment {path}: {exc}") from exc
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, so the final split piece is
    # empty; anything else is a torn tail candidate.
    complete, tail = (lines[:-1], lines[-1]) if lines else ([], b"")
    if not complete:
        raise WalCorruptionError(f"WAL segment {path} has no header line")

    def parse(line: bytes, what: str):
        try:
            record = json.loads(line)
        except (ValueError, UnicodeDecodeError) as exc:
            raise WalCorruptionError(
                f"WAL segment {path}: unparseable {what}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise WalCorruptionError(f"WAL segment {path}: {what} is not an object")
        return record

    header = parse(complete[0], "header line")
    if header.get("wal") != WAL_FORMAT:
        raise WalCorruptionError(f"{path} is not a {WAL_FORMAT} segment: {header}")
    if header.get("version") != WAL_VERSION:
        raise WalError(
            f"WAL segment {path} has version {header.get('version')}, "
            f"this build reads version {WAL_VERSION}"
        )
    try:
        shard = int(header["shard"])
        base_seq = int(header["base_seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruptionError(f"WAL segment {path}: bad header fields") from exc
    if header.get("checksum") != _header_checksum(shard, base_seq):
        raise WalCorruptionError(f"WAL segment {path}: header checksum mismatch")

    entries: List[dict] = []
    torn_tail = False
    body = complete[1:]
    if tail:
        body = body + [tail]  # no trailing newline: the tail is suspect
    for i, line in enumerate(body):
        # Torn-tail tolerance applies only to the unterminated tail
        # piece: entry lines are single sequential writes ending in a
        # newline, so a crash mid-append can never persist the newline
        # without the bytes before it.  A *terminated* final line that
        # fails to parse or checksum was fully appended and then damaged
        # — possibly an acknowledged, replicated write — and silently
        # dropping it would be data loss, not crash tolerance.
        tearable = bool(tail) and i == len(body) - 1
        try:
            record = parse(line, f"entry line {i + 2}")
            seq = int(record["seq"])
            op = str(record["op"])
            payload = record["payload"]
            if not isinstance(payload, dict):
                raise WalCorruptionError(
                    f"WAL segment {path}: entry {seq} payload is not an object"
                )
            if record.get("checksum") != entry_checksum(seq, op, payload):
                raise WalCorruptionError(
                    f"WAL segment {path}: entry line {i + 2} checksum mismatch"
                )
        except (WalCorruptionError, KeyError, TypeError, ValueError):
            if tearable:
                # Torn tail: a crash mid-append left a truncated final
                # line.  Never replayed.
                torn_tail = True
                break
            raise
        expected = base_seq + len(entries) + 1
        if seq != expected:
            raise WalCorruptionError(
                f"WAL segment {path}: entry line {i + 2} has seq {seq}, "
                f"expected {expected}"
            )
        entries.append({"seq": seq, "op": op, "payload": payload})
    return {
        "shard": shard,
        "base_seq": base_seq,
        "entries": entries,
        "torn_tail": torn_tail,
    }


class _Segment:
    """One shard's log: base, entries and (when durable) the segment
    file's path and append handle."""

    def __init__(
        self, path: Optional[Path], shard: int, base_seq: int, entries: List[dict]
    ):
        self.path = path
        self.shard = shard
        self.base_seq = base_seq
        self.entries = entries
        self._handle: Optional[IO[bytes]] = None

    @property
    def head(self) -> int:
        return self.base_seq + len(self.entries)

    def _append_handle(self) -> IO[bytes]:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class WriteAheadLog:
    """Per-shard write log, memory-only (``log_dir=None``) or durable
    under one directory.

    Lifecycle: construct, then either :meth:`open_segments` (recovery:
    parse what is on disk) or :meth:`create_segments` (fresh start: one
    log per shard seeded at the replicas' agreed sequence).
    :attr:`has_segments` says which applies; a memory-only log never has
    any.  All methods are synchronous (the router calls them from async
    code via plain method calls — each durable append is one small
    write plus an fsync, the durability cost the log exists to pay).
    ``appends`` and ``truncations`` count disk writes, so both stay 0
    for a memory-only log.
    """

    def __init__(self, log_dir=None) -> None:
        self.log_dir = None if log_dir is None else Path(log_dir)
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
        self._segments: List[_Segment] = []
        self.appends = 0
        self.truncations = 0
        self.torn_tails = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def has_segments(self) -> bool:
        return self.log_dir is not None and any(self.log_dir.glob("shard-*.wal"))

    @property
    def num_shards(self) -> int:
        return len(self._segments)

    def open_segments(self, num_shards: Optional[int] = None) -> "WriteAheadLog":
        """Load the existing segments (recovery path).

        Segments must cover shards ``0..S-1`` exactly; ``num_shards``
        (when given) additionally pins S — a mismatch with the shard
        map is a deployment error, not something to paper over.
        """
        paths = sorted(self.log_dir.glob("shard-*.wal")) if self.log_dir else []
        if not paths:
            raise WalError(f"no WAL segments under {self.log_dir}")
        parsed = [(path, read_segment(path)) for path in paths]
        shards = [segment["shard"] for _, segment in parsed]
        if shards != list(range(len(parsed))):
            raise WalError(
                f"WAL segments under {self.log_dir} cover shards {shards}, "
                f"expected 0..{len(parsed) - 1}"
            )
        if num_shards is not None and len(parsed) != num_shards:
            raise WalError(
                f"WAL under {self.log_dir} has {len(parsed)} segments, "
                f"the shard map has {num_shards} shards"
            )
        self.close()
        self._segments = []
        for path, found in parsed:
            segment = _Segment(path, found["shard"], found["base_seq"], found["entries"])
            if found["torn_tail"]:
                # Physically drop the torn tail so later appends start
                # on a clean line boundary.
                self.torn_tails += 1
                self._rewrite(segment)
            self._segments.append(segment)
        return self

    def create_segments(self, bases: List[int]) -> "WriteAheadLog":
        """Start one empty log per shard, seeded at ``bases[si]`` (and
        written as a fresh segment file when durable)."""
        if self.has_segments:
            raise WalError(
                f"{self.log_dir} already holds WAL segments; pass --recover "
                "to replay them or point --log-dir at a fresh directory"
            )
        self.close()
        self._segments = []
        for shard, base_seq in enumerate(bases):
            path = None if self.log_dir is None else segment_path(self.log_dir, shard)
            segment = _Segment(path, shard, int(base_seq), [])
            if path is not None:
                self._rewrite(segment)
            self._segments.append(segment)
        return self

    def close(self) -> None:
        for segment in self._segments:
            segment.close()

    # -- accessors ---------------------------------------------------------
    def _segment(self, shard: int) -> _Segment:
        if not 0 <= shard < len(self._segments):
            raise WalError(
                f"shard {shard} out of range; WAL has {len(self._segments)} segments"
            )
        return self._segments[shard]

    def base(self, shard: int) -> int:
        return self._segment(shard).base_seq

    def head(self, shard: int) -> int:
        return self._segment(shard).head

    def entries(self, shard: int) -> List[dict]:
        """The shard's logged entries (``{"seq", "op", "payload"}``), a copy."""
        return [dict(entry) for entry in self._segment(shard).entries]

    def describe(self) -> Optional[dict]:
        """Stats block: directory, counters, per-segment positions (None
        for a memory-only log)."""
        if self.log_dir is None:
            return None
        return {
            "dir": str(self.log_dir),
            "appends": self.appends,
            "truncations": self.truncations,
            "torn_tails": self.torn_tails,
            "segments": [
                {
                    "shard": segment.shard,
                    "base_seq": segment.base_seq,
                    "head": segment.head,
                    "entries": len(segment.entries),
                }
                for segment in self._segments
            ],
        }

    # -- mutation ----------------------------------------------------------
    def append(self, shard: int, op: str, payload: dict) -> int:
        """Append one entry; returns its sequence number.

        On a durable log the entry is on disk (written, flushed,
        fsync'd) before this returns — only then may the router offer
        it to replicas.
        """
        segment = self._segment(shard)
        seq = segment.head + 1
        if segment.path is not None:
            record = {
                "seq": seq,
                "op": str(op),
                "payload": payload,
                "checksum": entry_checksum(seq, op, payload),
            }
            line = (_canonical(record) + "\n").encode("utf-8")
            handle = segment._append_handle()
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
            self.appends += 1
        segment.entries.append({"seq": seq, "op": str(op), "payload": payload})
        return seq

    def truncate(self, shard: int, upto_seq: int) -> int:
        """Drop entries with ``seq <= upto_seq``; returns the count dropped.

        Advances ``base_seq`` (and atomically rewrites the segment when
        durable).  A no-op (returns 0) when ``upto_seq`` is at or behind
        the current base; clamped to the head (the log never truncates
        entries that do not exist yet).
        """
        segment = self._segment(shard)
        upto = min(int(upto_seq), segment.head)
        if upto <= segment.base_seq:
            return 0
        dropped = upto - segment.base_seq
        segment.base_seq = upto
        segment.entries = segment.entries[dropped:]
        if segment.path is not None:
            self._rewrite(segment)
            self.truncations += 1
        return dropped

    def _rewrite(self, segment: _Segment) -> None:
        """Atomically rewrite a segment from its in-memory state."""
        segment.close()
        header = {
            "wal": WAL_FORMAT,
            "version": WAL_VERSION,
            "shard": segment.shard,
            "base_seq": segment.base_seq,
            "checksum": _header_checksum(segment.shard, segment.base_seq),
        }
        lines = [_canonical(header)]
        for entry in segment.entries:
            record = {
                "seq": entry["seq"],
                "op": entry["op"],
                "payload": entry["payload"],
                "checksum": entry_checksum(
                    entry["seq"], entry["op"], entry["payload"]
                ),
            }
            lines.append(_canonical(record))
        text = "".join(line + "\n" for line in lines)
        atomic_write(segment.path, lambda fh: fh.write(text.encode("utf-8")))
