"""Unit tests for the durable per-shard write-ahead log.

:mod:`repro.service.wal` is the crash-safety foundation of the router
(``docs/DISTRIBUTED.md``): every property the recovery path relies on —
fsync'd appends that survive reopen, torn final lines dropped (and
*only* final lines), checksummed headers and entries, strictly
consecutive sequence numbers, atomic truncation rebasing — is pinned
here against the raw files, byte surgery included.
"""

from __future__ import annotations

import json

import pytest

from repro.service.wal import (
    WalCorruptionError,
    WalError,
    WriteAheadLog,
    entry_checksum,
    read_segment,
    segment_path,
)


@pytest.fixture()
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal").create_segments([0, 0])


class TestAppendAndReopen:
    def test_append_assigns_consecutive_sequences_per_shard(self, wal):
        assert wal.append(0, "insert", {"points": [[1]]}) == 1
        assert wal.append(0, "delete", {"ids": [0]}) == 2
        assert wal.append(1, "insert", {"points": [[0]]}) == 1
        assert wal.head(0) == 2 and wal.head(1) == 1
        assert wal.appends == 3

    def test_reopen_continues_where_the_writer_left_off(self, wal):
        wal.append(0, "insert", {"points": [[1, 0]]})
        wal.append(0, "delete", {"ids": [3]})
        wal.close()
        reopened = WriteAheadLog(wal.log_dir).open_segments(num_shards=2)
        assert reopened.entries(0) == [
            {"seq": 1, "op": "insert", "payload": {"points": [[1, 0]]}},
            {"seq": 2, "op": "delete", "payload": {"ids": [3]}},
        ]
        assert reopened.entries(1) == []
        # appends after reopen extend the same history
        assert reopened.append(0, "insert", {"points": [[0, 1]]}) == 3
        reopened.close()
        assert WriteAheadLog(wal.log_dir).open_segments().head(0) == 3

    def test_nonzero_base_is_preserved_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal").create_segments([7])
        assert wal.base(0) == 7
        assert wal.append(0, "insert", {"points": []}) == 8
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal").open_segments()
        assert reopened.base(0) == 7 and reopened.head(0) == 8

    def test_create_refuses_to_clobber_existing_segments(self, wal):
        wal.close()
        with pytest.raises(WalError, match="--recover"):
            WriteAheadLog(wal.log_dir).create_segments([0, 0])

    def test_open_requires_segments(self, tmp_path):
        with pytest.raises(WalError, match="no WAL segments"):
            WriteAheadLog(tmp_path / "empty").open_segments()

    def test_open_pins_the_shard_count_to_the_shard_map(self, wal):
        wal.close()
        with pytest.raises(WalError, match="3 shards"):
            WriteAheadLog(wal.log_dir).open_segments(num_shards=3)

    def test_open_requires_contiguous_shard_coverage(self, wal):
        wal.close()
        # duplicate shard 0's segment over shard 1's: headers now claim
        # shards [0, 0], which cannot cover 0..1
        segment_path(wal.log_dir, 1).write_bytes(
            segment_path(wal.log_dir, 0).read_bytes()
        )
        with pytest.raises(WalError, match="cover shards"):
            WriteAheadLog(wal.log_dir).open_segments()


class TestTornTail:
    """A crash mid-append may tear the FINAL line only — leaving it
    without its trailing newline; recovery drops it (the write was never
    acknowledged) and rewrites the file clean.  Any damage to a
    newline-*terminated* line, even the last, is external corruption of
    a completed (possibly acknowledged) append and must raise."""

    def _truncated(self, path, drop: int):
        raw = path.read_bytes()
        path.write_bytes(raw[:-drop])

    def test_partial_final_line_is_dropped_on_open(self, wal):
        wal.append(0, "insert", {"points": [[1, 1]]})
        wal.append(0, "insert", {"points": [[0, 0]]})
        wal.close()
        self._truncated(segment_path(wal.log_dir, 0), 9)
        reopened = WriteAheadLog(wal.log_dir).open_segments()
        assert reopened.torn_tails == 1
        assert [e["seq"] for e in reopened.entries(0)] == [1]
        # the torn bytes were physically removed: appends replace seq 2
        assert reopened.append(0, "delete", {"ids": [1]}) == 2
        reopened.close()
        clean = read_segment(segment_path(wal.log_dir, 0))
        assert not clean["torn_tail"]
        assert [e["op"] for e in clean["entries"]] == ["insert", "delete"]

    def test_corrupt_checksum_on_terminated_final_line_raises(self, wal):
        """The fsync'd append completed (the newline is there); a bad
        checksum on it is bit-rot of acknowledged history, not a torn
        tail — dropping it silently would lose a replicated write."""
        wal.append(1, "insert", {"points": [[1]]})
        wal.close()
        path = segment_path(wal.log_dir, 1)
        lines = path.read_bytes().splitlines()
        record = json.loads(lines[-1])
        record["checksum"] = "00000000"
        lines[-1] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            read_segment(path)

    def test_corrupt_checksum_on_unterminated_final_line_is_torn(self, wal):
        """The same damage without the trailing newline *is* the torn
        shape a killed append leaves, and stays tolerated."""
        wal.append(1, "insert", {"points": [[1]]})
        wal.close()
        path = segment_path(wal.log_dir, 1)
        lines = path.read_bytes().splitlines()
        record = json.loads(lines[-1])
        record["checksum"] = "00000000"
        lines[-1] = json.dumps(record).encode()
        path.write_bytes(b"\n".join(lines))  # no trailing newline
        parsed = read_segment(path)
        assert parsed["torn_tail"] and parsed["entries"] == []

    def test_damage_before_the_final_line_raises_corruption(self, wal):
        wal.append(0, "insert", {"points": [[1]]})
        wal.append(0, "insert", {"points": [[0]]})
        path = segment_path(wal.log_dir, 0)
        wal.close()
        lines = path.read_bytes().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear a NON-final entry
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(WalCorruptionError, match="entry line 2"):
            read_segment(path)

    def test_sequence_gap_raises_corruption(self, wal):
        wal.append(0, "insert", {"points": [[1]]})
        path = segment_path(wal.log_dir, 0)
        wal.close()
        record = {"seq": 5, "op": "delete", "payload": {"ids": [0]}}
        record["checksum"] = entry_checksum(5, "delete", record["payload"])
        extra = json.dumps(record).encode() + b"\n"
        # valid-looking entry, wrong seq, followed by one more line so the
        # torn-tail tolerance cannot excuse it
        path.write_bytes(path.read_bytes() + extra + extra)
        with pytest.raises(WalCorruptionError, match="expected 2"):
            read_segment(path)

    def test_header_damage_is_never_tolerated(self, wal):
        wal.close()
        path = segment_path(wal.log_dir, 0)
        header = json.loads(path.read_bytes().splitlines()[0])
        header["base_seq"] = 42  # no longer matches its checksum
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(WalCorruptionError, match="header checksum"):
            read_segment(path)

    def test_foreign_file_is_rejected(self, wal):
        wal.close()
        path = segment_path(wal.log_dir, 0)
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(WalCorruptionError, match="not a repro-shard-wal"):
            read_segment(path)


class TestTruncate:
    def test_truncate_rebases_and_survives_reopen(self, wal):
        for i in range(4):
            wal.append(0, "insert", {"points": [[i]]})
        assert wal.truncate(0, 3) == 3
        assert wal.base(0) == 3 and wal.head(0) == 4
        assert [e["seq"] for e in wal.entries(0)] == [4]
        wal.close()
        reopened = WriteAheadLog(wal.log_dir).open_segments()
        assert reopened.base(0) == 3
        assert [e["seq"] for e in reopened.entries(0)] == [4]

    def test_truncate_is_clamped_and_idempotent(self, wal):
        wal.append(0, "insert", {"points": [[1]]})
        assert wal.truncate(0, 99) == 1  # clamped to the head
        assert wal.base(0) == wal.head(0) == 1
        assert wal.truncate(0, 99) == 0  # nothing left to drop
        assert wal.truncate(0, 0) == 0  # behind the base: no-op
        assert wal.truncations == 1

    def test_appends_continue_after_truncation(self, wal):
        wal.append(0, "insert", {"points": [[1]]})
        wal.truncate(0, 1)
        assert wal.append(0, "delete", {"ids": [0]}) == 2
        wal.close()
        parsed = read_segment(segment_path(wal.log_dir, 0))
        assert parsed["base_seq"] == 1
        assert [e["seq"] for e in parsed["entries"]] == [2]

    def test_describe_reports_segment_positions(self, wal):
        wal.append(0, "insert", {"points": [[1]]})
        wal.append(0, "insert", {"points": [[0]]})
        wal.truncate(0, 1)
        stats = wal.describe()
        assert stats["appends"] == 2 and stats["truncations"] == 1
        assert stats["segments"][0] == {
            "shard": 0, "base_seq": 1, "head": 2, "entries": 1,
        }
        assert stats["segments"][1] == {
            "shard": 1, "base_seq": 0, "head": 0, "entries": 0,
        }


class TestMemoryOnly:
    """``log_dir=None`` is the router's memory-only log: the same
    positions, entries and truncation rule, and no file anywhere."""

    def test_appends_and_truncates_without_touching_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        log = WriteAheadLog(None).create_segments([4, 0])
        assert not log.has_segments
        assert log.append(0, "insert", {"points": [[1]]}) == 5
        assert log.append(0, "delete", {"ids": [2]}) == 6
        assert log.truncate(0, 5) == 1
        assert log.base(0) == 5 and log.head(0) == 6
        assert log.entries(0) == [{"seq": 6, "op": "delete", "payload": {"ids": [2]}}]
        assert log.truncate(0, 99) == 1 and log.base(0) == log.head(0) == 6
        # the disk counters and the stats block describe durable logs only
        assert log.appends == log.truncations == 0
        assert log.describe() is None
        log.close()
        assert list(tmp_path.iterdir()) == []
