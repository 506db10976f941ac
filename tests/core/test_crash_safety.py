"""Crash safety of snapshot saves: killed mid-save is never silent damage.

``save_index`` commits a snapshot by writing the manifest *last*, via
temp + fsync + ``os.replace`` — so a process SIGKILLed at **any** point
of a save leaves a directory that either

* fails to load with a typed :class:`IndexPersistenceError` (the save
  never committed, or committed payloads were replaced mid-overwrite
  and no longer match a manifest), or
* loads **bitwise-identically** to a completed save (the kill landed
  after the commit point — or, when saving over an existing snapshot,
  before anything of the old state was disturbed).

The tests run real ``save`` calls in subprocesses and SIGKILL them at
seeded delays spanning the whole save duration; every outcome must fall
in one of those buckets — a load that succeeds but answers differently
from both the old and the new state is the bug this suite exists to
catch.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points
from repro.persistence import IndexPersistenceError, load_index

# The subprocess rebuilds this exact index (same seeds → bitwise the
# same) and saves it; the parent keeps its own copy as the reference.
N, D, DB_SEED, SPEC_SEED = 96, 128, 41, 17


def _reference_index(mutated: bool = False) -> ANNIndex:
    db = PackedPoints(random_points(np.random.default_rng(DB_SEED), N, D), D)
    index = ANNIndex.from_spec(
        db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=SPEC_SEED)
    )
    if mutated:
        rng = np.random.default_rng(SPEC_SEED + 1)
        index.insert(rng.integers(0, 2, size=(3, D), dtype=np.uint8))
        index.delete([0])
    return index


_SAVE_SCRIPT = """
import sys
import numpy as np
from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import random_points

target, mutated = sys.argv[1], sys.argv[2] == "1"
db = PackedPoints(random_points(np.random.default_rng({db_seed}), {n}, {d}), {d})
index = ANNIndex.from_spec(
    db, IndexSpec(scheme="algorithm1", params={{"rounds": 2}}, seed={spec_seed})
)
if mutated:
    rng = np.random.default_rng({spec_seed} + 1)
    index.insert(rng.integers(0, 2, size=(3, {d}), dtype=np.uint8))
    index.delete([0])
print("READY", flush=True)
sys.stdin.readline()  # parent says go; the kill timer starts now
index.save(target)
print("SAVED", flush=True)
""".format(n=N, d=D, db_seed=DB_SEED, spec_seed=SPEC_SEED)


def _save_in_subprocess(target: Path, mutated: bool, kill_after: float) -> bool:
    """Run a save in a subprocess, SIGKILL it ``kill_after`` seconds in.

    Returns whether the save reported completion before the kill.  The
    index build happens before the timer starts, so the kill window
    spans the save itself.
    """
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _SAVE_SCRIPT,
            str(target),
            "1" if mutated else "0",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == b"READY"
        proc.stdin.write(b"go\n")
        proc.stdin.flush()
        time.sleep(kill_after)
        proc.send_signal(signal.SIGKILL)
        out = proc.stdout.read()
        proc.wait()
        return b"SAVED" in out
    finally:
        proc.stdin.close()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _queries():
    return random_points(np.random.default_rng(7), 6, D)


def _answers(index: ANNIndex):
    return [
        (r.answer_index, r.probes, r.rounds, tuple(r.probes_per_round))
        for r in index.query_batch(_queries())
    ]


def _time_one_save(tmp_path) -> float:
    start = time.monotonic()
    _reference_index().save(tmp_path / "timing")
    return time.monotonic() - start


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
def test_fresh_save_killed_midway_errors_or_loads_complete(tmp_path, fraction):
    """A fresh-directory save killed anywhere: load either raises
    IndexPersistenceError or answers identically to a finished save."""
    duration = _time_one_save(tmp_path)
    target = tmp_path / "crash"
    completed = _save_in_subprocess(target, False, kill_after=fraction * duration)
    try:
        loaded = load_index(target)
    except IndexPersistenceError:
        assert not completed, "a completed save must stay loadable"
        return
    assert _answers(loaded) == _answers(_reference_index())


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6, 0.9, 1.2])
def test_overwrite_killed_midway_is_old_new_or_error(tmp_path, fraction):
    """Saving a *mutated* index over an existing snapshot — the in-place
    checkpoint path replicas use — killed anywhere: the directory loads
    as the old state, the new state, or a typed error — never a silent
    mixture of the two, and the previous checkpoint is never destroyed
    by the interrupted one."""
    duration = _time_one_save(tmp_path)
    target = tmp_path / "overwrite"
    _reference_index().save(target)  # the committed old state
    old = _answers(load_index(target))
    new = _answers(_reference_index(mutated=True))
    assert old != new, "mutation must be observable for this test to bite"
    _save_in_subprocess(target, True, kill_after=fraction * duration)
    try:
        loaded = load_index(target)
    except IndexPersistenceError:
        return  # torn overwrite detected loudly: acceptable
    assert _answers(loaded) in (old, new)


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6, 0.9, 1.2])
def test_v2_overwrite_killed_midway_is_old_new_or_error(
    tmp_path, legacy_snapshot, fraction
):
    """Saving over a committed format-v2 snapshot writes v3 beside it:
    killed anywhere, the directory loads as the old v2 state, the new
    v3 state, or a typed error."""
    duration = _time_one_save(tmp_path)
    target = legacy_snapshot("v2-single")
    old = _answers(load_index(target))
    new = _answers(_reference_index(mutated=True))
    assert old != new
    _save_in_subprocess(target, True, kill_after=fraction * duration)
    try:
        loaded = load_index(target)
    except IndexPersistenceError:
        return  # torn overwrite detected loudly: acceptable
    assert _answers(loaded) in (old, new)


def test_overwrite_leaves_old_snapshot_untouched_until_commit(tmp_path):
    """Deterministic pin of the commit rule: a new save's data files land
    under fresh epoch names, so anything a crashed save leaves there —
    even garbage — cannot disturb the committed snapshot."""
    target = tmp_path / "epoch"
    _reference_index().save(target)
    old = _answers(load_index(target))
    # what a save killed after its data writes but before the manifest
    # commit could leave behind: an epoch-1 root next to the old manifest
    for group in ("database", "arrays"):
        (target / "payloads-00000001" / group).mkdir(parents=True)
        (target / "payloads-00000001" / group / "words.npy").write_bytes(b"junk")
    assert _answers(load_index(target)) == old


def test_second_save_prunes_the_previous_epoch(tmp_path):
    """After a committed overwrite the stale epoch's files are gone and
    the directory loads as the new state."""
    target = tmp_path / "prune"
    _reference_index().save(target)
    _reference_index(mutated=True).save(target)
    names = {p.name for p in target.iterdir()}
    assert names == {"manifest.json", "payloads-00000001"}
    assert _answers(load_index(target)) == _answers(_reference_index(mutated=True))


def test_truncated_manifest_is_a_typed_error(tmp_path):
    """Byte-level pin of the commit rule: a manifest cut mid-JSON (what
    a non-atomic writer could leave) reads as IndexPersistenceError."""
    target = tmp_path / "torn"
    _reference_index().save(target)
    manifest = target / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:-20])
    with pytest.raises(IndexPersistenceError, match="unreadable manifest"):
        load_index(target)


def test_no_temp_manifest_left_behind_after_save(tmp_path):
    """The atomic write cleans up after itself on the happy path."""
    target = tmp_path / "clean"
    _reference_index().save(target)
    assert not list(target.glob("*.tmp"))
