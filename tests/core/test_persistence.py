"""Save/load round-trips through :mod:`repro.persistence`.

The acceptance bar: for every scheme in ``available_schemes()`` (plain
and boosted), an index loaded from a snapshot answers ``query`` and
``query_batch`` bitwise-identically to the index that was saved — same
answers, same probe/round accounting — and malformed snapshots (unknown
format version, tampered payloads, foreign directories) fail loudly.
Snapshots in the read-only formats v1 and v2 come from the committed
fixtures in ``tests/fixtures/snapshots``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.persistence import (
    FORMAT_VERSION,
    IndexPersistenceError,
    load_any,
    load_index,
    read_manifest,
    save_index,
)
from repro.registry import available_schemes, build_scheme
from repro.service.sharded import ShardedANNIndex


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(1234)
    n, d = 96, 128
    db = PackedPoints(random_points(gen, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, n))), int(gen.integers(0, 12)), d
            )
            for _ in range(12)
        ]
        + [random_points(gen, 4, d)]
    )
    return db, queries


def assert_results_equal(saved, loaded):
    assert len(saved) == len(loaded)
    for s, l in zip(saved, loaded):
        assert s.answer_index == l.answer_index
        assert s.probes == l.probes
        assert s.rounds == l.rounds
        assert s.probes_per_round == l.probes_per_round
        assert s.scheme == l.scheme
        if s.answer_packed is None:
            assert l.answer_packed is None
        else:
            assert np.array_equal(s.answer_packed, l.answer_packed)


def _array_keys(snapshot_dir):
    return read_manifest(snapshot_dir)["array_keys"]


def _tamper_array(snapshot_dir, key):
    # Same shape and dtype, so the payload index still matches: only the
    # scheme's own restore checks can catch it.
    path = snapshot_dir / "arrays" / f"{key}.npy"
    np.save(path, np.roll(np.load(path), 1))


ROUND_TRIP_CASES = [
    pytest.param(name, boost, id=f"{name}-boost{boost}")
    for name in available_schemes()
    for boost in (1, 2)
]


class TestRoundTrip:
    @pytest.mark.parametrize("scheme,boost", ROUND_TRIP_CASES)
    def test_bitwise_identical_answers_after_reload(
        self, scheme, boost, workload, tmp_path
    ):
        db, queries = workload
        spec = IndexSpec(scheme=scheme, seed=17, boost=boost)
        index = ANNIndex.from_spec(db, spec)
        index.save(tmp_path / "idx")
        loaded = ANNIndex.load(tmp_path / "idx")
        assert loaded.spec == index.spec
        assert_results_equal(index.query_batch(queries), loaded.query_batch(queries))
        for qi in range(4):
            assert_results_equal(
                [index.query(queries[qi])],
                [loaded.query(queries[qi])],
            )

    @pytest.mark.parametrize("scheme,boost", ROUND_TRIP_CASES)
    def test_warm_snapshot_round_trips(self, scheme, boost, workload, tmp_path):
        db, queries = workload
        spec = IndexSpec(scheme=scheme, seed=23, boost=boost)
        index = ANNIndex.from_spec(db, spec).prepare()
        index.save(tmp_path / "warm")
        loaded = ANNIndex.load(tmp_path / "warm")
        assert_results_equal(index.query_batch(queries), loaded.query_batch(queries))

    def test_seed_none_is_pinned_and_round_trips(self, workload, tmp_path):
        db, queries = workload
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=None)
        )
        # from_spec pins fresh entropy so the coins are recorded.
        assert index.spec.seed is not None
        index.save(tmp_path / "pinned")
        loaded = ANNIndex.load(tmp_path / "pinned")
        assert loaded.spec.seed == index.spec.seed
        assert_results_equal(index.query_batch(queries), loaded.query_batch(queries))

    def test_load_any_returns_single_index(self, workload, tmp_path):
        db, _ = workload
        index = ANNIndex.from_spec(db, IndexSpec(scheme="linear-scan", seed=1))
        index.save(tmp_path / "lin")
        assert isinstance(load_any(tmp_path / "lin"), ANNIndex)


class TestManifest:
    def test_manifest_records_spec_seed_and_geometry(self, workload, tmp_path):
        db, _ = workload
        spec = IndexSpec(scheme="algorithm1", params={"rounds": 3}, seed=5, boost=2)
        ANNIndex.from_spec(db, spec).save(tmp_path / "idx", extras={"note": "hi"})
        manifest = read_manifest(tmp_path / "idx")
        assert manifest["format_version"] == FORMAT_VERSION == 3
        assert manifest["seed"] == 5
        assert manifest["n"] == len(db) and manifest["d"] == db.d
        assert manifest["extras"] == {"note": "hi"}
        assert IndexSpec.from_dict(manifest["spec"]) == spec

    def test_unknown_format_version_fails_clearly(self, workload, tmp_path):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=5)).save(
            tmp_path / "idx"
        )
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexPersistenceError, match="unsupported index format version"):
            ANNIndex.load(tmp_path / "idx")

    def test_non_snapshot_directory_fails_clearly(self, tmp_path):
        with pytest.raises(IndexPersistenceError, match="not an index snapshot"):
            load_index(tmp_path)

    def test_foreign_format_name_fails_clearly(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(IndexPersistenceError, match="format"):
            read_manifest(tmp_path)

    def test_tampered_eager_payload_fails_loudly(self, workload, tmp_path):
        # LSH rebuilds its hashes eagerly from the seed and verifies them
        # against the snapshot; a payload from different randomness must
        # be rejected, not silently served.
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="lsh", seed=3)).save(tmp_path / "idx")
        key = sorted(
            k for k in _array_keys(tmp_path / "idx") if k.startswith("positions/")
        )[0]
        _tamper_array(tmp_path / "idx", key)
        with pytest.raises(IndexPersistenceError, match="payload rejected"):
            ANNIndex.load(tmp_path / "idx")

    def test_tampered_sketch_mask_fails_loudly(self, workload, tmp_path):
        # The masks are the sketch schemes' randomness; a payload from
        # different coins must be rejected against the seed-rebuilt masks.
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3)).save(
            tmp_path / "idx"
        )
        _tamper_array(tmp_path / "idx", "family/accurate/0")
        with pytest.raises(IndexPersistenceError, match="payload rejected"):
            ANNIndex.load(tmp_path / "idx")

    def test_tampered_database_sketch_cache_fails_loudly(self, workload, tmp_path):
        # Warm caches are installed (that transfers the preprocessing),
        # but only after a spot-check against the seed-verified family.
        db, _ = workload
        index = ANNIndex.from_spec(db, IndexSpec(scheme="algorithm1", seed=3))
        index.prepare()
        index.save(tmp_path / "warm")
        key = sorted(
            k
            for k in _array_keys(tmp_path / "warm")
            if k.startswith("levels/accurate_db/")
        )[0]
        _tamper_array(tmp_path / "warm", key)
        with pytest.raises(IndexPersistenceError, match="payload rejected"):
            ANNIndex.load(tmp_path / "warm")

    def test_payload_naming_missing_part_fails_loudly(self, workload, tmp_path):
        db, _ = workload
        ANNIndex.from_spec(db, IndexSpec(scheme="data-dependent-lsh", seed=3)).save(
            tmp_path / "idx"
        )
        path = tmp_path / "idx"
        manifest = read_manifest(path)
        key = sorted(k for k in manifest["array_keys"] if k.startswith("part0/"))[0]
        old, new = f"arrays/{key}.npy", f"arrays/part99{key[len('part0'):]}.npy"
        (path / new).parent.mkdir(parents=True)
        (path / old).rename(path / new)
        manifest["payloads"][new] = manifest["payloads"].pop(old)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexPersistenceError, match="payload rejected"):
            ANNIndex.load(tmp_path / "idx")

    def test_hand_built_scheme_cannot_save(self, workload, tmp_path):
        db, _ = workload
        scheme = build_scheme(db, IndexSpec(scheme="algorithm1", seed=1))
        index = ANNIndex(db, scheme)  # no spec rides along
        with pytest.raises(IndexPersistenceError, match="no spec"):
            save_index(index, tmp_path / "idx")


def _make_snapshot(workload, tmp_path, name="idx"):
    db, _ = workload
    index = ANNIndex.from_spec(
        db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=7)
    )
    return index, tmp_path / name, index.save(tmp_path / name)


def _rewrite_database_npz(snapshot_dir, drop=(), mutate=None):
    # Resolve the archive name through the manifest: overwrites save
    # under epoch-suffixed names, so "database.npz" only holds for a
    # directory's first save.
    manifest = json.loads((snapshot_dir / "manifest.json").read_text())
    target = snapshot_dir / manifest.get("database_file", "database.npz")
    with np.load(target) as payload:
        arrays = {key: payload[key] for key in payload.files}
    for key in drop:
        arrays.pop(key)
    if mutate:
        mutate(arrays)
    np.savez_compressed(target, **arrays)


class TestDatabaseTamper:
    """v2 database.npz corruption must fail loudly, never answer quietly."""

    def test_truncated_database_file(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")
        blob = (path / "database.npz").read_bytes()
        (path / "database.npz").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexPersistenceError, match="unreadable database.npz"):
            ANNIndex.load(path)

    def test_garbage_database_file(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")
        (path / "database.npz").write_bytes(b"not a zip archive at all")
        with pytest.raises(IndexPersistenceError, match="unreadable database.npz"):
            ANNIndex.load(path)

    def test_missing_words_key(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")
        _rewrite_database_npz(path, drop=("words",))
        with pytest.raises(IndexPersistenceError, match="missing words/d"):
            ANNIndex.load(path)

    def test_dropped_rows_fail_the_geometry_check(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")

        def chop(arrays):
            arrays["words"] = arrays["words"][:-3]
            arrays["tombstones"] = arrays["tombstones"][:-3]

        _rewrite_database_npz(path, mutate=chop)
        with pytest.raises(IndexPersistenceError, match="does\nnot match|not match"):
            ANNIndex.load(path)

    def test_missing_mutation_payload_rejected_for_v2(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")
        _rewrite_database_npz(path, drop=("memtable_words",))
        with pytest.raises(IndexPersistenceError, match="mutation payload"):
            ANNIndex.load(path)

    def test_tampered_tombstones_fail_live_n_check(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")

        def clear(arrays):
            assert arrays["tombstones"].any()
            arrays["tombstones"] = np.zeros_like(arrays["tombstones"])

        _rewrite_database_npz(path, mutate=clear)
        with pytest.raises(IndexPersistenceError, match="inconsistent"):
            ANNIndex.load(path)

    def test_tampered_memtable_shape_rejected(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")

        def chop(arrays):
            assert len(arrays["memtable_words"])
            arrays["memtable_words"] = arrays["memtable_words"][:, :-1]

        _rewrite_database_npz(path, mutate=chop)
        with pytest.raises(IndexPersistenceError, match="mutation state rejected"):
            ANNIndex.load(path)

    def test_truncated_arrays_file(self, legacy_snapshot):
        path = legacy_snapshot("v2-single")
        blob = (path / "arrays.npz").read_bytes()
        (path / "arrays.npz").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexPersistenceError, match="unreadable arrays.npz"):
            ANNIndex.load(path)


class TestManifestTamper:
    def test_truncated_manifest(self, workload, tmp_path):
        _, path, _ = _make_snapshot(workload, tmp_path)
        text = (path / "manifest.json").read_text()
        (path / "manifest.json").write_text(text[: len(text) // 2])
        with pytest.raises(IndexPersistenceError, match="unreadable manifest"):
            ANNIndex.load(path)

    def test_empty_manifest(self, workload, tmp_path):
        _, path, _ = _make_snapshot(workload, tmp_path)
        (path / "manifest.json").write_text("")
        with pytest.raises(IndexPersistenceError, match="unreadable manifest"):
            ANNIndex.load(path)


class TestMutationRoundTrip:
    """Format v2: live mutation state survives save/load bitwise."""

    def test_dirty_index_round_trips_bitwise(self, workload, tmp_path):
        db, queries = workload
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=19)
        )
        inserted = index.insert(queries[:3])
        index.delete([2, 5, inserted[1]])
        index.save(tmp_path / "dirty")
        loaded = ANNIndex.load(tmp_path / "dirty")
        assert loaded.generation == index.generation
        assert len(loaded) == len(index)
        assert loaded.live_ids().tolist() == index.live_ids().tolist()
        assert loaded.mutation.compact_threshold == index.mutation.compact_threshold
        assert_results_equal(index.query_batch(queries), loaded.query_batch(queries))

    def test_compacted_index_round_trips_with_generation_seed(
        self, workload, tmp_path
    ):
        db, queries = workload
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=19)
        )
        index.delete([0, 1, 2])
        index.insert(queries[:2])
        assert index.compact() == 1
        index.delete([3])
        assert index.compact() == 2
        index.save(tmp_path / "gen2")
        loaded = ANNIndex.load(tmp_path / "gen2")
        assert loaded.generation == 2
        assert loaded.spec == index.spec  # root spec, not the derived one
        assert_results_equal(index.query_batch(queries), loaded.query_batch(queries))


LEGACY = ["v1-single", "v2-single", "v1-sharded", "v2-sharded"]


def _legacy_oracle(path):
    """A from-scratch build of what a fixture's manifest describes, with
    the recorded mutations replayed, plus queries near its rows."""
    manifest = read_manifest(path)
    recipe = manifest["extras"]
    n, d = recipe["workload"]["n"], recipe["workload"]["d"]
    db = PackedPoints(
        random_points(np.random.default_rng(recipe["workload"]["seed"]), n, d), d
    )
    spec = IndexSpec.from_dict(manifest["spec"])
    if manifest["kind"] == "sharded-ann-index":
        index = ShardedANNIndex.build(db, spec, shards=len(manifest["shards"]))
    else:
        index = ANNIndex.from_spec(db, spec)
    rows = db.words
    mutations = recipe.get("mutations")
    if mutations:
        inserted = random_points(
            np.random.default_rng(mutations["insert_seed"]), mutations["inserts"], d
        )
        index.insert(PackedPoints(inserted, d))
        index.delete(mutations["delete"])
        rows = np.vstack([rows, inserted])
    gen = np.random.default_rng(2024)
    queries = np.vstack(
        [
            flip_random_bits(gen, rows[int(i)], int(gen.integers(0, 12)), d)
            for i in gen.integers(0, len(rows), 12)
        ]
        + [random_points(gen, 4, d)]
    )
    return index, queries


class TestLegacySnapshots:
    """Formats v1 and v2 are read-only: they load in heap mode, and the
    next save over them writes the current format."""

    @pytest.mark.parametrize("name", LEGACY)
    def test_loads_bitwise_equal_to_a_rebuild(self, name, legacy_snapshot):
        path = legacy_snapshot(name)
        rebuilt, queries = _legacy_oracle(path)
        loaded = load_any(path)
        assert loaded.live_count == rebuilt.live_count
        assert_results_equal(rebuilt.query_batch(queries), loaded.query_batch(queries))

    @pytest.mark.parametrize("name", LEGACY)
    def test_save_in_place_commits_v3_and_prunes_the_archives(
        self, name, legacy_snapshot
    ):
        path = legacy_snapshot(name)
        rebuilt, queries = _legacy_oracle(path)
        load_any(path).save(path)
        assert not list(path.rglob("*.npz"))
        for manifest in path.rglob("manifest.json"):
            assert json.loads(manifest.read_text())["format_version"] == FORMAT_VERSION
        for load_mode in ("heap", "mmap"):
            assert_results_equal(
                rebuilt.query_batch(queries),
                load_any(path, load_mode=load_mode).query_batch(queries),
            )

    def test_v1_snapshot_loads_as_a_clean_mutable_index(self, legacy_snapshot):
        path = legacy_snapshot("v1-single")
        _, queries = _legacy_oracle(path)
        loaded = ANNIndex.load(path)
        assert loaded.generation == 0
        assert loaded.mutation.dirty_count == 0
        assert len(loaded) == read_manifest(path)["n"]
        # And the loaded index is fully mutable going forward.
        loaded.insert(queries[:1])
        loaded.delete([0])
        assert loaded.compact() == 1


SAVE_SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=19)


def _serve_and_snapshot(index, snapshot_dir):
    """Checkpoint ``index`` through a live server's ``snapshot`` verb,
    saving in place to the directory the server was started from."""
    import asyncio
    import queue
    import threading

    from repro.service import ServiceClient
    from repro.service.server import serve

    ready: "queue.Queue" = queue.Queue()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve(
                index,
                port=0,
                snapshot_dir=str(snapshot_dir),
                ready_cb=lambda host, port: ready.put((host, port)),
            )
        ),
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=10)
    with ServiceClient(host=host, port=port, timeout=30.0) as client:
        try:
            client.snapshot()
        finally:
            client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _via_save_index(workload, tmp_path, legacy_snapshot):
    save_index(ANNIndex.from_spec(workload[0], SAVE_SPEC), tmp_path / "out")
    return tmp_path / "out"


def _via_index_save(workload, tmp_path, legacy_snapshot):
    ANNIndex.from_spec(workload[0], SAVE_SPEC).save(tmp_path / "out")
    return tmp_path / "out"


def _via_sharded_save(workload, tmp_path, legacy_snapshot):
    ShardedANNIndex.build(workload[0], SAVE_SPEC, shards=2).save(tmp_path / "out")
    return tmp_path / "out"


def _via_cli_build(workload, tmp_path, legacy_snapshot):
    from repro.cli import main

    out = tmp_path / "out"
    assert main(["build", "--n", "64", "--d", "128", "--out", str(out)]) == 0
    return out


def _via_cli_mutate(workload, tmp_path, legacy_snapshot):
    from repro.cli import main

    out = tmp_path / "out"
    source = legacy_snapshot("v2-single")
    argv = ["mutate", "--index", str(source), "--delete", "0", "--out", str(out)]
    assert main(argv) == 0
    return out


def _via_server_snapshot(workload, tmp_path, legacy_snapshot):
    path = legacy_snapshot("v2-single")
    _serve_and_snapshot(ANNIndex.load(path), path)
    return path


SAVE_PATHS = [
    pytest.param(_via_save_index, id="save_index"),
    pytest.param(_via_index_save, id="ANNIndex.save"),
    pytest.param(_via_sharded_save, id="ShardedANNIndex.save"),
    pytest.param(_via_cli_build, id="repro-build"),
    pytest.param(_via_cli_mutate, id="repro-mutate"),
    pytest.param(_via_server_snapshot, id="server-snapshot"),
]


class TestFormatPolicy:
    """v3 is the only format any save writes; nothing picks another."""

    @pytest.mark.parametrize("save", SAVE_PATHS)
    def test_every_save_path_writes_v3(
        self, save, workload, tmp_path, legacy_snapshot, capsys
    ):
        path = save(workload, tmp_path, legacy_snapshot)
        manifests = list(path.rglob("manifest.json"))
        assert manifests
        for manifest in manifests:
            assert json.loads(manifest.read_text())["format_version"] == 3
        assert not list(path.rglob("*.npz"))
        heap = load_any(path)
        queries = random_points(np.random.default_rng(3), 8, heap.d)
        assert_results_equal(
            heap.query_batch(queries),
            load_any(path, load_mode="mmap").query_batch(queries),
        )

    def test_no_save_path_takes_a_format_choice(self, workload, tmp_path, capsys):
        from repro.cli import main

        index = ANNIndex.from_spec(workload[0], SAVE_SPEC)
        sharded = ShardedANNIndex.build(workload[0], SAVE_SPEC, shards=2)
        for save in (
            lambda: save_index(index, tmp_path / "a", format_version=2),
            lambda: index.save(tmp_path / "b", format_version=2),
            lambda: sharded.save(tmp_path / "c", format_version=2),
        ):
            with pytest.raises(TypeError, match="format_version"):
                save()
        with pytest.raises(SystemExit):
            main(["build", "--format-version", "2", "--out", str(tmp_path / "d")])
        assert "--format-version" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
