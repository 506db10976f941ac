"""CLI smoke tests (python -m repro)."""

import pytest

from repro.cli import main


class TestCLI:
    def test_tradeoff(self, capsys):
        code = main(["tradeoff", "--n", "64", "--d", "128", "--queries", "4",
                     "--ks", "1", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Tradeoff" in out
        assert "Alg1" in out

    def test_tradeoff_with_alg2(self, capsys):
        code = main(["tradeoff", "--n", "64", "--d", "128", "--queries", "4",
                     "--ks", "1", "--alg2-ks", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Alg2" in out

    def test_baselines(self, capsys):
        code = main(["baselines", "--n", "64", "--d", "128", "--queries", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "linear-scan" in out
        assert "lsh" in out
        assert "fully-adaptive" in out

    def test_schemes_lists_registry(self, capsys):
        from repro.registry import available_schemes

        code = main(["schemes"])
        out = capsys.readouterr().out
        assert code == 0
        for name in available_schemes():
            assert name in out

    def test_bench_compares_schemes_by_name(self, capsys):
        code = main(["bench", "--scheme", "lsh", "--scheme", "algorithm1",
                     "--scheme", "linear-scan",
                     "--n", "64", "--d", "128", "--queries", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Bench" in out
        for name in ("lsh", "algorithm1", "linear-scan"):
            assert name in out

    def test_bench_batched_evaluation(self, capsys):
        code = main(["bench", "--scheme", "algorithm1", "--batch",
                     "--n", "64", "--d", "128", "--queries", "4"])
        assert code == 0
        assert "algorithm1" in capsys.readouterr().out

    def test_bench_set_overrides(self, capsys):
        code = main(["bench", "--scheme", "lsh", "--scheme", "linear-scan",
                     "--set", "mode=adaptive", "--set", "bucket_capacity=8",
                     "--n", "64", "--d", "128", "--queries", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lsh" in out  # overrides apply only to schemes accepting them

    def test_bench_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["bench", "--scheme", "bogus", "--n", "64", "--d", "128"])

    def test_bench_rejects_malformed_set(self):
        with pytest.raises(SystemExit):
            main(["bench", "--scheme", "lsh", "--set", "no-equals-sign",
                  "--n", "64", "--d", "128", "--queries", "4"])

    def test_bench_rejects_set_key_no_scheme_accepts(self):
        # "round" (typo for "rounds") is accepted by no selected scheme.
        with pytest.raises(SystemExit, match="accepted by none"):
            main(["bench", "--scheme", "algorithm1", "--set", "round=4",
                  "--n", "64", "--d", "128", "--queries", "4"])

    def test_tradeoff_passes_c2_through(self, capsys):
        # Regression: --c2 used to be silently set to --c1's value; a c2
        # too small for Algorithm 2's coarse sketch must now surface.
        code = main(["tradeoff", "--n", "64", "--d", "128", "--queries", "4",
                     "--ks", "1", "--alg2-ks", "16", "--c2", "24.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Alg2" in out

    def test_build_then_bench_index_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx")
        code = main(["build", "--scheme", "algorithm1", "--n", "64",
                     "--d", "128", "--queries", "4", "--out", out_dir])
        assert code == 0
        assert "Built index" in capsys.readouterr().out
        code = main(["bench", "--index", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded index" in out
        assert "algorithm1" in out

    def test_build_sharded_then_bench_index(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx4")
        code = main(["build", "--scheme", "algorithm1", "--shards", "4",
                     "--n", "64", "--d", "128", "--queries", "4",
                     "--out", out_dir])
        assert code == 0
        capsys.readouterr()
        code = main(["bench", "--index", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded(algorithm1×4)" in out

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_build_cold_answers_like_warm(self, tmp_path, shards, capsys):
        import numpy as np

        from repro.hamming.sampling import flip_random_bits
        from repro.persistence import load_any

        loaded = {}
        for mode, flags in (("warm", []), ("cold", ["--cold"])):
            out = str(tmp_path / mode)
            assert main(["build", "--scheme", "algorithm1", "--shards", shards,
                         "--n", "64", "--d", "128", "--out", out, *flags]) == 0
            loaded[mode] = load_any(out)
        warm, cold = loaded["warm"], loaded["cold"]
        rows = np.vstack([s.database.words for s in getattr(warm, "shards", [warm])])
        gen = np.random.default_rng(0)
        queries = np.vstack([flip_random_bits(gen, rows[i], int(i) % 9, 128)
                             for i in gen.integers(0, len(rows), 12)])
        for w, c in zip(warm.query_batch(queries), cold.query_batch(queries)):
            assert (w.answer_index, w.probes, w.rounds, w.probes_per_round) == (
                c.answer_index, c.probes, c.rounds, c.probes_per_round)

    def test_bench_shards_builds_sharded_index(self, capsys):
        code = main(["bench", "--scheme", "algorithm1", "--shards", "2",
                     "--n", "64", "--d", "128", "--queries", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded(algorithm1×2)" in out

    def test_mutate_insert_delete_compact_save_load(self, tmp_path, capsys):
        out_dir = str(tmp_path / "mut")
        main(["build", "--scheme", "algorithm1", "--n", "64",
              "--d", "128", "--queries", "4", "--out", out_dir])
        capsys.readouterr()
        code = main(["mutate", "--index", out_dir, "--insert-random", "5",
                     "--delete", "0", "3", "--compact"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Mutated index" in out
        from repro.persistence import load_any, read_manifest

        loaded = load_any(out_dir)
        assert len(loaded) == 64 + 5 - 2
        assert loaded.generation == 1
        assert loaded.mutation.dirty_count == 0
        # extras (the workload recipe) survive the mutate rewrite.
        assert read_manifest(out_dir)["extras"]["workload"]["n"] == 64
        assert loaded.query([0, 1] * 64).answer_index is not None

    def test_mutate_rewrites_a_v2_snapshot_as_v3(self, legacy_snapshot, capsys):
        from repro.persistence import FORMAT_VERSION, read_manifest

        path = legacy_snapshot("v2-single")
        assert main(["mutate", "--index", str(path), "--delete", "0"]) == 0
        assert read_manifest(path)["format_version"] == FORMAT_VERSION == 3
        assert not list(path.glob("*.npz"))

    def test_mutate_sharded_snapshot_out_of_place(self, tmp_path, capsys):
        src_dir, dst_dir = str(tmp_path / "src"), str(tmp_path / "dst")
        main(["build", "--scheme", "algorithm1", "--shards", "2", "--n", "64",
              "--d", "128", "--queries", "4", "--out", src_dir])
        capsys.readouterr()
        code = main(["mutate", "--index", src_dir, "--insert-random", "3",
                     "--out", dst_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "Mutated index" in out
        from repro.persistence import load_any

        assert len(load_any(src_dir)) == 64  # source untouched
        assert len(load_any(dst_dir)) == 67

    def test_mutate_requires_an_operation(self, tmp_path):
        with pytest.raises(SystemExit, match="mutate needs"):
            main(["mutate", "--index", str(tmp_path)])

    def test_mutate_deletes_apply_before_inserts(self, tmp_path, capsys):
        # --delete ids refer to the on-disk numbering. With a tombstone
        # already in the snapshot, a large insert trips auto-compaction
        # and renumbers the rows — so inserting first would retarget the
        # user's --delete id onto a different row.
        import numpy as np

        from repro.persistence import load_any

        out_dir = str(tmp_path / "idx")
        main(["build", "--scheme", "algorithm1", "--n", "64",
              "--d", "128", "--queries", "4", "--out", out_dir])
        main(["mutate", "--index", out_dir, "--delete", "1"])  # saved dirty
        capsys.readouterr()
        snapshot = load_any(out_dir)
        target_row = snapshot.database.row(3).copy()     # what --delete 3 means
        innocent_row = snapshot.database.row(4).copy()   # renumbered victim
        # 20 inserts on n=64 exceed the 0.25 auto-compaction threshold.
        # (--mutate-seed differs from the build seed: seed 0 would re-insert
        # duplicates of the workload's own rows.)
        code = main(["mutate", "--index", out_dir, "--insert-random", "20",
                     "--delete", "3", "--mutate-seed", "777"])
        capsys.readouterr()
        assert code == 0
        mutated = load_any(out_dir)
        assert len(mutated) == 64 - 1 + 20 - 1
        live_rows = [mutated.database.row(int(i)) for i in mutated.live_ids()]
        assert not any(np.array_equal(r, target_row) for r in live_rows)
        assert any(np.array_equal(r, innocent_row) for r in live_rows)

    def test_bench_rejects_mutated_snapshot_clearly(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx")
        main(["build", "--scheme", "algorithm1", "--n", "64",
              "--d", "128", "--queries", "4", "--out", out_dir])
        main(["mutate", "--index", out_dir, "--insert-random", "5"])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="has been mutated"):
            main(["bench", "--index", out_dir])

    def test_bench_rejects_index_plus_scheme(self, tmp_path):
        with pytest.raises(SystemExit, match="drop --scheme"):
            main(["bench", "--index", str(tmp_path), "--scheme", "algorithm1",
                  "--n", "64", "--d", "128", "--queries", "4"])

    def test_bench_requires_scheme_or_index(self):
        with pytest.raises(SystemExit, match="--scheme NAME"):
            main(["bench", "--n", "64", "--d", "128", "--queries", "4"])

    def test_tradeoff_bad_gamma_fails_loudly(self):
        with pytest.raises(ValueError, match="gamma"):
            main(["tradeoff", "--n", "64", "--d", "128", "--queries", "4",
                  "--gamma", "0.5", "--ks", "1", "2"])

    def test_lemma8(self, capsys):
        code = main(["lemma8", "--n", "64", "--d", "128", "--queries", "4",
                     "--rows", "32", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P[sandwich]" in out

    def test_ledger(self, capsys):
        code = main(["ledger", "--log2d", "1e6", "--ks", "1", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t*" in out

    def test_demo(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Demo" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
