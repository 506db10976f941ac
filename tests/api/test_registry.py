"""The scheme registry: every scheme buildable by name, and for every
registered scheme ``query_batch`` is bitwise-identical to a sequential
``query`` loop on a planted workload (the acceptance criterion of the
unified construction surface)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points


@pytest.fixture(scope="module")
def planted_64():
    """n=96, d=128 planted workload with 64 queries."""
    gen = np.random.default_rng(2016)
    n, d = 96, 128
    db = PackedPoints(random_points(gen, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, n))), int(gen.integers(0, 12)), d
            )
            for _ in range(64)
        ]
    )
    return db, queries


def assert_results_identical(seq, bat):
    assert len(seq) == len(bat)
    for s, b in zip(seq, bat):
        assert s.answer_index == b.answer_index
        assert s.probes == b.probes
        assert s.rounds == b.rounds
        assert s.probes_per_round == b.probes_per_round
        assert s.scheme == b.scheme
        if s.answer_packed is None:
            assert b.answer_packed is None
        else:
            assert np.array_equal(s.answer_packed, b.answer_packed)


class TestRegistryContents:
    def test_at_least_six_schemes(self):
        assert len(registry.available_schemes()) >= 6

    def test_core_and_all_baselines_registered(self):
        names = set(registry.available_schemes())
        assert {
            "algorithm1",
            "algorithm2",
            "lsh",
            "data-dependent-lsh",
            "linear-scan",
            "fully-adaptive",
        } <= names

    def test_unknown_scheme_error_lists_known(self):
        with pytest.raises(ValueError, match="available:"):
            registry.get_scheme("bogus")

    def test_defaults_are_copies(self):
        a = registry.scheme_defaults("algorithm1")
        a["rounds"] = 99
        assert registry.scheme_defaults("algorithm1")["rounds"] != 99

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register_scheme("algorithm1")(lambda db, spec, rng: None)

    def test_registry_rows_cover_every_scheme(self):
        rows = registry.registry_rows()
        assert [r["scheme"] for r in rows] == registry.available_schemes()
        assert all(r["description"] for r in rows)


class TestBuildScheme:
    def test_build_by_name(self, planted_64):
        db, _ = planted_64
        scheme = registry.build_scheme(db, IndexSpec(scheme="linear-scan", seed=7))
        assert scheme.scheme_name == "linear-scan"

    def test_seed_reproducibility(self, planted_64):
        db, queries = planted_64
        spec = IndexSpec(scheme="algorithm1", params={"rounds": 3}, seed=21)
        a = registry.build_scheme(db, spec)
        b = registry.build_scheme(db, spec)
        for q in queries[:8]:
            assert a.query(q).answer_index == b.query(q).answer_index

    def test_boost_wraps_in_boosted_scheme(self, planted_64):
        db, _ = planted_64
        scheme = registry.build_scheme(
            db, IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=7, boost=3)
        )
        assert scheme.scheme_name.startswith("boosted(")
        assert len(scheme.copies) == 3


class TestEverySchemeBatchesIdentically:
    """The headline acceptance loop: for every registered scheme,
    ``ANNIndex.from_spec(db, IndexSpec(scheme=name, seed=7))`` builds and
    ``query_batch`` on the 64-query planted workload returns results
    bitwise-identical to a sequential ``query`` loop."""

    @pytest.fixture(
        scope="class",
        params=sorted(registry.available_schemes()),
    )
    def scheme_name(self, request):
        return request.param

    def test_default_spec_batches_identically(self, planted_64, scheme_name):
        db, queries = planted_64
        index = ANNIndex.from_spec(db, IndexSpec(scheme=scheme_name, seed=7))
        seq = [index.query(q) for q in queries]
        bat = index.query_batch(queries)
        assert_results_identical(seq, bat)

    def test_boosted_spec_batches_identically(self, planted_64, scheme_name):
        db, queries = planted_64
        index = ANNIndex.from_spec(
            db, IndexSpec(scheme=scheme_name, seed=7, boost=2)
        )
        seq = [index.query(q) for q in queries[:16]]
        bat = index.query_batch(queries[:16])
        assert_results_identical(seq, bat)
