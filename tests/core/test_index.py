"""The ANNIndex facade."""

import warnings

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex

ALG1_K2 = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=0)


class TestFromSpec:
    def test_from_bits(self):
        bits = np.random.default_rng(0).integers(0, 2, size=(64, 128)).astype(np.uint8)
        index = ANNIndex.from_spec(bits, ALG1_K2)
        res = index.query(bits[5])
        assert res.answered

    def test_from_packed_points(self, small_db):
        index = ANNIndex.from_spec(small_db, ALG1_K2)
        assert index.rounds == 2

    def test_spec_rides_along(self, small_db):
        index = ANNIndex.from_spec(small_db, ALG1_K2)
        assert index.spec == ALG1_K2
        assert IndexSpec.from_dict(index.spec.to_dict()) == ALG1_K2

    def test_rejects_raw_uint64(self):
        with pytest.raises(TypeError):
            ANNIndex.from_spec(np.zeros((4, 2), dtype=np.uint64), ALG1_K2)

    def test_boost_wraps(self, small_db):
        index = ANNIndex.from_spec(small_db, ALG1_K2.replace(boost=3))
        assert index.scheme.scheme_name.startswith("boosted(")

    def test_preset_builds(self, small_db):
        index = ANNIndex.from_spec(small_db, IndexSpec.preset("fast", seed=0))
        assert index.rounds == 1

    def test_from_spec_does_not_warn(self, small_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ANNIndex.from_spec(small_db, IndexSpec(scheme="linear-scan"))


class TestQuery:
    def test_query_accepts_bit_vector(self, small_db):
        index = ANNIndex.from_spec(small_db, ALG1_K2)
        bits = small_db.to_bits()[3]
        res = index.query(bits)
        assert res.answer_index == 3

    def test_query_packed(self, small_db, small_queries):
        index = ANNIndex.from_spec(small_db, ALG1_K2)
        res = index.query(small_queries[0])
        assert res.probes >= 1

    def test_size_report_accessible(self, small_db):
        index = ANNIndex.from_spec(small_db, ALG1_K2)
        assert index.size_report().table_cells > 0

    def test_reproducible_with_seed(self, small_db, small_queries):
        spec = IndexSpec(scheme="algorithm1", params={"rounds": 3}, seed=9)
        a = ANNIndex.from_spec(small_db, spec).query(small_queries[2])
        b = ANNIndex.from_spec(small_db, spec).query(small_queries[2])
        assert a.answer_index == b.answer_index
