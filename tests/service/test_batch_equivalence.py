"""Batch/sequential equivalence: ``query_batch`` must reproduce a
sequential ``query`` loop bit for bit under the same seed — answers,
probe counts, round counts, per-round probe lists — for both algorithms,
the boosted wrapper, and every registered baseline, with and without
cell prefetching, and with a memo cap that evicts every sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.algorithm2 import LargeKScheme
from repro.core.index import ANNIndex
from repro.core.params import Algorithm2Params, BaseParameters
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import BatchQueryEngine


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(42)
    n, d = 150, 256
    db = PackedPoints(random_points(gen, n, d), d)
    queries = np.vstack(
        [
            flip_random_bits(gen, db.row(int(gen.integers(0, n))), int(gen.integers(0, 20)), d)
            for _ in range(40)
        ]
        + [random_points(gen, 8, d)]  # plus some uniform (far) queries
    )
    return db, queries


def _spec(scheme, boost=1, **params):
    return IndexSpec(
        scheme=scheme, params={"gamma": 4.0, "c1": 8.0, **params}, seed=9, boost=boost
    )


BUILD_CASES = [
    pytest.param(_spec("algorithm1", rounds=2), id="alg1-k2"),
    pytest.param(_spec("algorithm1", rounds=3), id="alg1-k3"),
    pytest.param(_spec("algorithm2", rounds=8, s=2), id="alg2-k8"),
    pytest.param(_spec("algorithm1", rounds=3, boost=3), id="boosted-alg1"),
    pytest.param(_spec("algorithm2", rounds=8, s=2, boost=2), id="boosted-alg2"),
]


def assert_results_equal(seq, bat):
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


@pytest.mark.parametrize("spec", BUILD_CASES)
@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "noprefetch"])
def test_query_batch_matches_sequential_loop(workload, spec, prefetch, memo_cap):
    db, queries = workload
    seq_index = ANNIndex.from_spec(db, spec)
    bat_index = ANNIndex.from_spec(db, spec)
    seq = [seq_index.query(q) for q in queries]
    bat = bat_index.query_batch(queries, prefetch=prefetch)
    assert_results_equal(seq, bat)


@pytest.mark.parametrize("spec", BUILD_CASES[:3])
def test_query_batch_on_same_index_instance(workload, spec):
    """Running both paths on one index (warm caches) changes nothing."""
    db, queries = workload
    index = ANNIndex.from_spec(db, spec)
    bat = index.query_batch(queries)
    seq = [index.query(q) for q in queries]
    bat_again = index.query_batch(queries)
    assert_results_equal(seq, bat)
    assert_results_equal(seq, bat_again)


def test_query_batch_accepts_bit_arrays(workload):
    db, queries = workload
    index = ANNIndex.from_spec(db, _spec("algorithm1", rounds=2))
    from repro.hamming.packing import unpack_bits

    bits = unpack_bits(queries, db.d)
    from_bits = index.query_batch(bits)
    from_packed = index.query_batch(queries)
    assert_results_equal(from_packed, from_bits)


def test_query_batch_single_query_promoted(workload):
    db, queries = workload
    index = ANNIndex.from_spec(db, _spec("algorithm1", rounds=2))
    single = index.query_batch(queries[0])
    assert len(single) == 1
    assert_results_equal([index.query(queries[0])], single)


def test_one_probe_per_round_batch_equivalence(workload):
    """The serialized (fully adaptive, 1 probe/round) variant batches too."""
    db, queries = workload
    base = BaseParameters(n=len(db), d=db.d, gamma=4.0, c1=8.0, c2=8.0)

    def scheme():
        return LargeKScheme(
            db, Algorithm2Params(base, k=8, s_override=2), seed=4, one_probe_per_round=True
        )

    seq_scheme = scheme()
    seq = [seq_scheme.query(q) for q in queries[:16]]
    bat = BatchQueryEngine(scheme()).run(queries[:16])
    assert_results_equal(seq, bat)
    assert all(r.rounds == r.probes for r in bat)  # serialized: 1 probe per round


def test_boosted_serialized_batch_equivalence(workload):
    """Boosting over serialized copies batches with identical accounting."""
    from repro.core.boosting import BoostedScheme

    db, queries = workload
    base = BaseParameters(n=len(db), d=db.d, gamma=4.0, c1=8.0, c2=8.0)

    def factory(seed):
        return LargeKScheme(
            db, Algorithm2Params(base, k=8, s_override=2), seed=seed,
            one_probe_per_round=True,
        )

    seq_scheme = BoostedScheme(factory, seeds=[0, 1])
    seq = [seq_scheme.query(q) for q in queries[:16]]
    bat = BatchQueryEngine(BoostedScheme(factory, seeds=[0, 1])).run(queries[:16])
    assert_results_equal(seq, bat)


def test_batch_results_deterministic_across_runs(workload):
    db, queries = workload
    spec = _spec("algorithm1", rounds=3).replace(seed=21)
    a = ANNIndex.from_spec(db, spec)
    b = ANNIndex.from_spec(db, spec)
    assert_results_equal(a.query_batch(queries), b.query_batch(queries))


# Registry-driven equivalence for every baseline scheme (the non-core
# half of the unified surface); core schemes are covered above.
BASELINE_SPECS = [
    pytest.param(IndexSpec(scheme="lsh", seed=7), id="lsh-nonadaptive"),
    pytest.param(
        IndexSpec(scheme="lsh", params={"mode": "adaptive"}, seed=7), id="lsh-adaptive"
    ),
    pytest.param(IndexSpec(scheme="data-dependent-lsh", seed=7), id="ddlsh"),
    pytest.param(IndexSpec(scheme="linear-scan"), id="linear-scan"),
    pytest.param(IndexSpec(scheme="fully-adaptive", seed=7), id="fully-adaptive"),
    pytest.param(IndexSpec(scheme="lambda-ann", seed=7), id="lambda-ann"),
    pytest.param(
        IndexSpec(scheme="lsh", seed=7, boost=2), id="boosted-lsh"
    ),
]


@pytest.mark.parametrize("spec", BASELINE_SPECS)
@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "noprefetch"])
def test_registry_baseline_batch_matches_sequential_loop(
    workload, spec, prefetch, memo_cap
):
    db, queries = workload
    index = ANNIndex.from_spec(db, spec)
    seq = [index.query(q) for q in queries[:24]]
    bat = index.query_batch(queries[:24], prefetch=prefetch)
    assert_results_equal(seq, bat)


def test_query_batch_reuses_engine(workload):
    """One engine per (index, prefetch flag), reused across calls."""
    db, queries = workload
    index = ANNIndex.from_spec(
        db, IndexSpec(scheme="algorithm1", params={"rounds": 2, "c1": 8.0}, seed=9)
    )
    index.query_batch(queries[:4])
    engine = index._engines[True]
    index.query_batch(queries[4:8])
    assert index._engines[True] is engine
    index.query_batch(queries[:4], prefetch=False)
    assert index._engines[False] is not engine
    assert set(index._engines) == {True, False}


def test_last_batch_stats_none_before_first_batch(workload):
    db, _ = workload
    index = ANNIndex.from_spec(db, IndexSpec(scheme="linear-scan"))
    assert index.last_batch_stats is None


def test_query_batch_empty_inputs(workload):
    """Empty batches mirror the sequential loop: no results, no crash."""
    db, _ = workload
    index = ANNIndex.from_spec(db, _spec("algorithm1", rounds=2))
    assert index.query_batch([]) == []
    assert index.query_batch(np.empty((0, db.d), dtype=np.uint8)) == []
    assert index.query_batch(np.empty((0, db.word_count), dtype=np.uint64)) == []
    assert index.last_batch_stats.batch_size == 0
