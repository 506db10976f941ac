"""Engine mechanics: stats, fallback for plan-less schemes, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.baselines.linear_scan import LinearScanScheme
from repro.cellprobe.table import LazyTable
from repro.core.algorithm1 import SimpleKRoundScheme
from repro.core.index import ANNIndex
from repro.core.params import Algorithm1Params, BaseParameters
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import BatchQueryEngine


@pytest.fixture(scope="module")
def db():
    gen = np.random.default_rng(5)
    return PackedPoints(random_points(gen, 100, 128), 128)


@pytest.fixture(scope="module")
def queries():
    gen = np.random.default_rng(6)
    return random_points(gen, 12, 128)


def make_scheme(db, seed=2, k=2):
    base = BaseParameters(n=len(db), d=db.d, gamma=4.0, c1=8.0)
    return SimpleKRoundScheme(db, Algorithm1Params(base, k=k), seed=seed)


def test_stats_match_per_query_accounting(db, queries):
    engine = BatchQueryEngine(make_scheme(db))
    results = engine.run(queries)
    stats = engine.last_stats
    assert stats.batch_size == len(queries)
    assert stats.total_probes == sum(r.probes for r in results)
    assert stats.total_rounds == sum(r.rounds for r in results)
    assert stats.sweeps >= max(r.rounds for r in results)
    assert stats.prefetched_cells > 0
    assert stats.memo_cells == engine.memo_cells() > 0


def test_no_prefetch_engine_prefetches_nothing(db, queries):
    engine = BatchQueryEngine(make_scheme(db), prefetch=False)
    engine.run(queries)
    assert engine.last_stats.prefetched_cells == 0
    assert engine.last_stats.memo_cells == 0  # no sweep classified a table


def test_empty_batch(db):
    engine = BatchQueryEngine(make_scheme(db))
    assert engine.run(np.empty((0, db.word_count), dtype=np.uint64)) == []
    assert engine.last_stats.batch_size == 0


def test_planless_scheme_falls_back_to_loop(db, queries, planless_scheme_cls):
    scan = planless_scheme_cls(db)
    assert not scan.supports_plans()
    engine = BatchQueryEngine(scan)
    results = engine.run(queries)
    loop = [scan.query(q) for q in queries]
    for r, l in zip(results, loop):
        assert r.answer_index == l.answer_index
        assert r.probes == l.probes
    assert engine.last_stats.sweeps == 0  # fallback path, no lockstep sweeps


def test_plan_capable_scheme_advertises_it(db):
    assert make_scheme(db).supports_plans()


def test_every_baseline_advertises_plans(db):
    assert LinearScanScheme(db).supports_plans()


def test_table_classification_persists_across_runs(db, queries):
    engine = BatchQueryEngine(make_scheme(db, seed=4))
    engine.run(queries[:4])
    classified = dict(engine._prefetchable)
    assert classified  # tables were classified during the first run
    engine.run(queries[4:8])
    # Re-running reuses (and only extends) the classification map.
    assert all(engine._prefetchable[tid] is entry for tid, entry in classified.items())


def test_engine_reusable_across_batches(db, queries):
    engine = BatchQueryEngine(make_scheme(db, seed=3))
    first = engine.run(queries)
    second = engine.run(queries)
    for a, b in zip(first, second):
        assert a.answer_index == b.answer_index
        assert a.probes == b.probes


def test_memo_stays_bounded_over_many_fresh_batches(db, monkeypatch):
    """A soak of fresh batches: with a cap of 64 cells and batches of 64
    queries, every table's memo stays within the cap after every batch
    and the reported gauge within tables x cap, while the answers and
    ledgers stay those of a fresh index's sequential loop."""
    monkeypatch.setattr(LazyTable, "MEMO_CELLS", 64)
    spec = IndexSpec(
        scheme="algorithm1", params={"rounds": 2, "gamma": 4.0, "c1": 8.0}, seed=2
    )
    index = ANNIndex.from_spec(db, spec)
    gen = np.random.default_rng(8)
    for _ in range(40):
        batch = np.vstack(
            [
                flip_random_bits(gen, db.row(int(gen.integers(0, len(db)))), 6, db.d)
                for _ in range(48)
            ]
            + [random_points(gen, 16, db.d)]
        )
        results = index.query_batch(batch)
        tables = [
            table
            for table, _ in index._engines[True]._prefetchable.values()
            if isinstance(table, LazyTable)
        ]
        cells = [table.cached_cells() for table in tables]
        assert max(cells) <= 64
        assert 0 < index.last_batch_stats.memo_cells == sum(cells) <= 64 * len(tables)
    # Some table computed more cells than it holds: its memo overflowed.
    assert max(table.materialized_reads for table in tables) > 64
    fresh = ANNIndex.from_spec(db, spec)
    for result, query in zip(results, batch):
        reference = fresh.query(query)
        assert result.answer_index == reference.answer_index
        assert result.probes == reference.probes
        assert result.rounds == reference.rounds
        assert result.probes_per_round == reference.probes_per_round
