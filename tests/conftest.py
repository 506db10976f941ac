"""Shared fixtures: small, fast databases and query batches."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

# tests/ has no package __init__; make the shared test utilities under
# tests/utils importable (``import cluster_harness``) from any test.
sys.path.insert(0, str(Path(__file__).resolve().parent / "utils"))

from repro.core.params import BaseParameters
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points


#: Committed snapshots in the read-only formats v1 and v2 (README.md there).
LEGACY_SNAPSHOTS = Path(__file__).resolve().parent / "fixtures" / "snapshots"


@pytest.fixture
def legacy_snapshot(tmp_path):
    """``legacy_snapshot(name)`` copies one committed v1/v2 snapshot into
    ``tmp_path`` and returns the copy's path, so a test may save over or
    tamper with it."""

    def copy(name: str) -> Path:
        return Path(shutil.copytree(LEGACY_SNAPSHOTS / name, tmp_path / name))

    return copy


@pytest.fixture(params=[None, 1], ids=["memo-default", "memo-1"])
def memo_cap(request, monkeypatch):
    """Run a test under the default ``LazyTable.MEMO_CELLS`` and under a
    cap of one cell, which evicts a table's memo at nearly every prefetch
    and read miss.  Answers and probe ledgers must not change."""
    from repro.cellprobe.table import LazyTable

    if request.param is not None:
        monkeypatch.setattr(LazyTable, "MEMO_CELLS", request.param)
    return LazyTable.MEMO_CELLS


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_db():
    """n=120, d=128 uniform database (session-scoped: read-only)."""
    gen = np.random.default_rng(7)
    return PackedPoints(random_points(gen, 120, 128), 128)


@pytest.fixture(scope="session")
def medium_db():
    """n=300, d=512 uniform database (session-scoped: read-only)."""
    gen = np.random.default_rng(11)
    return PackedPoints(random_points(gen, 300, 512), 512)


@pytest.fixture(scope="session")
def small_base(small_db):
    return BaseParameters(n=len(small_db), d=small_db.d, gamma=4.0, c1=8.0, c2=8.0)


@pytest.fixture(scope="session")
def medium_base(medium_db):
    return BaseParameters(n=len(medium_db), d=medium_db.d, gamma=4.0, c1=8.0, c2=8.0)


def planted_queries(db: PackedPoints, count: int, max_flips: int, seed: int = 99):
    """Queries near database points (helper, not a fixture)."""
    gen = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        base = db.row(int(gen.integers(0, len(db))))
        rows.append(flip_random_bits(gen, base, int(gen.integers(0, max_flips + 1)), db.d))
    return np.vstack(rows)


@pytest.fixture(scope="session")
def small_queries(small_db):
    return planted_queries(small_db, 24, max_flips=12)


@pytest.fixture(scope="session")
def planless_scheme_cls():
    """A scheme that only implements ``query`` (no plan): drivers must
    fall back to their sequential paths.  Every built-in scheme is
    plan-capable now, so the fallback paths get their own test double."""
    from repro.baselines.linear_scan import LinearScanScheme
    from repro.cellprobe.scheme import CellProbingScheme

    class PlanlessScheme(CellProbingScheme):
        scheme_name = "planless"
        k = 1

        def __init__(self, db):
            self._inner = LinearScanScheme(db)

        def query(self, x):
            return self._inner.query(x)

        def size_report(self):
            return self._inner.size_report()

    return PlanlessScheme


@pytest.fixture(scope="session")
def medium_queries(medium_db):
    return planted_queries(medium_db, 24, max_flips=40)
