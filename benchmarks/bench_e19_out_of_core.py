"""E19 — out-of-core serving: cold-start latency and resident-set size.

Not a paper claim: this experiment measures the format-v3 storage layer
(``repro.storage`` + ``load_mode="mmap"``) against the eager heap path
on a corpus whose working set exceeds the residency budget.

Measured:

* **Time-to-first-query (TTFQ)** — wall-clock from ``ShardedANNIndex.load``
  to the first answered query, with the snapshot's pages dropped from the
  OS cache first (``posix_fadvise(DONTNEED)``) so both paths start truly
  cold.  The heap path reads and validates every payload up front; the
  mmap path reads only manifests and pages in the probed cells on demand,
  so it must win by a wide margin (asserted ≥ 5x, median of
  ``TTFQ_REPEATS`` cold runs per mode to damp page-fault jitter).
* **Peak RSS under budget** — a fresh subprocess (``ru_maxrss`` is a
  lifetime peak, so the low-memory config cannot share a process with
  the heap run) loads the snapshot with ``memory_budget`` set to a third
  of the working set and sweeps every query.  Evictions must occur, the
  manager's resident bytes must respect the budget, and the process's
  RSS growth must stay well under the full working set.
* **Query latency under eviction pressure** — p50/p99 per-query latency
  while the budget forces shards to cycle, versus the all-resident heap
  baseline.

Criteria: the TTFQ speedup and the subprocess residency bounds are
asserted on every run.  Latency rows are informational (eviction churn
cost is hardware-dependent).

Catalog of all experiments: ``docs/BENCHMARKS.md``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.service import ShardedANNIndex

# Large-corpus config: Algorithm 2 with c1=c2=64 makes the per-level
# accurate *and* coarse sketched databases (read only at probed levels)
# dwarf the packed words, so the eager heap load pays for two orders of
# magnitude more bytes than a near query actually touches.
N, D = 65536, 512
SHARDS = 6
QUERIES = 48
TTFQ_REPEATS = 3

INDEX_SPEC = IndexSpec(
    scheme="algorithm2",
    params={"gamma": 4.0, "c1": 64.0, "c2": 64.0},
    seed=2019,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter so ru_maxrss reflects ONLY the budgeted
# load: baseline is sampled after imports, before any payload is read.
_SUBPROCESS_SRC = """
import json, resource, sys
import numpy as np
from repro.service import ShardedANNIndex

path, budget, qfile = sys.argv[1], int(sys.argv[2]), sys.argv[3]
queries = np.load(qfile)
baseline_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
index = ShardedANNIndex.load(path, load_mode="mmap", memory_budget=budget)
results = index.query_batch(queries)
stats = index.residency_stats()
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "baseline_kib": baseline_kib,
    "peak_kib": peak_kib,
    "answered": sum(r.answered for r in results),
    "stats": stats.to_dict(),
}))
"""


@pytest.fixture(scope="module")
def e19_snapshot(tmp_path_factory):
    gen = np.random.default_rng(2019)
    db = PackedPoints(random_points(gen, N, D), D)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, N))), int(gen.integers(0, D // 20)), D
            )
            for _ in range(QUERIES)
        ]
    )
    index = ShardedANNIndex.build(db, INDEX_SPEC, shards=SHARDS)
    path = tmp_path_factory.mktemp("e19") / "snapshot"
    index.save(path)
    qfile = tmp_path_factory.mktemp("e19q") / "queries.npy"
    np.save(qfile, queries)
    return path, queries, qfile


def _working_set_bytes(path) -> int:
    probe = ShardedANNIndex.load(path, load_mode="mmap")
    return sum(h.meta.nbytes for h in probe._handles)


def _drop_page_cache(path) -> bool:
    """Evict the snapshot's pages from the OS cache so the next load is a
    true cold start.  Returns False where fadvise is unavailable."""
    if not hasattr(os, "posix_fadvise"):  # pragma: no cover - non-POSIX
        return False
    os.sync()  # dirty pages cannot be dropped; flush writeback first
    # Two sweeps: a single DONTNEED pass can race writeback completion and
    # leave part of the snapshot warm, which halves the measured heap cost.
    for _ in range(2):
        for file in sorted(Path(path).rglob("*")):
            if not file.is_file():
                continue
            fd = os.open(file, os.O_RDONLY)
            try:
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
            finally:
                os.close(fd)
        time.sleep(0.05)
    return True


def _time_first_query(path, queries, **load_kwargs):
    start = time.perf_counter()
    index = ShardedANNIndex.load(path, **load_kwargs)
    index.query_batch(queries[:1])
    return index, time.perf_counter() - start


def _cold_ttfq(path, queries, **load_kwargs) -> float:
    # Median over repeats: a single half-warm run (fadvise raced with
    # writeback) or page-fault spike must not decide the comparison.
    samples = []
    for _ in range(TTFQ_REPEATS):
        _drop_page_cache(path)
        _, elapsed = _time_first_query(path, queries, **load_kwargs)
        samples.append(elapsed)
    return float(np.median(samples))


def _latency_quantiles(index, queries, repeats=3):
    lat = []
    for _ in range(repeats):
        for q in queries:
            start = time.perf_counter()
            index.query(q)
            lat.append(time.perf_counter() - start)
    lat = np.asarray(lat)
    return float(np.percentile(lat, 50) * 1e3), float(np.percentile(lat, 99) * 1e3)


def _run_budgeted_subprocess(path, budget, qfile):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SRC, str(path), str(budget), str(qfile)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def e19_rows(e19_snapshot, report_table):
    path, queries, qfile = e19_snapshot
    working_set = _working_set_bytes(path)
    budget = working_set // 3

    ttfq_heap = _cold_ttfq(path, queries)
    ttfq_mmap = _cold_ttfq(path, queries, load_mode="mmap")

    heap_index = ShardedANNIndex.load(path)
    p50_heap, p99_heap = _latency_quantiles(heap_index, queries, repeats=2)
    tight = ShardedANNIndex.load(path, load_mode="mmap", memory_budget=budget)
    p50_mmap, p99_mmap = _latency_quantiles(tight, queries, repeats=1)
    tight_stats = tight.residency_stats()

    child = _run_budgeted_subprocess(path, budget, qfile)
    rss_delta_mb = (child["peak_kib"] - child["baseline_kib"]) / 1024

    rows = [
        {
            "mode": "heap (eager)",
            "ttfq ms": round(ttfq_heap * 1e3, 1),
            "p50 ms": round(p50_heap, 3),
            "p99 ms": round(p99_heap, 3),
            "evictions": 0,
            "resident MiB": round(working_set / 2**20, 1),
        },
        {
            "mode": f"mmap (budget={budget / 2**20:.1f} MiB)",
            "ttfq ms": round(ttfq_mmap * 1e3, 1),
            "p50 ms": round(p50_mmap, 3),
            "p99 ms": round(p99_mmap, 3),
            "evictions": tight_stats.evictions,
            "resident MiB": round(tight_stats.resident_bytes / 2**20, 1),
        },
    ]
    report_table(
        f"E19: out-of-core cold start (n={N}, d={D}, S={SHARDS}, "
        f"working set={working_set / 2**20:.1f} MiB, "
        f"subprocess RSS delta={rss_delta_mb:.1f} MiB)",
        rows,
    )
    from artifacts import write_artifact

    write_artifact(
        "e19_out_of_core",
        {
            "ttfq_heap_s": ttfq_heap,
            "ttfq_mmap_s": ttfq_mmap,
            "ttfq_speedup": ttfq_heap / ttfq_mmap,
            "p50_heap_ms": p50_heap,
            "p99_heap_ms": p99_heap,
            "p50_mmap_ms": p50_mmap,
            "p99_mmap_ms": p99_mmap,
            "subprocess_rss_delta_mb": round(rss_delta_mb, 2),
            "subprocess_evictions": child["stats"]["evictions"],
        },
        extras={
            "n": N,
            "d": D,
            "shards": SHARDS,
            "working_set_bytes": working_set,
            "memory_budget_bytes": budget,
        },
        load_mode="mmap",
    )
    return {
        "rows": rows,
        "ttfq_heap": ttfq_heap,
        "ttfq_mmap": ttfq_mmap,
        "working_set": working_set,
        "budget": budget,
        "child": child,
        "rss_delta_mb": rss_delta_mb,
        "queries": queries,
        "path": path,
    }


@pytest.mark.skipif(
    not hasattr(os, "posix_fadvise"),
    reason="cannot drop the page cache for a cold-start measurement",
)
def test_e19_mmap_ttfq_at_least_5x_faster(e19_rows):
    speedup = e19_rows["ttfq_heap"] / e19_rows["ttfq_mmap"]
    assert speedup >= 5.0, (
        f"mmap TTFQ {e19_rows['ttfq_mmap'] * 1e3:.1f} ms vs heap "
        f"{e19_rows['ttfq_heap'] * 1e3:.1f} ms — only {speedup:.1f}x"
    )


def test_e19_budget_forces_evictions_without_changing_answers(e19_rows):
    path, queries = e19_rows["path"], e19_rows["queries"]
    heap = ShardedANNIndex.load(path)
    tight = ShardedANNIndex.load(
        path, load_mode="mmap", memory_budget=e19_rows["budget"]
    )
    expected = heap.query_batch(queries)
    actual = tight.query_batch(queries)
    for e, a in zip(expected, actual):
        assert (e.answer_index, e.probes, e.rounds) == (
            a.answer_index,
            a.probes,
            a.rounds,
        )
    assert tight.residency_stats().evictions > 0


def test_e19_subprocess_rss_stays_under_working_set(e19_rows):
    child = e19_rows["child"]
    stats = child["stats"]
    budget_mb = e19_rows["budget"] / 2**20
    working_set_mb = e19_rows["working_set"] / 2**20
    assert child["answered"] == QUERIES
    assert stats["evictions"] > 0, "budget below working set must evict"
    assert stats["resident_bytes"] <= e19_rows["budget"]
    # RSS growth tracks the budget, not the corpus: allow allocator and
    # page-cache slack, but the full working set must never be resident.
    assert e19_rows["rss_delta_mb"] < working_set_mb * 0.8, (
        f"RSS grew {e19_rows['rss_delta_mb']:.1f} MiB with a "
        f"{budget_mb:.1f} MiB budget (working set {working_set_mb:.1f} MiB)"
    )
