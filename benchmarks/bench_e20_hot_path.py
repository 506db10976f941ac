"""E20 — the popcount/XOR hot path, per kernel backend.

Not a paper claim: this experiment measures the kernel seam added in
v1.9 (``repro.hamming.kernels``).  The per-kernel unit is a micro-batch
of packed queries screened against an out-of-cache database —
``cross_distances`` at batch 256/512, ``hamming_distance_many`` for a
single query — alongside an end-to-end ``ANNIndex.query_batch``
equality check under each backend.

The lockstep sweep builds no distance matrix for the level tables
``T_i``: their cells come from ``nearest_within``, the backend's
nearest-row search, and their addresses from ``parity_sketch``, the
backend's GF(2) sketch.  Both are timed per kernel at batch 256: the
witness search on the level-table shape (8192 database sketches of a
104-row accurate sketch, two words each), the sketch as 256 queries of
d=1024 through one 104-row mask.

Criteria (asserted):

* every backend's distance matrices, witnesses and sketches are
  **bitwise-equal** to the reference backend's in the same run, and
  ``query_batch`` answers and probe/round accounting are field-by-field
  identical;
* the reference ``nearest_within``'s indices and distances are
  **bitwise-equal** to the thresholded first ``argmin`` of
  ``cross_distances``;
* with a compiled backend registered, batch throughput at batch ≥ 256
  is at least 1.5× the reference backend's queries/sec (self-skips when
  only ``reference`` is available, e.g. no C compiler on the runner).

The table is persisted via ``artifacts.py`` as
``results/BENCH_e20_hot_path.json`` with per-kernel ``*_qps_*`` metrics
(``<kernel>_nearest_qps_b256`` and ``<kernel>_parity_qps_b256`` among
them), which the CI perf gate (``--gate-qps-drop``) compares run over
run on like-for-like provenance.

Catalog of all experiments: ``docs/BENCHMARKS.md``.
"""

import time

import numpy as np
import pytest

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.hamming.distance import (
    cross_distances,
    hamming_distance_many,
    nearest_within,
    parity_sketch,
)
from repro.hamming.kernels import available_kernels, use_kernel
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.sketch.parity import ParitySketch

# A database big enough that one sweep leaves the L2 cache: 8192 rows of
# 16 words (d=1024) is 1 MiB of packed points per full screen.
N, D = 8192, 1024
BATCH_SIZES = [1, 256, 512]
REPS = 5  # best-of timing per (kernel, batch) cell
SPEEDUP_FLOOR = 1.5

# The level-table witness search: a 104-row accurate sketch (c1=8,
# log2 n = 13) packs into two words; half the addresses lie within
# NEAREST_LIMIT of some database sketch, half are uniform (no witness).
SKETCH_ROWS = 104
NEAREST_BATCH = 256
NEAREST_LIMIT = 26
MASK_P = 1 / 8  # mask density; neither backend's cost depends on it

# Small end-to-end workload for the engine-level equality check.
INDEX_SPEC = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=20)
INDEX_N, INDEX_D, INDEX_QUERIES = 300, 512, 32


@pytest.fixture(scope="module")
def e20_workload():
    gen = np.random.default_rng(2020)
    db = random_points(gen, N, D)
    queries = random_points(gen, max(BATCH_SIZES), D)
    return db, queries


def _best_qps(fn, batch_size):
    best = 0.0
    result = None
    for _ in range(REPS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = max(best, batch_size / elapsed)
    return best, result


@pytest.fixture(scope="module")
def e20_rows(e20_workload, report_table):
    db, queries = e20_workload
    kernels = available_kernels()
    rows = []
    reference_answers = {}
    for kernel in kernels:
        with use_kernel(kernel):
            row = {"kernel": kernel}
            for batch_size in BATCH_SIZES:
                if batch_size == 1:
                    q = queries[0]
                    qps, answer = _best_qps(
                        lambda: hamming_distance_many(q, db), batch_size
                    )
                    row["latency b1 (ms)"] = round(1000.0 / qps, 3)
                else:
                    batch = queries[:batch_size]
                    qps, answer = _best_qps(
                        lambda: cross_distances(batch, db), batch_size
                    )
                row[f"q/s b{batch_size}"] = round(qps, 1)
                # Bitwise equality across backends, same run, same inputs.
                if kernel == "reference":
                    reference_answers[batch_size] = answer
                else:
                    assert np.array_equal(answer, reference_answers[batch_size]), (
                        f"kernel {kernel!r} diverged from reference at "
                        f"batch {batch_size}"
                    )
            rows.append(row)
    report_table(f"E20: hot-path throughput per kernel (n={N}, d={D})", rows)
    return rows


def _thresholded_first_argmin(a, b, limit):
    dists = cross_distances(a, b)
    best = dists.argmin(axis=1)
    best_dists = dists[np.arange(len(a)), best]
    hit = best_dists <= limit
    return np.where(hit, best, -1), np.where(hit, best_dists, -1)


@pytest.fixture(scope="module")
def e20_nearest(e20_workload, report_table):
    gen = np.random.default_rng(2021)
    sketches = random_points(gen, N, SKETCH_ROWS)
    near = [
        flip_random_bits(gen, sketches[i], NEAREST_LIMIT // 2, SKETCH_ROWS)
        for i in gen.integers(0, N, size=NEAREST_BATCH // 2)
    ]
    addresses = np.vstack(near + [random_points(gen, NEAREST_BATCH // 2, SKETCH_ROWS)])
    points = e20_workload[1][:NEAREST_BATCH]
    mask = ParitySketch(SKETCH_ROWS, D, MASK_P, gen).mask
    rows, reference = [], None
    for kernel in available_kernels():
        with use_kernel(kernel):
            nearest_qps, found = _best_qps(
                lambda: nearest_within(addresses, sketches, NEAREST_LIMIT), NEAREST_BATCH
            )
            parity_qps, sketched = _best_qps(lambda: parity_sketch(points, mask), NEAREST_BATCH)
        if reference is None:  # available_kernels() lists reference first
            reference = found, sketched
            want = _thresholded_first_argmin(addresses, sketches, NEAREST_LIMIT)
            assert all(np.array_equal(g, w) for g, w in zip(found, want)), (
                "nearest_within diverged from the thresholded first argmin"
            )
        assert all(np.array_equal(g, w) for g, w in zip(found, reference[0])), (
            f"kernel {kernel!r}'s nearest_within diverged from reference"
        )
        assert np.array_equal(sketched, reference[1]), (
            f"kernel {kernel!r}'s parity_sketch diverged from reference"
        )
        rows.append(
            {
                "kernel": kernel,
                "nearest_within q/s b256": round(nearest_qps, 1),
                "parity_sketch q/s b256": round(parity_qps, 1),
            }
        )
    report_table(
        f"E20: per-sweep loops (n={N} {SKETCH_ROWS}-row sketches; d={D} "
        f"points through a {SKETCH_ROWS}-row mask)",
        rows,
    )
    return {"rows": rows, "hits": int((reference[0][0] >= 0).sum())}


def _qps(rows, kernel, batch_size):
    row = next(r for r in rows if r["kernel"] == kernel)
    return row[f"q/s b{batch_size}"]


def test_e20_engine_answers_identical_under_every_kernel():
    gen = np.random.default_rng(42)
    db = PackedPoints(random_points(gen, INDEX_N, INDEX_D), INDEX_D)
    queries = np.vstack(
        [
            flip_random_bits(
                gen, db.row(int(gen.integers(0, INDEX_N))), 3, INDEX_D
            )
            for _ in range(INDEX_QUERIES)
        ]
    )
    baseline = None
    for kernel in available_kernels():
        with use_kernel(kernel):
            index = ANNIndex.from_spec(db, INDEX_SPEC)
            results = [
                (r.answer_index, r.probes, r.rounds)
                for r in index.query_batch(queries)
            ]
        if baseline is None:
            baseline = results
        else:
            assert results == baseline, f"kernel {kernel!r} changed answers"


def test_e20_nearest_within_equals_thresholded_argmin(e20_nearest):
    # The fixture asserts the equalities; both outcomes of the threshold
    # must have been exercised for them to mean anything.
    assert 0 < e20_nearest["hits"] < NEAREST_BATCH


def test_e20_compiled_speedup_at_batch_256(e20_rows):
    compiled = [k for k in available_kernels() if k != "reference"]
    if not compiled:
        pytest.skip("no compiled kernel backend registered on this machine")
    reference_qps = _qps(e20_rows, "reference", 256)
    best = max(_qps(e20_rows, k, 256) for k in compiled)
    speedup = best / reference_qps
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected compiled >= {SPEEDUP_FLOOR}x reference q/s at batch 256, "
        f"got {speedup:.2f}x"
    )


def test_e20_artifact(e20_rows, e20_nearest):
    from artifacts import write_artifact

    metrics = {}
    for row in e20_nearest["rows"]:
        metrics[f"{row['kernel']}_nearest_qps_b256"] = row["nearest_within q/s b256"]
        metrics[f"{row['kernel']}_parity_qps_b256"] = row["parity_sketch q/s b256"]
    for row in e20_rows:
        kernel = row["kernel"]
        metrics[f"{kernel}_latency_b1_ms"] = row["latency b1 (ms)"]
        for batch_size in BATCH_SIZES[1:]:
            metrics[f"{kernel}_qps_b{batch_size}"] = row[f"q/s b{batch_size}"]
    compiled = [k for k in available_kernels() if k != "reference"]
    if compiled:
        best = max(_qps(e20_rows, k, 256) for k in compiled)
        metrics["compiled_speedup_b256"] = round(
            best / _qps(e20_rows, "reference", 256), 3
        )
    path = write_artifact(
        "e20_hot_path",
        metrics,
        extras={
            "n": N,
            "d": D,
            "batch_sizes": BATCH_SIZES,
            "sketch_rows": SKETCH_ROWS,
            "nearest_limit": NEAREST_LIMIT,
            "kernels": available_kernels(),
        },
    )
    assert path.exists()
