"""Differential kernel-equivalence suite: every backend vs the reference.

The kernel seam's hard contract (ARCHITECTURE invariant #7): every
registered :class:`~repro.hamming.kernels.KernelBackend` returns
**bitwise-identical** results to the NumPy ``reference`` backend for all
eight seam functions, over adversarial shapes — zero-word rows, a single
word, non-contiguous views, read-only masks, inputs larger than the
chunk budget, all-ones/all-zeros words — and raises the *same*
``ValueError`` text on contract violations (validation lives in the
dispatchers, and these tests pin that down).

Parametrization runs over ``KNOWN_KERNELS`` (not just the registered
ones) so a missing compiled backend shows up as an explicit skip with
its unavailability reason, never as silently shrunk coverage.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hamming import distance as distance_mod
from repro.hamming.distance import (
    cross_distances,
    hamming_distance,
    hamming_distance_many,
    nearest_within,
    paired_distances,
    pairwise_distances,
    parity_sketch,
    popcount_rows,
)
from repro.hamming.kernels import (
    KNOWN_KERNELS,
    ScratchPool,
    _self_check,
    available_kernels,
    get_kernel,
    kernel_info,
    set_kernel,
    unavailable_kernels,
    use_kernel,
)
from repro.hamming._reference import ReferenceBackend
from repro.hamming.packing import packed_words

SEAM = [
    lambda a, b: popcount_rows(a),
    lambda a, b: hamming_distance(a[0], b[0]) if len(a) and len(b) else 0,
    lambda a, b: hamming_distance_many(a[0], b) if len(a) else 0,
    cross_distances,
    lambda a, b: paired_distances(a, a[::-1]),
    lambda a, b: pairwise_distances(a),
    lambda a, b: np.stack(nearest_within(a, b, 32 * a.shape[1])),
    parity_sketch,
]

words = st.integers(min_value=0, max_value=2**64 - 1)


def kernel_params():
    params = []
    for name in KNOWN_KERNELS:
        if name in available_kernels():
            params.append(pytest.param(name))
        else:
            reason = unavailable_kernels().get(name, "not registered")
            params.append(
                pytest.param(name, marks=pytest.mark.skip(reason=f"{name}: {reason}"))
            )
    return params


@pytest.fixture(params=kernel_params())
def kernel(request):
    with use_kernel(request.param):
        yield request.param


def assert_matches_reference(fn, *arrays_in):
    got = fn(*arrays_in)
    with use_kernel("reference"):
        want = fn(*arrays_in)
    if isinstance(want, int):
        assert isinstance(got, int)
        assert got == want
    else:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# -- adversarial fixed shapes ---------------------------------------------

ADVERSARIAL = [
    ("zero-rows", np.empty((0, 3), dtype=np.uint64), np.empty((0, 3), dtype=np.uint64)),
    ("zero-words", np.zeros((4, 0), dtype=np.uint64), np.zeros((4, 0), dtype=np.uint64)),
    ("single-word", np.array([[0], [2**63], [2**64 - 1]], dtype=np.uint64), np.array([[5], [0], [2**64 - 1]], dtype=np.uint64)),
    ("all-zeros", np.zeros((6, 5), dtype=np.uint64), np.zeros((6, 5), dtype=np.uint64)),
    ("all-ones", np.full((6, 5), 2**64 - 1, dtype=np.uint64), np.full((6, 5), 2**64 - 1, dtype=np.uint64)),
    ("mixed", (np.arange(40, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)).reshape(8, 5), (np.arange(40, 80, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)).reshape(8, 5)),
]


@pytest.mark.parametrize("label,a,b", ADVERSARIAL, ids=[c[0] for c in ADVERSARIAL])
def test_adversarial_shapes_match_reference(kernel, label, a, b):
    for fn in SEAM:
        assert_matches_reference(fn, a, b)


def test_non_contiguous_views_match_reference(kernel):
    base = (np.arange(160, dtype=np.uint64) * np.uint64(0x2545F4914F6CDD1D)).reshape(16, 10)
    a = base[::2, ::2]  # strided in both axes
    b = base[1::2, ::2]
    assert not a.flags["C_CONTIGUOUS"]
    for fn in SEAM:
        assert_matches_reference(fn, a, b)


def test_inputs_beyond_chunk_budget_match_reference(kernel, monkeypatch):
    # A tiny budget forces many chunks through whichever backend chunks;
    # results must not depend on the chunking at all.
    monkeypatch.setattr(distance_mod, "_CHUNK_WORD_BUDGET", 32)
    a = (np.arange(120, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)).reshape(15, 8)
    b = (np.arange(120, 216, dtype=np.uint64) * np.uint64(0x94D049BB133111EB)).reshape(12, 8)
    assert_matches_reference(cross_distances, a, b)
    assert_matches_reference(lambda x, y: hamming_distance_many(x[0], y), a, b)
    assert_matches_reference(lambda x, y: paired_distances(x[:12], y), a, b)


# -- hypothesis differential ----------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    # The kernel fixture is constant for a test item; no per-example reset
    # is needed, so the function-scoped-fixture health check is moot here.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_differential_random_shapes(kernel, data):
    w = data.draw(st.integers(0, 7), label="words")
    ma = data.draw(st.integers(0, 10), label="rows_a")
    mb = data.draw(st.integers(0, 10), label="rows_b")
    a = data.draw(arrays(np.uint64, (ma, w), elements=words), label="a")
    b = data.draw(arrays(np.uint64, (mb, w), elements=words), label="b")
    assert_matches_reference(lambda x, y: popcount_rows(x), a, b)
    assert_matches_reference(cross_distances, a, b)
    assert_matches_reference(lambda x, y: pairwise_distances(x), a, b)
    assert_matches_reference(lambda x, y: paired_distances(x, x[::-1]), a, b)
    if ma:
        assert_matches_reference(lambda x, y: hamming_distance_many(x[0], y), a, b)
        if mb:
            assert_matches_reference(lambda x, y: hamming_distance(x[0], y[0]), a, b)


# -- parity sketch ------------------------------------------------------------

ALL_ONES = 2**64 - 1


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_parity_sketch_matches_reference(kernel, data):
    rows = data.draw(st.sampled_from([1, 63, 64, 65, 104, 128]), label="rows")
    d = data.draw(st.sampled_from([1, 63, 64, 65, 128, 129, 1024]), label="d")
    m = data.draw(st.sampled_from([0, 1, 257]), label="m")
    layout = data.draw(st.sampled_from(["heap", "read-only", "mmap"]), label="mask")
    strided = data.draw(st.booleans(), label="strided points")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = packed_words(d)
    mask = gen.integers(0, ALL_ONES, size=(rows, w), dtype=np.uint64, endpoint=True)
    mask[data.draw(st.integers(0, rows - 1), label="zero row")] = 0
    mask[data.draw(st.integers(0, rows - 1), label="ones row")] = ALL_ONES
    points = gen.integers(0, ALL_ONES, size=(2 * m, 2 * w), dtype=np.uint64, endpoint=True)
    points = points[::2, ::2] if strided else points[:m, :w]
    with tempfile.TemporaryDirectory() as tmp:
        if layout == "read-only":
            mask.setflags(write=False)
        elif layout == "mmap":
            np.save(Path(tmp) / "mask.npy", mask)
            mask = np.load(Path(tmp) / "mask.npy", mmap_mode="r")
        got = parity_sketch(points, mask)
        with use_kernel("reference"):
            want = parity_sketch(points, mask)
        del mask  # release the memmap before its directory goes
    assert got.dtype == want.dtype == np.uint64
    assert got.shape == want.shape == (m, packed_words(rows))
    assert np.array_equal(got, want)


def test_parity_sketch_refuses_malformed_operands():
    points = np.zeros((3, 2), dtype=np.uint64)
    with pytest.raises(ValueError, match="uint64"):
        parity_sketch(points.astype(np.int64), points)
    with pytest.raises(ValueError, match="2-D"):
        parity_sketch(points[0], points)
    with pytest.raises(ValueError, match="word-count mismatch"):
        parity_sketch(points, np.zeros((5, 3), dtype=np.uint64))


# -- the import-time self-check ---------------------------------------------


class LastTieBackend(ReferenceBackend):
    """Returns the *last* row at minimum distance instead of the first."""

    name = "last-tie"

    def nearest_within(self, a, b, limit):
        index, dist = super().nearest_within(a, b[::-1], limit)
        return np.where(index < 0, -1, len(b) - 1 - index), dist


class TailBitBackend(ReferenceBackend):
    """Sets the top bit of a partial last sketch word."""

    name = "tail-bit"

    def parity_sketch(self, points, mask):
        out = super().parity_sketch(points, mask)
        if len(mask) % 64:
            out[:, -1] |= np.uint64(1 << 63)
        return out


@pytest.mark.parametrize("flawed", [LastTieBackend, TailBitBackend])
def test_self_check_refuses_a_flawed_backend(flawed):
    with pytest.raises(RuntimeError, match="self-check"):
        _self_check(flawed())
    _self_check(ReferenceBackend())  # the unflawed base passes


# -- error-contract parity ------------------------------------------------

MISMATCHES = [
    (hamming_distance, (np.zeros(2, np.uint64), np.zeros(3, np.uint64))),
    (hamming_distance_many, (np.zeros(2, np.uint64), np.zeros((4, 3), np.uint64))),
    (cross_distances, (np.zeros((2, 2), np.uint64), np.zeros((2, 3), np.uint64))),
    (paired_distances, (np.zeros((2, 3), np.uint64), np.zeros((4, 3), np.uint64))),
    (pairwise_distances, (np.zeros((2, 2), np.uint64), np.zeros((2, 5), np.uint64))),
    (nearest_within, (np.zeros((2, 2), np.uint64), np.zeros((2, 3), np.uint64), 5)),
    (parity_sketch, (np.zeros((2, 2), np.uint64), np.zeros((2, 3), np.uint64))),
]


@pytest.mark.parametrize("fn,args", MISMATCHES, ids=lambda v: getattr(v, "__name__", ""))
def test_error_contract_parity(kernel, fn, args):
    with pytest.raises(ValueError) as active_exc:
        fn(*args)
    with use_kernel("reference"):
        with pytest.raises(ValueError) as reference_exc:
            fn(*args)
    assert str(active_exc.value) == str(reference_exc.value)


# -- selection surface ----------------------------------------------------


def test_set_kernel_unknown_name_lists_alternatives():
    with pytest.raises(ValueError, match="available: "):
        set_kernel("definitely-not-a-kernel")
    # Selection failures never change the active backend.
    assert kernel_info()["active"] in available_kernels()


def test_set_kernel_reports_unavailability_reason():
    # REPRO_NO_CBITS=1 turns 'cbits' into a known backend that failed to
    # register, on every host.
    code = (
        "from repro.hamming import set_kernel\n"
        "try:\n"
        "    set_kernel('cbits')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, REPRO_NO_CBITS="1")
    env.pop("REPRO_KERNEL", None)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "'cbits' unavailable" in out.stdout
    assert "REPRO_NO_CBITS" in out.stdout


def test_use_kernel_restores_previous_backend(kernel):
    before = kernel_info()["active"]
    with use_kernel("reference"):
        assert kernel_info()["active"] == "reference"
    assert kernel_info()["active"] == before


def test_env_var_selects_backend_in_subprocess():
    code = "from repro.hamming import active_kernel; print(active_kernel())"
    env = dict(os.environ, REPRO_KERNEL="reference")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "reference"


def _import_in_subprocess(code, **env_changes):
    env = dict(os.environ)
    for name in ("REPRO_KERNEL", "REPRO_NO_CBITS"):
        env.pop(name, None)
    env.update(env_changes)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_default_kernel_is_cbits_when_it_builds():
    code = (
        "from repro.hamming import active_kernel, available_kernels\n"
        "print(active_kernel(), 'cbits' in available_kernels())\n"
    )
    active, built = _import_in_subprocess(code)
    assert active == ("cbits" if built == "True" else "reference")
    if "cbits" in available_kernels():  # built here, so it builds there too
        assert active == "cbits"


def test_default_kernel_is_reference_without_cbits():
    code = "from repro.hamming import active_kernel; print(active_kernel())"
    assert _import_in_subprocess(code, REPRO_NO_CBITS="1") == ["reference"]


def test_unknown_env_kernel_warning_names_the_kept_default():
    code = (
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    from repro.hamming import active_kernel\n"
        "kept = active_kernel()\n"
        "print(kept, any(f'staying on {kept!r}' in str(w.message) for w in caught))\n"
    )
    kept, named = _import_in_subprocess(code, REPRO_KERNEL="bogus")
    assert named == "True", kept


@pytest.mark.slow
def test_env_var_unknown_name_warns_and_falls_back():
    code = (
        "import warnings\n"
        "warnings.simplefilter('error')\n"
        "try:\n"
        "    from repro.hamming import active_kernel\n"
        "except RuntimeWarning as w:\n"
        "    assert 'bogus' in str(w), w\n"
        "    print('warned')\n"
        "else:\n"
        "    print('no warning:', active_kernel())\n"
    )
    env = dict(os.environ, REPRO_KERNEL="bogus")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "warned", out.stdout + out.stderr


@pytest.mark.slow
def test_no_cbits_env_gates_the_compiled_backend():
    code = (
        "from repro.hamming import available_kernels, unavailable_kernels\n"
        "assert 'cbits' not in available_kernels(), available_kernels()\n"
        "print(unavailable_kernels().get('cbits', ''))\n"
    )
    env = dict(os.environ, REPRO_NO_CBITS="1")
    env.pop("REPRO_KERNEL", None)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "REPRO_NO_CBITS" in out.stdout


# -- cbits cache hygiene --------------------------------------------------


def test_cbits_cache_defaults_under_user_cache_dir(monkeypatch):
    from pathlib import Path

    from repro.hamming import _cbits

    monkeypatch.delenv("REPRO_CBITS_CACHE", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", "/fake/cache")
    assert _cbits._cache_dir() == Path("/fake/cache/repro/cbits")
    monkeypatch.setenv("REPRO_CBITS_CACHE", "/override")
    assert _cbits._cache_dir() == Path("/override")


def test_cbits_cache_refuses_world_writable_artifacts(tmp_path):
    from repro.hamming import _cbits

    lib = tmp_path / "cbits-deadbeef.so"
    lib.write_bytes(b"")
    os.chmod(lib, 0o777)
    with pytest.raises(RuntimeError, match="writable"):
        _cbits._assert_private(lib, "library")
    os.chmod(lib, 0o700)
    _cbits._assert_private(lib, "library")  # private artifact passes


def test_cbits_cache_digest_covers_compiler_identity():
    # Distinct compiler fingerprints must map to distinct cache targets,
    # so a toolchain change rebuilds instead of reusing a stale binary.
    from repro.hamming import _cbits

    digests = [
        hashlib.sha256(
            "\n".join(
                [_cbits._SOURCE, repr(_cbits._BASE_FLAGS), repr([]), fp]
            ).encode()
        ).hexdigest()[:16]
        for fp in ("/usr/bin/cc gcc 12.2.0", "/usr/bin/cc gcc 13.1.0")
    ]
    assert digests[0] != digests[1]


# -- scratch pooling ------------------------------------------------------


def test_scratch_pool_reuses_buffers_across_shapes():
    pool = ScratchPool()
    first = pool.take(64, np.uint64)
    assert pool.misses == 1
    again = pool.take(64, np.uint64)
    assert pool.hits == 1
    assert again.base is first.base
    smaller = pool.take(16, np.uint64)
    assert smaller.size == 16 and pool.hits == 2
    grown = pool.take(256, np.uint64)
    assert grown.size == 256 and pool.misses == 2
    # Per-dtype arenas never alias each other.
    other = pool.take(64, np.uint8)
    assert other.dtype == np.uint8 and pool.misses == 3


def test_scratch_pool_arenas_are_per_thread():
    import threading

    pool = ScratchPool()
    main_view = pool.take(64, np.uint64)
    other_base = []

    def worker():
        other_base.append(pool.take(64, np.uint64).base)

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    # Another thread must get its own arena, never a view of ours.
    assert other_base[0] is not main_view.base
    # stats() still accounts for every thread's arenas.
    assert pool.stats()["bytes"] == 2 * 64 * 8


def test_reference_backend_is_thread_safe():
    # Regression: the module-global reference backend pooled one shared
    # arena across threads, so concurrent distance sweeps overwrote each
    # other's XOR temporaries and returned silently wrong counts.
    import threading

    rng = np.random.default_rng(7)
    # Sized so the ufunc bodies release the GIL long enough for arena
    # sharing to corrupt results: with the pre-fix shared pool this
    # mismatches on roughly half the queries per run.
    m, w = 20000, 16
    rows = rng.integers(0, 2**64, size=(m, w), dtype=np.uint64)
    queries = rng.integers(0, 2**64, size=(8, w), dtype=np.uint64)
    with use_kernel("reference"):
        want = [
            np.bitwise_count(rows ^ q[None, :]).sum(axis=1, dtype=np.int64)
            for q in queries
        ]
        results = [None] * len(queries)
        barrier = threading.Barrier(4)

        def worker(tid):
            barrier.wait()
            for i in range(tid, len(queries), 4):
                for _ in range(5):
                    results[i] = hamming_distance_many(queries[i], rows)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for got, expected in zip(results, want):
        assert np.array_equal(got, expected)


def test_reference_pooling_is_bitwise_stable_across_calls():
    # Interleave shapes so pooled buffers shrink/grow between calls; every
    # answer must still match a fresh unpooled computation.
    backend = get_kernel("reference")
    rng_words = (np.arange(600, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    with use_kernel("reference"):
        for m, w in [(10, 6), (3, 6), (25, 6), (4, 20), (25, 6), (1, 5)]:
            a = rng_words[: m * w].reshape(m, w)
            b = rng_words[m * w : 2 * m * w].reshape(m, w)
            got = cross_distances(a, b)
            want = np.bitwise_count(a[:, None, :] ^ b[None, :, :]).sum(
                axis=2, dtype=np.int64
            )
            assert np.array_equal(got, want)
    assert backend.pool.hits > 0
