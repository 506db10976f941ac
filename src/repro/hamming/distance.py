"""Vectorized Hamming distances on packed uint64 arrays (the seam's API).

All distances are exact integers computed as ``popcount(x XOR y)`` over
the packed words.  Since v1.9 these functions are thin *dispatchers*:
each one normalizes dtypes/shapes, enforces the shared error contract,
answers the degenerate shapes (zero rows / zero words) directly, and
hands real work to the active :class:`~repro.hamming.kernels.KernelBackend`
(``reference`` = NumPy ``np.bitwise_count``; see
:mod:`repro.hamming.kernels` for ``set_kernel``/``REPRO_KERNEL``).
Validation living here — not in backends — is what makes the error
contract identical under every backend by construction.  Two functions
never dispatch and run in NumPy under every backend: ``popcount_sum``
and ``nearest_within``.

Every backend chunks its work so peak memory stays bounded even for
one-vs-a-million queries; ``_CHUNK_WORD_BUDGET`` below remains the knob.
"""

from __future__ import annotations

import numpy as np

# Rows processed per chunk in one-vs-many computations; 1<<18 words keeps
# the temporary XOR buffer around 2 MB regardless of database size.  The
# reference backend reads this at call time, so patching it still works.
# Assigned *before* the kernels import: backend discovery below runs a
# differential self-check whose reference side already needs the knob.
_CHUNK_WORD_BUDGET = 1 << 18

from repro.hamming import kernels  # noqa: E402

__all__ = [
    "cross_distances",
    "hamming_distance",
    "hamming_distance_many",
    "nearest_within",
    "paired_distances",
    "pairwise_distances",
    "popcount_rows",
    "popcount_sum",
]


def _as_rows(arr) -> np.ndarray:
    rows = np.asarray(arr, dtype=np.uint64)
    if rows.ndim == 1:
        rows = rows[None, :]
    return rows


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Sum of set bits in each row of a 2-D uint64 array (returns int64)."""
    arr = _as_rows(words)
    m, w = arr.shape
    if m == 0 or w == 0:
        return np.zeros(m, dtype=np.int64)
    return kernels.active_backend().popcount_rows(arr)


def popcount_sum(words: np.ndarray, axis=-1, dtype=np.int64) -> np.ndarray:
    """Popcount reduced along ``axis`` with an explicit accumulator dtype.

    The escape hatch for *non-distance* bit counting (e.g. the sketch
    layer's parity sums, which deliberately accumulate mod 256 in uint8).
    Always computed by the NumPy reference path — backend dispatch covers
    the five distance kernels only — but living here keeps every popcount
    behind ``repro/hamming/`` (rule R007).
    """
    return np.bitwise_count(np.asarray(words, dtype=np.uint64)).sum(
        axis=axis, dtype=dtype
    )


def hamming_distance(x: np.ndarray, y: np.ndarray) -> int:
    """Exact Hamming distance between two packed points (1-D uint64)."""
    xv = np.asarray(x, dtype=np.uint64).ravel()
    yv = np.asarray(y, dtype=np.uint64).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"shape mismatch: {xv.shape} vs {yv.shape}")
    if xv.shape[0] == 0:
        return 0
    return int(kernels.active_backend().hamming_distance(xv, yv))


def hamming_distance_many(x: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Distances from a single packed point ``x`` to every row of ``batch``.

    Parameters
    ----------
    x : uint64 array of shape ``(W,)``
    batch : uint64 array of shape ``(m, W)``

    Returns
    -------
    int64 array of shape ``(m,)``
    """
    xv = np.asarray(x, dtype=np.uint64).ravel()
    rows = _as_rows(batch)
    if rows.shape[1] != xv.shape[0]:
        raise ValueError(f"word-count mismatch: point {xv.shape[0]}, batch {rows.shape[1]}")
    m, w = rows.shape
    if m == 0 or w == 0:
        return np.zeros(m, dtype=np.int64)
    return kernels.active_backend().hamming_distance_many(xv, rows)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs ``(ma, mb)`` distance matrix between packed batches.

    The many-vs-many sibling of :func:`hamming_distance_many`: one
    broadcast XOR + popcount per chunk of ``a`` rows instead of a Python
    loop per row, which is what makes batched table prefetching pay off.
    Results are exact integers, identical to per-row calls.
    """
    av = _as_rows(a)
    bv = _as_rows(b)
    if av.shape[1] != bv.shape[1]:
        raise ValueError(f"word-count mismatch: {av.shape[1]} vs {bv.shape[1]}")
    ma, w = av.shape
    mb = bv.shape[0]
    if ma == 0 or mb == 0:
        return np.empty((ma, mb), dtype=np.int64)
    if w == 0:
        return np.zeros((ma, mb), dtype=np.int64)
    return kernels.active_backend().cross_distances(av, bv)


def nearest_within(a: np.ndarray, b: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of ``b`` for each row of ``a``, if within ``limit``.

    Returns int64 ``(index, distance)`` arrays of shape ``(ma,)``: the
    lowest-index row of ``b`` at minimum distance, or ``(-1, -1)`` when
    that distance exceeds ``limit`` — exactly the first ``argmin`` of
    :func:`cross_distances`, thresholded, without building the
    ``(ma, mb)`` int64 matrix.  Rows of ``a`` go in blocks whose
    ``(rows, mb)`` XOR buffer stays within ``_CHUNK_WORD_BUDGET``, and
    per-word popcounts accumulate in the narrowest unsigned type that
    holds ``64 * w``.  Like :func:`popcount_sum` this always runs in
    NumPy: the reduction is fused into the block loop, which no
    dispatched backend method offers.
    """
    av = _as_rows(a)
    bv = _as_rows(b)
    if av.shape[1] != bv.shape[1]:
        raise ValueError(f"word-count mismatch: {av.shape[1]} vs {bv.shape[1]}")
    ma, w = av.shape
    mb = bv.shape[0]
    if ma == 0 or mb == 0:
        return np.full(ma, -1, dtype=np.int64), np.full(ma, -1, dtype=np.int64)
    rows = min(ma, max(1, _CHUNK_WORD_BUDGET // mb))
    columns = np.ascontiguousarray(bv.T)  # word-major: each XOR reads contiguously
    xored = np.empty((rows, mb), dtype=np.uint64)
    counts = np.empty((rows, mb), dtype=np.uint8)
    acc = np.zeros((rows, mb), dtype=np.min_scalar_type(64 * w))
    index = np.empty(ma, dtype=np.int64)
    dist = np.empty(ma, dtype=np.int64)
    for start in range(0, ma, rows):
        stop = min(ma, start + rows)
        x, c, s = xored[: stop - start], counts[: stop - start], acc[: stop - start]
        for j in range(w):
            np.bitwise_xor(av[start:stop, j, None], columns[j], out=x)
            np.bitwise_count(x, out=c if j else s)
            if j:
                np.add(s, c, out=s)
        best = s.argmin(axis=1)
        index[start:stop] = best
        dist[start:stop] = s[np.arange(stop - start), best]
    miss = dist > limit
    index[miss] = -1
    dist[miss] = -1
    return index, dist


def paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-paired distances: ``out[i] = d(a[i], b[i])`` (int64, shape ``(m,)``).

    The third sibling — one-to-one where ``hamming_distance_many`` is
    one-vs-many and ``cross_distances`` is many-vs-many.  Used where
    candidate pairs are gathered first (e.g. the perfect-hash screen).
    """
    av = _as_rows(a)
    bv = _as_rows(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    m, w = av.shape
    if m == 0 or w == 0:
        return np.zeros(m, dtype=np.int64)
    return kernels.active_backend().paired_distances(av, bv)


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """All-pairs distance matrix between packed batches ``a`` and ``b``.

    ``b`` defaults to ``a``.  Delegates to :func:`cross_distances`.
    """
    av = np.asarray(a, dtype=np.uint64)
    bv = av if b is None else np.asarray(b, dtype=np.uint64)
    return cross_distances(av, bv)
