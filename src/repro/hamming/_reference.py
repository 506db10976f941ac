"""The NumPy reference kernel backend: ``np.bitwise_count`` + pooling.

This is the always-available ground truth of the kernel seam — the
implementations that lived in :mod:`repro.hamming.distance` through
v1.8, with one change: per-chunk XOR/count temporaries come from a
:class:`~repro.hamming.kernels.ScratchPool` instead of fresh
allocations, so the batch engine's steady stream of same-shaped sweeps
reuses two per-thread arenas instead of allocating per flush (the pool
keeps scratch in ``threading.local`` storage, so the module-global
singleton backend stays safe under concurrent callers).  Pooling only swaps
``a ^ b`` for ``np.bitwise_xor(a, b, out=...)`` (and likewise for
``bitwise_count``/``sum``) — elementwise-identical, so results stay
bitwise-equal to the historical code path.  The single-pair distance,
the witness search and the parity sketch are the
:class:`~repro.hamming.kernels.KernelBackend` defaults, inherited
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.kernels import KernelBackend, ScratchPool, _chunk_budget

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    name = "reference"
    description = "NumPy np.bitwise_count (always available; the bitwise ground truth)"

    def __init__(self) -> None:
        self.pool = ScratchPool()

    # -- primitives --------------------------------------------------------
    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

    def hamming_distance_many(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        m, w = rows.shape
        out = np.empty(m, dtype=np.int64)
        chunk = max(1, _chunk_budget() // max(1, w))
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            n = stop - start
            xored = self.pool.take(n * w, np.uint64).reshape(n, w)
            np.bitwise_xor(rows[start:stop], x[None, :], out=xored)
            counts = self.pool.take(n * w, np.uint8).reshape(n, w)
            np.bitwise_count(xored, out=counts)
            np.sum(counts, axis=1, dtype=np.int64, out=out[start:stop])
        return out

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ma, w = a.shape
        mb = b.shape[0]
        if w <= 4:
            # Few words: accumulate per-word 2-D popcounts, no 3-D buffer.
            acc = np.bitwise_count(a[:, 0][:, None] ^ b[None, :, 0]).astype(np.int64)
            for j in range(1, w):
                acc += np.bitwise_count(a[:, j][:, None] ^ b[None, :, j])
            return acc
        out = np.empty((ma, mb), dtype=np.int64)
        # Chunk rows of `a` so the (chunk, mb, w) XOR buffer stays bounded.
        chunk = max(1, _chunk_budget() // max(1, mb * w))
        for start in range(0, ma, chunk):
            stop = min(ma, start + chunk)
            n = stop - start
            xored = self.pool.take(n * mb * w, np.uint64).reshape(n, mb, w)
            np.bitwise_xor(a[start:stop, None, :], b[None, :, :], out=xored)
            counts = self.pool.take(n * mb * w, np.uint8).reshape(n, mb, w)
            np.bitwise_count(xored, out=counts)
            np.sum(counts, axis=2, dtype=np.int64, out=out[start:stop])
        return out

    def paired_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m, w = a.shape
        out = np.empty(m, dtype=np.int64)
        chunk = max(1, _chunk_budget() // max(1, w))
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            n = stop - start
            xored = self.pool.take(n * w, np.uint64).reshape(n, w)
            np.bitwise_xor(a[start:stop], b[start:stop], out=xored)
            counts = self.pool.take(n * w, np.uint8).reshape(n, w)
            np.bitwise_count(xored, out=counts)
            np.sum(counts, axis=1, dtype=np.int64, out=out[start:stop])
        return out
