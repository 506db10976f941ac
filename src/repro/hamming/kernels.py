"""Pluggable popcount/XOR-distance kernel backends (the *kernel seam*).

Every layer of the project — lockstep sweeps, the batch engine, sharded
and out-of-core serving — ultimately bottoms out in ``popcount(x XOR y)``
over packed uint64 words.  This module turns that hot path into a seam:
:mod:`repro.hamming.distance` validates arguments and dispatches to the
*active* :class:`KernelBackend`, so accelerated implementations can be
swapped in without touching a single call site (ARCHITECTURE invariant
#7; rule R007 keeps call sites from bypassing the seam).

Backends
--------
``reference``
    The NumPy ``np.bitwise_count`` implementation — always available and
    the bitwise ground truth every other backend is checked against.
``cbits``
    A small C library compiled on demand with the system C compiler and
    loaded through ``ctypes``: fused XOR+popcount loops, no Python-level
    temporaries.  Registers only when a working compiler is found and the
    library passes the differential self-check (set ``REPRO_NO_CBITS=1``
    to skip the build entirely); when it registers, it is the active
    backend from import on.  Otherwise the seam stays on ``reference``.

Selection flows through exactly one runtime surface:

* :func:`set_kernel` / :func:`use_kernel` in process,
* env ``REPRO_KERNEL`` at import (unknown names warn and keep the
  default — loud but graceful),
* ``--kernel`` on the ``bench``/``serve``/``shard-serve``/``route`` CLI
  verbs, which just calls :func:`set_kernel`.

The hard contract: every registered backend returns **bitwise-identical**
results to ``reference`` for all seven backend methods.  A quick
differential self-check runs before any optional backend registers, and
``tests/hamming/test_kernel_equivalence.py`` holds the full property
suite over adversarial shapes.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.hamming.packing import pack_bits

__all__ = [
    "ENV_VAR",
    "KNOWN_KERNELS",
    "KernelBackend",
    "ScratchPool",
    "active_backend",
    "active_kernel",
    "available_kernels",
    "get_kernel",
    "kernel_info",
    "register_kernel",
    "set_kernel",
    "unavailable_kernels",
    "use_kernel",
]

ENV_VAR = "REPRO_KERNEL"

# Every backend name this build knows how to construct, available or not.
# Test suites parametrize over this tuple so missing backends show up as
# explicit skips instead of silently shrinking coverage.
KNOWN_KERNELS: Tuple[str, ...] = ("reference", "cbits")

# Bound on the elements of the (point_block × row_block × words) AND buffer
# of the NumPy parity sketch; ~2^21 uint64 ≈ 16 MB.
_APPLY_BUFFER_ELEMENTS = 1 << 21


def _chunk_budget() -> int:
    # Late-bound on purpose: tests (and callers tuning memory) patch
    # repro.hamming.distance._CHUNK_WORD_BUDGET, and that knob must keep
    # steering the chunk loops now that they live behind the seam.
    from repro.hamming import distance

    return distance._CHUNK_WORD_BUDGET


class ScratchPool:
    """Reusable flat scratch buffers, one growable arena per dtype *per thread*.

    ``take(count, dtype)`` returns a length-``count`` view into a pooled
    allocation, growing it only when a request exceeds the high-water
    mark — so a steady stream of same-shaped kernel calls (the batch
    engine's per-flush sweeps) allocates exactly once instead of once
    per call.  Views alias the pool: a buffer is dead the moment the
    next ``take`` of the same dtype happens *on the same thread*, which
    is exactly the lifetime of a per-chunk XOR/count temporary.

    Arenas live in ``threading.local`` storage, so concurrent callers of
    the public distance API (the default backend is a module-global
    singleton) never see each other's temporaries — each thread pays one
    warm-up allocation and then reuses its own arenas lock-free.  The
    ``hits``/``misses`` counters are best-effort under concurrency
    (unlocked increments); they are provenance, not answers.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        # Every thread's arena dict, for stats(); guarded by _lock.  Held
        # strongly: per-thread footprint is bounded by the high-water mark.
        self._all_arenas: List[Dict[str, np.ndarray]] = []
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _arenas(self) -> Dict[str, np.ndarray]:
        arenas = getattr(self._local, "arenas", None)
        if arenas is None:
            arenas = self._local.arenas = {}
            with self._lock:
                self._all_arenas.append(arenas)
        return arenas

    def take(self, count: int, dtype) -> np.ndarray:
        arenas = self._arenas()
        key = np.dtype(dtype).str
        arena = arenas.get(key)
        if arena is None or arena.size < count:
            arenas[key] = arena = np.empty(count, dtype=dtype)
            self.misses += 1
        else:
            self.hits += 1
        return arena[:count]

    def stats(self) -> dict:
        with self._lock:
            nbytes = sum(
                a.nbytes for arenas in self._all_arenas for a in arenas.values()
            )
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes": nbytes,
        }


class KernelBackend:
    """One popcount/XOR-distance implementation behind the seam.

    Subclasses implement the three primitive kernels below; the other
    four methods have NumPy defaults a backend may override.  Inputs
    are pre-validated by :mod:`repro.hamming.distance`: uint64 ndarrays
    (possibly non-contiguous views or read-only memmaps) with ``m >= 1``
    rows and ``w >= 1`` words — the degenerate shapes are answered by the
    dispatchers, so a backend never sees them.  Outputs must be
    bitwise-identical to the ``reference`` backend.
    """

    name = "abstract"
    description = ""

    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(m, w) -> (m,)`` set-bit count per row."""
        raise NotImplementedError

    def hamming_distance_many(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``(w,) vs (m, w) -> (m,)`` one-vs-many distances."""
        raise NotImplementedError

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(ma, w) vs (mb, w) -> (ma, mb)`` all-pairs distances."""
        raise NotImplementedError

    def hamming_distance(self, x: np.ndarray, y: np.ndarray) -> int:
        """Distance between two ``(w,)`` points.  One NumPy pass over a
        few words costs less than a foreign call's argument marshaling."""
        return int(np.bitwise_count(x ^ y).sum(dtype=np.int64))

    def paired_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(m, w) vs (m, w) -> (m,)`` row-paired distances."""
        return self.popcount_rows(np.bitwise_xor(a, b))

    def nearest_within(
        self, a: np.ndarray, b: np.ndarray, limit: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ma, w) vs (mb, w) -> (index, distance)``, two int64 ``(ma,)``.

        Per row of ``a``: the lowest-index row of ``b`` at minimum
        distance, or ``(-1, -1)`` when that distance exceeds ``limit``
        (an int in ``[-1, 64 * w]``).  This default works through blocks
        of ``a`` rows whose ``(rows, mb)`` XOR buffer stays within
        ``_CHUNK_WORD_BUDGET``, and accumulates per-word popcounts in the
        narrowest unsigned type that holds ``64 * w``.
        """
        ma, w = a.shape
        mb = b.shape[0]
        rows = min(ma, max(1, _chunk_budget() // mb))
        columns = np.ascontiguousarray(b.T)  # word-major: each XOR reads contiguously
        xored = np.empty((rows, mb), dtype=np.uint64)
        counts = np.empty((rows, mb), dtype=np.uint8)
        acc = np.zeros((rows, mb), dtype=np.min_scalar_type(64 * w))
        index = np.empty(ma, dtype=np.int64)
        dist = np.empty(ma, dtype=np.int64)
        for start in range(0, ma, rows):
            stop = min(ma, start + rows)
            x, c, s = xored[: stop - start], counts[: stop - start], acc[: stop - start]
            for j in range(w):
                np.bitwise_xor(a[start:stop, j, None], columns[j], out=x)
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

    def parity_sketch(self, points: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``(m, w) x (rows, w) -> (m, ceil(rows / 64))`` packed GF(2) sketch.

        Bit ``r`` of output row ``q`` is the parity of
        ``popcount(points[q] & mask[r])``, packed little-endian with zero
        tail bits.  This default tiles rows and points so the AND buffer
        stays within ``_APPLY_BUFFER_ELEMENTS`` words.
        """
        m, w = points.shape
        rows = mask.shape[0]
        bits = np.empty((m, rows), dtype=np.uint8)
        row_block = max(1, min(rows, _APPLY_BUFFER_ELEMENTS // w // min(m, 1024)))
        pt_block = max(1, _APPLY_BUFFER_ELEMENTS // w // row_block)
        for r0 in range(0, rows, row_block):
            r1 = min(rows, r0 + row_block)
            band = mask[r0:r1]  # (B, W)
            for q0 in range(0, m, pt_block):
                q1 = min(m, q0 + pt_block)
                # (Q, B, W) AND buffer -> per-(point,row) popcount parity.
                # Summing uint8 popcounts wraps mod 256, which preserves
                # the parity bit while moving 8x less memory than int64.
                anded = points[q0:q1, None, :] & band[None, :, :]
                counts = np.bitwise_count(anded).sum(axis=2, dtype=np.uint8)
                bits[q0:q1, r0:r1] = counts & np.uint8(1)
        return pack_bits(bits, rows)


_REGISTRY: Dict[str, KernelBackend] = {}
_UNAVAILABLE: Dict[str, str] = {}
_ACTIVE: KernelBackend


def register_kernel(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (last registration of a name wins)."""
    _REGISTRY[backend.name] = backend
    _UNAVAILABLE.pop(backend.name, None)
    return backend


def available_kernels() -> List[str]:
    """Names of the backends that registered successfully, in order."""
    return [name for name in KNOWN_KERNELS if name in _REGISTRY] + [
        name for name in _REGISTRY if name not in KNOWN_KERNELS
    ]


def unavailable_kernels() -> Dict[str, str]:
    """``name -> reason`` for every known backend that failed to register."""
    return dict(_UNAVAILABLE)


def get_kernel(name: str) -> KernelBackend:
    backend = _REGISTRY.get(name)
    if backend is None:
        detail = ""
        if name in _UNAVAILABLE:
            detail = f" ({name!r} unavailable: {_UNAVAILABLE[name]})"
        raise ValueError(
            f"unknown kernel {name!r}; available: {', '.join(available_kernels())}"
            + detail
        )
    return backend


def active_backend() -> KernelBackend:
    return _ACTIVE


def active_kernel() -> str:
    """Name of the backend currently serving the seam (provenance)."""
    return _ACTIVE.name


def set_kernel(name: str) -> str:
    """Select the active backend; returns the previous backend's name.

    The ONE runtime switch: CLI ``--kernel`` and env ``REPRO_KERNEL``
    both land here.  Raises ``ValueError`` (naming the available
    backends and why the requested one is missing) on unknown names.
    """
    global _ACTIVE
    previous = _ACTIVE.name
    _ACTIVE = get_kernel(name)
    return previous


@contextmanager
def use_kernel(name: str) -> Iterator[KernelBackend]:
    """Scoped :func:`set_kernel` — restores the previous backend on exit."""
    previous = set_kernel(name)
    try:
        yield _ACTIVE
    finally:
        set_kernel(previous)


def kernel_info() -> dict:
    """Provenance snapshot: active backend, alternatives, failure reasons."""
    return {
        "active": _ACTIVE.name,
        "available": available_kernels(),
        "unavailable": unavailable_kernels(),
    }


def _self_check(backend: KernelBackend) -> None:
    """Cheap differential gate run before an optional backend registers.

    Not the full property suite (tests/hamming/test_kernel_equivalence.py
    is), just enough to refuse a miscompiled library at import time.
    """
    reference = _REGISTRY["reference"]
    # Deterministic well-mixed words (a Weyl sequence) — no RNG needed,
    # the check is differential, not statistical.
    base = np.arange(246, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    a = (base[:15] ^ np.uint64(0xDEADBEEFCAFEBABE)).reshape(5, 3)
    b = base[15:36].reshape(7, 3).copy()
    b[0] = ~np.uint64(0)
    b[1] = 0
    # Witness search: rows 2 and 7 of `near` tie, an exact copy of row 2
    # and a one-bit flip of it meet limit 1, and the rows of `a` miss it.
    near = np.vstack([b, b[2]])
    probes = np.vstack([b[2], b[2], a])
    probes[1, 0] ^= np.uint64(1)
    # Parity: 70 mask rows (the second output word has 58 tail bits),
    # one all-zero and one all-one.
    mask = base[36:246].reshape(70, 3).copy()
    mask[0] = 0
    mask[1] = ~np.uint64(0)
    checks = [
        (backend.popcount_rows(a), reference.popcount_rows(a)),
        (backend.hamming_distance_many(a[0], b), reference.hamming_distance_many(a[0], b)),
        (backend.cross_distances(a, b), reference.cross_distances(a, b)),
        (backend.paired_distances(a, a[::-1]), reference.paired_distances(a, a[::-1])),
        (backend.parity_sketch(a, mask), reference.parity_sketch(a, mask)),
    ]
    for w in (1, 2, 3):  # the one- and two-word loops, then the general one
        x, y = probes[:, :w], near[:, :w]
        checks.append((backend.nearest_within(x, y, 1), reference.nearest_within(x, y, 1)))
    for got, want in checks:
        if not np.array_equal(np.asarray(got), np.asarray(want)):
            raise RuntimeError(
                f"kernel {backend.name!r} failed the differential self-check "
                f"against 'reference': {got!r} != {want!r}"
            )


def _discover() -> None:
    """Register the reference backend, then try the optional ``cbits`` one.

    A ``cbits`` library that builds and passes the self-check registers
    and becomes the active backend.  The optional backend fails *loudly
    but gracefully*: any exception during import/build/self-check is
    recorded in :func:`unavailable_kernels` (surfaced by ``set_kernel``
    errors and ``kernel_info``) instead of breaking import — the seam
    then stays on ``reference``.
    """
    global _ACTIVE
    from repro.hamming._reference import ReferenceBackend

    _ACTIVE = register_kernel(ReferenceBackend())

    try:
        from repro.hamming._cbits import build_backend

        backend = build_backend()
        _self_check(backend)
        _ACTIVE = register_kernel(backend)
    except Exception as exc:  # noqa: BLE001 - record, never break import
        _UNAVAILABLE["cbits"] = f"{type(exc).__name__}: {exc}"


def _apply_env() -> None:
    choice = os.environ.get(ENV_VAR, "").strip()
    if not choice:
        return
    try:
        set_kernel(choice)
    except ValueError as exc:
        warnings.warn(
            f"{ENV_VAR}={choice!r} ignored ({exc}); staying on {_ACTIVE.name!r}",
            RuntimeWarning,
            stacklevel=2,
        )


_discover()
_apply_env()
