"""The ``cbits`` kernel backend: fused C popcount/XOR loops via ctypes.

No new Python dependency: a ~120-line C source embedded below is compiled
once per (source, compiler path+version, flags) digest with the *system*
C compiler into a shared library cached under ``$REPRO_CBITS_CACHE``, else
``$XDG_CACHE_HOME/repro/cbits``, else ``~/.cache/repro/cbits`` (mode 0700 and
ownership-checked before any cached artifact is trusted), then loaded
with ``ctypes``.  ``__builtin_popcountll`` compiles to the hardware
``popcnt`` instruction only when the target enables it: without
``-mpopcnt`` x86-64 GCC emits a call to libgcc's ``__popcountdi2`` per
word.  The flag is therefore added when the host CPU reports ``popcnt``
(the ``flags`` line of ``/proc/cpuinfo``); other hosts build with the
base flags.  Fusing XOR+popcount+accumulate into one loop removes the
intermediate XOR/count arrays the NumPy reference has to materialize
per chunk.

OpenMP is used when the compiler supports it (``-fopenmp`` is tried
first, then dropped): every parallel loop writes disjoint ``out[i]``
slots with integer-only arithmetic, so results are deterministic and
bitwise-identical regardless of thread count.  The witness search and
the parity sketch stay serial: they run once per sweep on batch-sized
inputs, and on a 2-vCPU VM an OpenMP variant of them did no better on
the benchmark's ``batch_cold`` workload, which counts process CPU time.

Availability is decided at import by :mod:`repro.hamming.kernels`'
discovery: ``build_backend()`` raising (no compiler, sandboxed tmp,
``REPRO_NO_CBITS=1``) just records the reason and leaves the seam on
``reference``.  A successfully built library must still pass the
differential self-check before it registers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
from pathlib import Path

import numpy as np

from repro.hamming.kernels import KernelBackend

__all__ = ["CBitsBackend", "build_backend"]

_SOURCE = r"""
#include <stdint.h>

#define PAR_THRESHOLD 262144  /* words; below this, threading overhead loses */

void repro_popcount_rows(const uint64_t *rows, int64_t m, int64_t w,
                         int64_t *out) {
#pragma omp parallel for schedule(static) if (m * w > PAR_THRESHOLD)
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *row = rows + i * w;
        int64_t acc = 0;
        for (int64_t j = 0; j < w; j++)
            acc += __builtin_popcountll(row[j]);
        out[i] = acc;
    }
}

int64_t repro_hamming_distance(const uint64_t *x, const uint64_t *y,
                               int64_t w) {
    int64_t acc = 0;
    for (int64_t j = 0; j < w; j++)
        acc += __builtin_popcountll(x[j] ^ y[j]);
    return acc;
}

void repro_one_to_many(const uint64_t *x, const uint64_t *rows, int64_t m,
                       int64_t w, int64_t *out) {
#pragma omp parallel for schedule(static) if (m * w > PAR_THRESHOLD)
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *row = rows + i * w;
        int64_t acc = 0;
        for (int64_t j = 0; j < w; j++)
            acc += __builtin_popcountll(x[j] ^ row[j]);
        out[i] = acc;
    }
}

void repro_cross(const uint64_t *a, int64_t ma, const uint64_t *b, int64_t mb,
                 int64_t w, int64_t *out) {
#pragma omp parallel for schedule(static) if (ma * mb * w > PAR_THRESHOLD)
    for (int64_t i = 0; i < ma; i++) {
        const uint64_t *ra = a + i * w;
        int64_t *row_out = out + i * mb;
        for (int64_t k = 0; k < mb; k++) {
            const uint64_t *rb = b + k * w;
            int64_t acc = 0;
            for (int64_t j = 0; j < w; j++)
                acc += __builtin_popcountll(ra[j] ^ rb[j]);
            row_out[k] = acc;
        }
    }
}

void repro_paired(const uint64_t *a, const uint64_t *b, int64_t m, int64_t w,
                  int64_t *out) {
#pragma omp parallel for schedule(static) if (m * w > PAR_THRESHOLD)
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *ra = a + i * w;
        const uint64_t *rb = b + i * w;
        int64_t acc = 0;
        for (int64_t j = 0; j < w; j++)
            acc += __builtin_popcountll(ra[j] ^ rb[j]);
        out[i] = acc;
    }
}

/* The level-table witness search: per row of a, the first row of b at
   minimum distance (strict <), or -1/-1 beyond limit.  One and two words
   (the 104-bit accurate sketch) keep the query in registers. */
void repro_nearest_within(const uint64_t *a, int64_t ma, const uint64_t *b,
                          int64_t mb, int64_t w, int64_t limit,
                          int64_t *index, int64_t *dist) {
    for (int64_t i = 0; i < ma; i++) {
        const uint64_t *ra = a + i * w;
        int64_t best = INT64_MAX, at = 0;
        if (w == 1) {
            const uint64_t x0 = ra[0];
            for (int64_t k = 0; k < mb; k++) {
                int64_t d = __builtin_popcountll(x0 ^ b[k]);
                if (d < best) { best = d; at = k; }
            }
        } else if (w == 2) {
            const uint64_t x0 = ra[0], x1 = ra[1];
            for (int64_t k = 0; k < mb; k++) {
                int64_t d = __builtin_popcountll(x0 ^ b[2 * k])
                          + __builtin_popcountll(x1 ^ b[2 * k + 1]);
                if (d < best) { best = d; at = k; }
            }
        } else {
            for (int64_t k = 0; k < mb; k++) {
                const uint64_t *rb = b + k * w;
                int64_t d = 0;
                for (int64_t j = 0; j < w; j++)
                    d += __builtin_popcountll(ra[j] ^ rb[j]);
                if (d < best) { best = d; at = k; }
            }
        }
        index[i] = best > limit ? -1 : at;
        dist[i] = best > limit ? -1 : best;
    }
}

/* GF(2) sketch: bit r of out row q is parity(popcount(points[q] & mask[r])),
   packed little-endian with zero tail bits. */
void repro_parity_sketch(const uint64_t *points, int64_t m, int64_t w,
                         const uint64_t *mask, int64_t rows, uint64_t *out) {
    const int64_t ow = (rows + 63) / 64;
    for (int64_t q = 0; q < m; q++) {
        const uint64_t *p = points + q * w;
        uint64_t *o = out + q * ow;
        for (int64_t k = 0; k < ow; k++)
            o[k] = 0;
        for (int64_t r = 0; r < rows; r++) {
            const uint64_t *mr = mask + r * w;
            uint64_t fold = 0;
            for (int64_t j = 0; j < w; j++)
                fold ^= p[j] & mr[j];
            o[r >> 6] |= (uint64_t)(__builtin_popcountll(fold) & 1) << (r & 63);
        }
    }
}
"""

_BASE_FLAGS = ["-O3", "-std=c11", "-shared", "-fPIC"]


def _base_flags() -> list:
    """``_BASE_FLAGS``, plus ``-mpopcnt`` when the CPU has the instruction."""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split() for line in info if line.startswith("flags")), [])
    except OSError:
        cpu = []
    return _BASE_FLAGS + (["-mpopcnt"] if "popcnt" in cpu else [])


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CBITS_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "cbits"


def _assert_private(path: Path, kind: str) -> None:
    """Refuse cache artifacts another local user could have planted.

    A shared library found in the cache is loaded into this process, so
    before trusting one (or the directory it lives in) require that it is
    owned by the current uid and not group/world-writable.
    """
    st = os.stat(path)
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        raise RuntimeError(
            f"cbits cache {kind} {path} is owned by uid {st.st_uid}, "
            f"not the current user (uid {os.getuid()}); refusing to use it"
        )
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise RuntimeError(
            f"cbits cache {kind} {path} is group/world-writable "
            f"(mode {stat.S_IMODE(st.st_mode):04o}); refusing to use it"
        )


def _compilers() -> list:
    ordered = []
    env_cc = os.environ.get("CC")
    for cc in ([env_cc] if env_cc else []) + ["cc", "gcc", "clang"]:
        if cc not in ordered:
            ordered.append(cc)
    return ordered


def _cc_fingerprint(cc: str) -> str:
    """Resolved path + version line, or '' when the compiler is missing."""
    path = shutil.which(cc)
    if path is None:
        return ""
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = proc.stdout.splitlines()[0].strip() if proc.stdout else ""
    except (OSError, subprocess.TimeoutExpired):
        version = ""
    return f"{path} {version}".strip()


def _compile() -> Path:
    """Build (or reuse) the cached shared library; returns its path.

    The cache key digests (source, base flags, extra flags, resolved
    compiler path + version), so a toolchain change — new CC, upgraded
    compiler, OpenMP appearing/disappearing — rebuilds instead of
    reusing a stale binary.
    """
    if os.environ.get("REPRO_NO_CBITS"):
        raise RuntimeError("disabled by REPRO_NO_CBITS")
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True, mode=0o700)
    _assert_private(cache, "directory")
    base_flags = _base_flags()
    errors = []
    for cc in _compilers():
        fingerprint = _cc_fingerprint(cc)
        if not fingerprint:
            errors.append(f"{cc}: not found on PATH")
            continue
        for extra in (["-fopenmp"], []):
            digest = hashlib.sha256(
                "\n".join([_SOURCE, repr(base_flags), repr(extra), fingerprint]).encode()
            ).hexdigest()[:16]
            target = cache / f"cbits-{digest}.so"
            if target.exists():
                _assert_private(target, "library")
                return target
            source = cache / f"cbits-{digest}.c"
            source.write_text(_SOURCE)
            scratch = cache / f"cbits-{digest}.{os.getpid()}.tmp.so"
            cmd = [cc, *base_flags, *extra, "-o", str(scratch), str(source)]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                errors.append(f"{cc}: {exc}")
                continue
            if proc.returncode == 0 and scratch.exists():
                os.chmod(scratch, 0o700)
                os.replace(scratch, target)  # atomic vs concurrent builders
                return target
            errors.append(f"{' '.join(cmd)}: {proc.stderr.strip()[:200]}")
    raise RuntimeError("no working C compiler: " + "; ".join(errors[:3]))


class CBitsBackend(KernelBackend):
    name = "cbits"

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.description = f"compiled C popcount/XOR fusion ({path.name})"
        self._lib = lib
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        i64 = ctypes.c_int64
        lib.repro_popcount_rows.argtypes = [u64p, i64, i64, i64p]
        lib.repro_popcount_rows.restype = None
        lib.repro_hamming_distance.argtypes = [u64p, u64p, i64]
        lib.repro_hamming_distance.restype = i64
        lib.repro_one_to_many.argtypes = [u64p, u64p, i64, i64, i64p]
        lib.repro_one_to_many.restype = None
        lib.repro_cross.argtypes = [u64p, i64, u64p, i64, i64, i64p]
        lib.repro_cross.restype = None
        lib.repro_paired.argtypes = [u64p, u64p, i64, i64, i64p]
        lib.repro_paired.restype = None
        lib.repro_nearest_within.argtypes = [u64p, i64, u64p, i64, i64, i64, i64p, i64p]
        lib.repro_nearest_within.restype = None
        lib.repro_parity_sketch.argtypes = [u64p, i64, i64, u64p, i64, u64p]
        lib.repro_parity_sketch.restype = None

    @staticmethod
    def _u64(arr: np.ndarray):
        flat = np.ascontiguousarray(arr)
        return flat.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)), flat

    @staticmethod
    def _out(shape) -> tuple:
        out = np.empty(shape, dtype=np.int64)
        return out, out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        m, w = rows.shape
        ptr, keep = self._u64(rows)
        out, optr = self._out(m)
        self._lib.repro_popcount_rows(ptr, m, w, optr)
        return out

    def hamming_distance(self, x: np.ndarray, y: np.ndarray) -> int:
        xp, keep_x = self._u64(x)
        yp, keep_y = self._u64(y)
        return int(self._lib.repro_hamming_distance(xp, yp, x.shape[0]))

    def hamming_distance_many(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        m, w = rows.shape
        xp, keep_x = self._u64(x)
        rp, keep_r = self._u64(rows)
        out, optr = self._out(m)
        self._lib.repro_one_to_many(xp, rp, m, w, optr)
        return out

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ma, w = a.shape
        mb = b.shape[0]
        ap, keep_a = self._u64(a)
        bp, keep_b = self._u64(b)
        out, optr = self._out((ma, mb))
        self._lib.repro_cross(ap, ma, bp, mb, w, optr)
        return out

    def paired_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m, w = a.shape
        ap, keep_a = self._u64(a)
        bp, keep_b = self._u64(b)
        out, optr = self._out(m)
        self._lib.repro_paired(ap, bp, m, w, optr)
        return out

    def nearest_within(self, a: np.ndarray, b: np.ndarray, limit: int) -> tuple:
        ma, w = a.shape
        ap, keep_a = self._u64(a)
        bp, keep_b = self._u64(b)
        index, iptr = self._out(ma)
        dist, dptr = self._out(ma)
        self._lib.repro_nearest_within(ap, ma, bp, b.shape[0], w, limit, iptr, dptr)
        return index, dist

    def parity_sketch(self, points: np.ndarray, mask: np.ndarray) -> np.ndarray:
        m, w = points.shape
        rows = mask.shape[0]
        pp, keep_p = self._u64(points)
        mp, keep_m = self._u64(mask)
        out = np.empty((m, (rows + 63) // 64), dtype=np.uint64)
        self._lib.repro_parity_sketch(pp, m, w, mp, rows, self._u64(out)[0])
        return out


def build_backend() -> CBitsBackend:
    """Compile/load the library; raises with the reason when impossible."""
    path = _compile()
    return CBitsBackend(ctypes.CDLL(str(path)), path)
