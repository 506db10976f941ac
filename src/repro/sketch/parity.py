"""GF(2) parity sketches with sparse Bernoulli masks.

A :class:`ParitySketch` is a random Boolean matrix ``M`` of shape
``(rows, d)`` with i.i.d. Bernoulli(``p``) entries, applied to packed
points over GF(2): output bit ``r`` is the parity of ``popcount(mask_r AND
x)``.  Outputs are packed uint64 rows so downstream distance tests reuse
the same XOR+popcount kernels as raw points.

The map is linear over GF(2) — ``sketch(x ⊕ y) = sketch(x) ⊕ sketch(y)`` —
which property tests exploit, and which implies the collision-rate formula
``μ(p, D)`` of :mod:`repro.core.delta` governs distances of sketches.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.distance import parity_sketch, popcount_rows
from repro.hamming.packing import pack_bits, packed_words, tail_mask

__all__ = ["ParitySketch"]


class ParitySketch:
    """A sparse random parity map ``{0,1}^d → {0,1}^rows``.

    Parameters
    ----------
    rows : number of output bits
    d : input dimension
    p : per-entry mask probability (Definition 7 uses ``1/(4αⁱ)``)
    rng : generator supplying the mask bits (public randomness)

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hamming.packing import pack_bits
    >>> sk = ParitySketch(rows=8, d=16, p=0.25, rng=np.random.default_rng(0))
    >>> x = pack_bits(np.ones(16, dtype=np.uint8))
    >>> sk.apply(x).shape
    (1,)
    """

    def __init__(self, rows: int, d: int, p: float, rng: np.random.Generator):
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if not (0.0 <= p <= 0.5):
            raise ValueError(f"p must be in [0, 1/2], got {p}")
        self.rows = int(rows)
        self.d = int(d)
        self.p = float(p)
        mask_bits = (rng.random((rows, d)) < p).astype(np.uint8)
        self._mask = pack_bits(mask_bits, d)  # (rows, W) packed mask rows
        self.in_words = packed_words(d)
        self.out_words = packed_words(rows)
        self._out_tail = np.uint64(tail_mask(rows))

    @classmethod
    def from_mask(
        cls, rows: int, d: int, p: float, mask: np.ndarray
    ) -> "ParitySketch":
        """Adopt an already-packed mask without regenerating it from RNG.

        The trusted counterpart of ``__init__`` for zero-copy snapshot
        loads: the stored mask *is* the public randomness the index was
        built with, so it is installed as-is (shape- and dtype-checked
        against the parameters, content untouched).  ``mask`` may be a
        read-only memmap; it is never copied or written.
        """
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if not (0.0 <= p <= 0.5):
            raise ValueError(f"p must be in [0, 1/2], got {p}")
        mask = np.asarray(mask)
        if mask.dtype != np.uint64 or mask.shape != (int(rows), packed_words(d)):
            raise ValueError(
                f"mask payload has dtype {mask.dtype} shape {mask.shape}, "
                f"expected uint64 {(int(rows), packed_words(d))}"
            )
        obj = cls.__new__(cls)
        obj.rows = int(rows)
        obj.d = int(d)
        obj.p = float(p)
        obj._mask = mask
        obj.in_words = packed_words(d)
        obj.out_words = packed_words(rows)
        obj._out_tail = np.uint64(tail_mask(rows))
        return obj

    @property
    def mask(self) -> np.ndarray:
        """The packed mask rows (read-only use only)."""
        return self._mask

    def mask_density(self) -> float:
        """Empirical fraction of set mask entries (≈ p)."""
        return float(popcount_rows(self._mask).sum()) / (self.rows * self.d)

    # -- application ---------------------------------------------------------
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Sketch a single packed point; returns packed ``(out_words,)``."""
        return self.apply_many(np.asarray(x, dtype=np.uint64).reshape(1, -1))[0]

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """Sketch a packed batch ``(m, W)``; returns packed ``(m, OW)``.

        The parity loop is the active kernel backend's
        (:func:`repro.hamming.distance.parity_sketch`).
        """
        pts = np.asarray(points, dtype=np.uint64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.in_words:
            raise ValueError(
                f"point word count {pts.shape[1]} != expected {self.in_words}"
            )
        return parity_sketch(pts, self._mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParitySketch(rows={self.rows}, d={self.d}, p={self.p:.4g})"
