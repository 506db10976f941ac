"""The :class:`PackedPoints` container: an immutable batch of packed points.

This is the database type consumed by every scheme.  It pins together the
packed word matrix and the logical dimension ``d`` so downstream code never
has to thread ``d`` separately (and cannot mix dimensions by accident).

:func:`coerce_rows` is the one shaper of query and insert rows, for every
entry point from the index facades to the router.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.hamming.distance import hamming_distance_many
from repro.hamming.packing import (
    PackedArrayError,
    pack_bits,
    packed_words,
    unpack_bits,
    validate_packed,
)

__all__ = ["PackedPoints", "coerce_rows"]


class PackedPoints:
    """An immutable ``(n, W)`` batch of packed points of ``{0,1}^d``.

    Parameters
    ----------
    words : uint64 array of shape ``(n, W)`` with ``W = ceil(d/64)``
    d : logical dimension

    Examples
    --------
    >>> import numpy as np
    >>> pts = PackedPoints.from_bits(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    >>> len(pts), pts.d
    (2, 3)
    >>> pts.distances_from(pts.row(0)).tolist()
    [0, 2]
    """

    __slots__ = ("_words", "_d")

    def __init__(self, words: np.ndarray, d: int):
        arr = validate_packed(words, d)
        arr = np.ascontiguousarray(arr, dtype=np.uint64)
        arr.setflags(write=False)
        self._words = arr
        self._d = int(d)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "PackedPoints":
        """Build from an ``(n, d)`` 0/1 array."""
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"expected (n, d) bit array, got shape {bits.shape}")
        return cls(pack_bits(bits), bits.shape[1])

    @classmethod
    def from_packed_rows(cls, rows: Iterable[np.ndarray], d: int) -> "PackedPoints":
        """Build from an iterable of packed ``(W,)`` rows."""
        stacked = np.vstack([np.asarray(r, dtype=np.uint64).ravel() for r in rows])
        return cls(stacked, d)

    @classmethod
    def from_validated(cls, words: np.ndarray, d: int) -> "PackedPoints":
        """Wrap an already-validated word matrix without the padding scan.

        The normal constructor scans every row's last word for stray
        padding bits — an O(n) pass that would page the entire file into
        memory when ``words`` is a memory-mapped snapshot payload.  This
        constructor performs only the cheap dtype/shape checks and keeps
        the given array (no copy), so a memmap stays a memmap.  Callers
        must guarantee the padding invariant themselves; the persistence
        codec does, because every saved snapshot was packed through the
        validating path.
        """
        if not isinstance(words, np.ndarray) or words.dtype != np.uint64:
            raise ValueError(
                f"from_validated needs a uint64 ndarray, got "
                f"{getattr(words, 'dtype', type(words).__name__)}"
            )
        if words.ndim != 2 or words.shape[1] != packed_words(d):
            raise ValueError(
                f"from_validated needs shape (n, {packed_words(d)}) for d={d}, "
                f"got {words.shape}"
            )
        if not words.flags.c_contiguous:
            raise ValueError("from_validated needs a C-contiguous word matrix")
        obj = cls.__new__(cls)
        if words.flags.writeable:
            words.setflags(write=False)
        obj._words = words
        obj._d = int(d)
        return obj

    # -- basic protocol ----------------------------------------------------
    @property
    def d(self) -> int:
        """Logical dimension of the Hamming cube."""
        return self._d

    @property
    def words(self) -> np.ndarray:
        """The read-only ``(n, W)`` uint64 word matrix."""
        return self._words

    @property
    def word_count(self) -> int:
        """Words per point, ``ceil(d/64)``."""
        return packed_words(self._d)

    def __len__(self) -> int:
        return self._words.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self._words[i]

    def row(self, i: int) -> np.ndarray:
        """The ``i``-th point as a packed ``(W,)`` row (read-only view)."""
        return self._words[int(i)]

    def take(self, indices) -> "PackedPoints":
        """A new batch containing rows ``indices`` (in order)."""
        return PackedPoints(self._words[np.asarray(indices, dtype=np.int64)], self._d)

    def to_bits(self) -> np.ndarray:
        """Unpack to an ``(n, d)`` uint8 0/1 array (for tests/inspection)."""
        return unpack_bits(self._words, self._d)

    # -- geometry ----------------------------------------------------------
    def distances_from(self, x: np.ndarray) -> np.ndarray:
        """Hamming distance from packed point ``x`` to every row."""
        return hamming_distance_many(x, self._words)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedPoints(n={len(self)}, d={self._d})"


def coerce_rows(points, d: int) -> np.ndarray:
    """Packed ``(m, W)`` uint64 rows of dimension ``d`` from any accepted form.

    :class:`PackedPoints`; packed rows, a ``uint64`` ndarray of shape
    ``(m, W)`` or ``(W,)`` with no padding bits set; or bit rows of shape
    ``(m, d)`` or ``(d,)``, checked by :func:`~repro.hamming.packing.check_bits`.
    A list is always bits, so a JSON row of large integers never passes as
    packed words.  No rows give ``(0, W)``.  Raises ``PackedArrayError``.
    """
    if isinstance(points, PackedPoints):
        if points.d != d:
            raise PackedArrayError(f"points have d={points.d}, index has d={d}")
        return points.words
    packed = isinstance(points, np.ndarray) and points.dtype == np.uint64
    arr = np.asarray(points)
    if arr.shape[:1] == (0,):
        return np.empty((0, packed_words(d)), dtype=np.uint64)
    if packed:
        return validate_packed(arr, d)
    return pack_bits(arr[None, :] if arr.ndim == 1 else arr, d)
