"""Bit packing for points of the Hamming cube.

A point ``x ∈ {0,1}^d`` is stored as ``W = ceil(d/64)`` little-endian
``uint64`` words; bit ``j`` of the point is bit ``j % 64`` of word
``j // 64``.  Batches of points are ``(m, W)`` arrays.  Packing this way
lets every distance computation run as XOR + ``np.bitwise_count`` over a
few machine words per point, following the vectorization guidance of the
scientific-Python performance notes (no per-bit Python loops).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PackedArrayError",
    "check_bits",
    "pack_bits",
    "packed_words",
    "random_packed",
    "unpack_bits",
    "tail_mask",
]


class PackedArrayError(ValueError):
    """Raised when a packed array fails shape/padding validation."""


def packed_words(d: int) -> int:
    """Number of 64-bit words needed for ``d`` bits."""
    if d < 1:
        raise PackedArrayError(f"dimension must be >= 1, got {d}")
    return (d + 63) // 64


def tail_mask(d: int) -> int:
    """Mask of valid bits in the final word for dimension ``d``."""
    rem = d % 64
    if rem == 0:
        return (1 << 64) - 1
    return (1 << rem) - 1


def check_bits(bits) -> np.ndarray:
    """A bit array as ``uint8``, once every value is a boolean or an
    integer equal to 0 or 1.  The check runs before any cast: a cast
    would turn ``0.9`` and ``256`` into 0, a different row."""
    arr = np.asarray(bits)
    kind = arr.dtype.kind
    if arr.size and kind != "b":
        if kind not in "iu":
            raise PackedArrayError(f"bits must be integers 0 or 1, got {arr.dtype} values")
        if arr.max() > 1 or (kind == "i" and arr.min() < 0):
            bad = arr[(arr < 0) | (arr > 1)]
            raise PackedArrayError(f"bits must be 0 or 1, got {int(bad[0])}")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray, d: int | None = None) -> np.ndarray:
    """Pack a boolean/0-1 array of shape ``(m, d)`` or ``(d,)`` into uint64.

    Returns shape ``(m, W)`` (or ``(W,)`` for a single point) with padding
    bits in the last word forced to zero.  Values go through
    :func:`check_bits`.

    Examples
    --------
    >>> import numpy as np
    >>> pack_bits(np.array([1, 0, 1], dtype=np.uint8))
    array([5], dtype=uint64)
    """
    arr = np.asarray(bits)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise PackedArrayError(f"expected 1-D or 2-D bit array, got ndim={arr.ndim}")
    m, dim = arr.shape
    if d is None:
        d = dim
    elif d != dim:
        raise PackedArrayError(
            f"bit rows need {d} bits for dimension d={d}, got shape {arr.shape}"
        )
    if dim == 0:
        raise PackedArrayError("cannot pack an empty bit array")
    arr = check_bits(arr)
    w = packed_words(d)
    if d % 64:
        padded = np.zeros((m, w * 64), dtype=np.uint8)
        padded[:, :d] = arr
        arr = padded
    # np.packbits packs MSB-first per byte; request little-bit-order so bit
    # j of the input lands at bit j%8 of byte j//8, matching our layout.
    as_bytes = np.packbits(arr, axis=1, bitorder="little")
    packed = as_bytes.view(np.uint64).reshape(m, w)
    if single:
        return packed[0].copy()
    return packed


def unpack_bits(packed: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a ``uint8`` 0/1 array."""
    arr = np.asarray(packed, dtype=np.uint64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise PackedArrayError(f"expected 1-D or 2-D packed array, got ndim={arr.ndim}")
    w = packed_words(d)
    if arr.shape[1] != w:
        raise PackedArrayError(f"packed array has {arr.shape[1]} words; d={d} needs {w}")
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :d]
    if single:
        return bits[0]
    return bits


def random_packed(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """Sample ``m`` uniform points of ``{0,1}^d`` directly in packed form."""
    w = packed_words(d)
    words = rng.integers(0, 2**64, size=(m, w), dtype=np.uint64)
    words[:, -1] &= np.uint64(tail_mask(d))
    return words


def validate_packed(packed: np.ndarray, d: int) -> np.ndarray:
    """Validate dtype/shape/padding of a packed batch; returns a 2-D view."""
    arr = np.asarray(packed)
    if arr.dtype != np.uint64:
        raise PackedArrayError(f"packed arrays must be uint64, got {arr.dtype}")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise PackedArrayError(f"expected 1-D or 2-D packed array, got ndim={arr.ndim}")
    if arr.shape[1] != packed_words(d):
        raise PackedArrayError(
            f"packed rows need {packed_words(d)} words for dimension d={d}, "
            f"got shape {arr.shape}"
        )
    # With d a multiple of 64 the last word has no padding bits to check.
    if d % 64 and arr.shape[0] and int(arr[:, -1].max(initial=0)) > tail_mask(d):
        raise PackedArrayError("padding bits beyond dimension d are set")
    return arr
