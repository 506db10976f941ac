"""Hamming-space substrate: bit-packed points, vectorized distances, balls,
and workload sampling over the d-dimensional cube {0,1}^d.

Everything downstream (sketches, tables, algorithms, baselines) operates on
the packed ``uint64`` representation produced here; Python-level loops never
touch individual bits on hot paths.
"""

from repro.hamming.balls import (
    ball_members,
    ball_sizes_by_level,
    min_distance,
    nearest_neighbor,
    within_distance_one,
)
from repro.hamming.distance import (
    hamming_distance,
    hamming_distance_many,
    paired_distances,
    pairwise_distances,
    popcount_rows,
)
from repro.hamming.kernels import (
    KernelBackend,
    active_kernel,
    available_kernels,
    kernel_info,
    set_kernel,
    unavailable_kernels,
    use_kernel,
)
from repro.hamming.packing import (
    PackedArrayError,
    pack_bits,
    packed_words,
    random_packed,
    unpack_bits,
)
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import (
    flip_random_bits,
    point_at_distance,
    random_points,
    shell_points,
)

__all__ = [
    "KernelBackend",
    "PackedArrayError",
    "PackedPoints",
    "active_kernel",
    "available_kernels",
    "ball_members",
    "ball_sizes_by_level",
    "flip_random_bits",
    "hamming_distance",
    "hamming_distance_many",
    "kernel_info",
    "min_distance",
    "nearest_neighbor",
    "pack_bits",
    "packed_words",
    "paired_distances",
    "pairwise_distances",
    "point_at_distance",
    "popcount_rows",
    "random_packed",
    "random_points",
    "set_kernel",
    "shell_points",
    "unavailable_kernels",
    "unpack_bits",
    "use_kernel",
    "within_distance_one",
]
