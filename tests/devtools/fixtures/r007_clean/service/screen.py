"""Call sites that go through the seam: nothing to flag."""

from repro.hamming.distance import (
    cross_distances,
    hamming_distance_many,
    paired_distances,
    popcount_rows,
)


def screen(queries, rows):
    return cross_distances(queries, rows)


def sweep(query, rows):
    return hamming_distance_many(query, rows)


def gathered(a, b, idx_a, idx_b):
    return paired_distances(a[idx_a], b[idx_b])


def density(mask):
    # Popcount of plain (un-XORed) words through the seam helper is legal.
    return popcount_rows(mask).sum()


def parity(anded):
    return popcount_rows(anded) & 1
