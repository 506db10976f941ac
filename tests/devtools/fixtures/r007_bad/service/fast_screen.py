"""Planted R007 violations: popcount/XOR distances outside repro/hamming/."""

import numpy as np
from numpy import bitwise_count

from repro.hamming.distance import popcount_rows


def screen(queries, rows):
    # A raw distance pipeline bypassing the seam entirely.
    return np.bitwise_count(queries[:, None, :] ^ rows[None, :, :]).sum(axis=2)  # LINT-EXPECT: R007


def weights(rows):
    # Bare name imported from numpy is the same bypass.
    return bitwise_count(rows)  # LINT-EXPECT: R007


def paired(a, b):
    # XOR assembled at the call site, fed to a seam popcount helper:
    # compiled backends can't fuse this — paired_distances exists for it.
    return popcount_rows(a ^ b)  # LINT-EXPECT: R007


def paired_ufunc(a, b):
    return popcount_rows(np.bitwise_xor(a, b))  # LINT-EXPECT: R007
