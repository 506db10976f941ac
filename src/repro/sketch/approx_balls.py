"""Approximate-ball evaluation: the sets ``C_i`` and ``D_{i,j}`` of
Definition 7, as computed by the table structure.

Given a level-``i`` *address* (a sketch value ``j = M_i x``), the table can
reconstruct

    C_i(j)      = { z ∈ B : dist(j, M_i z) ≤ θ_i · accurate_rows },
    D_{i,j'}(j, w) = { z ∈ C_i(j) : dist(w, N_{j'} z) ≤ θ_{j'} · coarse_rows },

where ``θ`` is the midpoint threshold of :mod:`repro.core.delta` and ``w``
is a coarse address ``N_{j'} x``.  Lemma 8 (reproduced empirically in
experiment E4) states that with probability ≥ 3/4 simultaneously for all
levels: ``B_i ⊆ C_i ⊆ B_{i+1}``, and the coarse sets miss/admit at most an
``n^{-1/s}`` fraction of the relevant points.

Everything here is vectorized over the database; results are boolean masks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.delta import midpoint_threshold
from repro.hamming.distance import nearest_within
from repro.sketch.levels import LevelSketches

__all__ = [
    "ApproxBallEvaluator",
    "accurate_threshold_count",
    "coarse_threshold_count",
]


def accurate_threshold_count(alpha: float, i: int, rows: int) -> int:
    """Integer distance threshold for level-``i`` accurate membership."""
    return int(math.floor(midpoint_threshold(alpha, i) * rows))


def coarse_threshold_count(alpha: float, j: int, rows: int) -> int:
    """Integer distance threshold for level-``j`` coarse membership."""
    return int(math.floor(midpoint_threshold(alpha, j) * rows))


class ApproxBallEvaluator:
    """Evaluates ``C_i`` and ``D_{i,j}`` membership masks for a database.

    This object lives on the *table* side: its inputs are addresses (sketch
    values), never raw query points, so the lazy tables built on top of it
    compute exactly what eager preprocessing would store.
    """

    def __init__(self, sketches: LevelSketches):
        self.sketches = sketches
        self.alpha = sketches.family.alpha
        self._accurate_thresholds: dict[int, int] = {}
        self._coarse_thresholds: dict[int, int] = {}

    # -- thresholds -----------------------------------------------------------
    def accurate_threshold(self, i: int) -> int:
        t = self._accurate_thresholds.get(i)
        if t is None:
            t = accurate_threshold_count(self.alpha, i, self.sketches.family.accurate_rows)
            self._accurate_thresholds[i] = t
        return t

    def coarse_threshold(self, j: int) -> int:
        t = self._coarse_thresholds.get(j)
        if t is None:
            rows = self.sketches.family.coarse_rows
            if rows is None:
                raise RuntimeError("family has no coarse sketches")
            t = coarse_threshold_count(self.alpha, j, rows)
            self._coarse_thresholds[j] = t
        return t

    # -- membership masks -----------------------------------------------------
    def c_mask(self, i: int, address: tuple) -> np.ndarray:
        """Boolean mask over the database: membership in ``C_i(address)``."""
        dists = self.sketches.accurate_distances(i, address)
        return dists <= self.accurate_threshold(i)

    def c_witness(self, i: int, address: tuple) -> int | None:
        """Index of one member of ``C_i(address)``, or None when empty.

        Returns the member whose accurate-sketch distance to the address is
        smallest (the paper allows "an arbitrary one"); ties break to the
        lowest index, making cell contents deterministic.
        """
        dists = self.sketches.accurate_distances(i, address)
        thr = self.accurate_threshold(i)
        best = int(dists.argmin())
        if int(dists[best]) <= thr:
            return best
        return None

    def c_witnesses(self, i: int, addresses) -> list:
        """Batched :meth:`c_witness`: one entry per address, same tie-breaks.

        One blocked nearest-row search replaces the per-address scans and
        keeps the identical lowest-index tie-break, so entry ``q`` equals
        ``c_witness(i, addresses[q])`` exactly.
        """
        addresses = list(addresses)
        if not addresses:
            return []
        index, _ = nearest_within(
            np.asarray(addresses, dtype=np.uint64),
            self.sketches.accurate_db(i),
            self.accurate_threshold(i),
        )
        return [None if z < 0 else z for z in index.tolist()]

    def c_masks(self, i: int, addresses) -> np.ndarray:
        """Batched :meth:`c_mask`: ``(B, n)`` boolean membership matrix."""
        dists = self.sketches.accurate_cross_distances(i, list(addresses))
        return dists <= self.accurate_threshold(i)

    def coarse_masks(self, j: int, addresses) -> np.ndarray:
        """``(B, n)`` coarse-membership matrix for many coarse addresses."""
        dists = self.sketches.coarse_cross_distances(j, list(addresses))
        return dists <= self.coarse_threshold(j)

    def d_mask(self, i: int, accurate_address: tuple, j: int, coarse_address: tuple) -> np.ndarray:
        """Membership mask of ``D_{i,j}`` given both addresses."""
        base = self.c_mask(i, accurate_address)
        coarse_d = self.sketches.coarse_distances(j, coarse_address)
        return base & (coarse_d <= self.coarse_threshold(j))

    def d_count(self, i: int, accurate_address: tuple, j: int, coarse_address: tuple) -> int:
        """``|D_{i,j}|`` — the quantity the auxiliary tables threshold on."""
        return int(self.d_mask(i, accurate_address, j, coarse_address).sum())

    def c_count(self, i: int, address: tuple) -> int:
        """``|C_i(address)|``."""
        return int(self.c_mask(i, address).sum())
