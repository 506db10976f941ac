"""One-probe membership structures for the degenerate cases (Section 3.1).

The paper handles queries with ``B₀ ≠ ∅`` (query is a database point) or
``B₁ ≠ ∅`` (query within distance 1 of the database) by perfect hashing —
one probe into a quadratic-size table storing the set ``B`` respectively
its 1-neighborhood ``N₁(B)`` (at most ``(d+1)n`` points), with the hash
function as public randomness.

We simulate both as 1-probe :class:`~repro.cellprobe.table.LazyTable`
structures: the probed cell's content is the member of the stored set that
perfect-hashes to the probed address — which, because the scheme only ever
probes address ``h(x)``, is exactly "the stored point equal to / within
distance 1 of ``x``, if any".  The lazy content function computes that by a
vectorized distance scan, i.e. precisely what FKS preprocessing would have
placed in the cell.  Probe and word accounting match the paper:

* 1 probe each, issued in parallel with the first round of the main scheme;
* word size ``O(d)`` (the stored point);
* logical table size ``O(n²)`` for exact membership, ``O(((d+1)n)²)`` for
  the 1-neighborhood (quadratic-size perfect hashing).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cellprobe.table import LazyTable
from repro.cellprobe.words import EMPTY, PointWord
from repro.hamming.distance import paired_distances
from repro.hamming.points import PackedPoints

__all__ = ["MembershipStructure"]


class MembershipStructure:
    """A 1-probe structure answering "is ``x`` within distance ``radius`` of
    the database, and if so return such a database point".

    Parameters
    ----------
    database : the packed database ``B``
    radius : 0 for exact membership (the ``B₀`` structure) or 1 for the
        1-neighborhood structure (``B₁``)
    name : table name used in probe traces
    """

    def __init__(self, database: PackedPoints, radius: int, name: str):
        if radius not in (0, 1):
            raise ValueError(f"membership radius must be 0 or 1, got {radius}")
        self.database = database
        self.radius = int(radius)
        # (stable argsort of the first words, the sorted first words);
        # built on first batch use — the database is never mutated.
        self._first_words: Optional[tuple[np.ndarray, np.ndarray]] = None
        # XOR masks taking a first word to every word within ``radius``
        # of it: 0, and at radius 1 the 64 one-bit flips.
        self._masks = np.zeros(1 + 64 * self.radius, dtype=np.uint64)
        self._masks[1:] = np.left_shift(
            np.uint64(1), np.arange(64 * self.radius, dtype=np.uint64)
        )
        n = max(1, len(database))
        d = database.d
        stored_points = n if radius == 0 else (d + 1) * n
        self.table = LazyTable(
            name=name,
            logical_cells=stored_points * stored_points,  # quadratic perfect hashing
            word_size_bits=1 + d,
            content_fn=self._content,
            batch_content_fn=self._batch_contents,
        )

    def address_for(self, x: np.ndarray) -> tuple:
        """The (simulated) perfect-hash address of query ``x``.

        The simulator uses the point itself as the address key; the model's
        hash value would be a ``O(log n)``-bit address, and collisions are
        resolved by the perfect-hash construction, so identifying the
        address with the point is behaviorally exact for probing purposes.
        """
        return tuple(np.asarray(x, dtype=np.uint64).ravel().tolist())

    def _content(self, address: tuple) -> object:
        x = np.asarray(address, dtype=np.uint64)
        if len(self.database) == 0:
            return EMPTY
        dists = self.database.distances_from(x)
        hits = np.nonzero(dists <= self.radius)[0]
        if hits.size == 0:
            return EMPTY
        # Prefer an exact match so the degenerate answer is the true NN.
        exact = hits[dists[hits] == 0]
        idx = int(exact[0]) if exact.size else int(hits[0])
        return PointWord.from_packed(idx, self.database.row(idx), self.database.d)

    def _batch_contents(self, addresses: list) -> list:
        """Vectorized form of :meth:`_content` for many probed addresses.

        A query within distance ``radius ≤ 1`` of a stored point must be
        within ``radius`` on the first packed word alone.  The database's
        first words are sorted once, and a binary search for each query's
        first word — plus, at radius 1, for each of its 64 one-bit flips —
        finds exactly the rows that pass that screen.  The full ``W``-word
        distance is computed only for these candidate pairs, which go
        through the same hit selection as ``_content`` (prefer exact,
        lowest index), so contents are identical.
        """
        if len(self.database) == 0:
            return [EMPTY] * len(addresses)
        points = np.asarray([tuple(a) for a in addresses], dtype=np.uint64)
        words = self.database.words
        radius = self.radius
        if self._first_words is None:
            order = np.argsort(words[:, 0], kind="stable")
            self._first_words = (order, words[order, 0])
        order, keys = self._first_words
        probes = (points[:, :1] ^ self._masks).ravel()
        hi = np.searchsorted(keys, probes, side="right")
        counts = hi - np.searchsorted(keys, probes, side="left")
        # One (query, index) pair per key match: probe r matches the sorted
        # positions hi[r] - counts[r] .. hi[r] - 1.  The stable sort orders
        # each run by index; lexsort merges a query's 65 runs at radius 1.
        cand_q = np.repeat(np.arange(probes.size) // self._masks.size, counts)
        cand_z = order[np.repeat(hi - np.cumsum(counts), counts) + np.arange(cand_q.size)]
        by = np.lexsort((cand_z, cand_q))
        cand_q, cand_z = cand_q[by], cand_z[by]
        best: dict[int, tuple[bool, int]] = {}  # query row -> (found exact, index)
        if cand_q.size:
            cand_dists = paired_distances(points[cand_q], words[cand_z])
            # The first hit per query is the lowest index and the first
            # exact hit is the lowest-index exact — matching _content.
            for q, z, dist in zip(cand_q.tolist(), cand_z.tolist(), cand_dists.tolist()):
                if dist > radius:
                    continue
                current = best.get(q)
                if current is None:
                    best[q] = (dist == 0, z)
                elif dist == 0 and not current[0]:
                    best[q] = (True, z)
        out = []
        for q in range(points.shape[0]):
            hit = best.get(q)
            if hit is None:
                out.append(EMPTY)
            else:
                idx = hit[1]
                out.append(
                    PointWord.from_packed(idx, self.database.row(idx), self.database.d)
                )
        return out

    def lookup_ground_truth(self, x: np.ndarray) -> Optional[int]:
        """Unaccounted ground-truth check (tests only)."""
        content = self._content(self.address_for(x))
        return content.index if isinstance(content, PointWord) else None
