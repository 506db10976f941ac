"""Tables of the cell-probe model.

A :class:`Table` exposes read-only cells addressed by hashable addresses.
:class:`LazyTable` materializes cells on first read from a deterministic
content function — the exact content eager preprocessing would have stored
— and memoizes up to :attr:`LazyTable.MEMO_CELLS` of them per table, so
repeated probes of a recent address are cheap.  The memo is outside the
cost model: a cell's content is a pure function of its address (property
tests verify determinism across fresh instances), so a memo that drops
cells changes only how often a cell is recomputed, never what it holds.

Tables carry *logical* size metadata (cell count, word size) taken from the
scheme's closed-form accounting; the simulator never allocates ``n^{O(1)}``
cells.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from repro.cellprobe.words import word_bits

__all__ = ["LazyTable", "Table"]


class Table:
    """Abstract read-only table.

    Parameters
    ----------
    name : identifier used in probe traces
    logical_cells : number of cells the table has in the model (may be an
        astronomically large int; only used for size accounting)
    word_size_bits : the model's word size ``w`` for this table
    """

    def __init__(self, name: str, logical_cells: int, word_size_bits: int):
        self.name = str(name)
        self.logical_cells = int(logical_cells)
        self.word_size_bits = int(word_size_bits)

    def read(self, address: Hashable) -> object:
        """Return the content of ``address`` (no probe accounting here —
        reads must go through a :class:`~repro.cellprobe.session.ProbeSession`)."""
        raise NotImplementedError

    def size_bits(self) -> int:
        """Logical table size in bits (cells × word size)."""
        return self.logical_cells * self.word_size_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, cells={self.logical_cells}, "
            f"w={self.word_size_bits})"
        )


class LazyTable(Table):
    """A table whose cells are computed on demand by ``content_fn``.

    ``content_fn(address)`` must be a pure function of the address (given
    the database and randomness captured in its closure): the memo cache
    makes repeated reads cheap, and the purity requirement makes the lazy
    simulation indistinguishable from an eager build.

    The memo holds at most :attr:`MEMO_CELLS` cells, so a stream of fresh
    queries cannot grow it without bound.  On overflow it is dropped
    whole, never in part: a :meth:`read` that misses on a full memo clears
    it before storing the new cell, and a :meth:`prefetch` whose missing
    addresses would take it past the cap clears it and then computes
    *every* distinct address it was given (see there).

    The optional ``batch_content_fn(addresses)`` computes the contents of
    many addresses in one vectorized pass; it must agree elementwise with
    ``content_fn`` (tests assert this per structure).  The batched query
    engine uses it through :meth:`prefetch` to warm the memo cache for a
    whole round of probes across a query batch — after which every read
    returns exactly what the sequential path would have computed.

    The optional ``validate_words`` flag asserts each produced word fits
    the declared word size — tests enable it to check the ``O(d)`` word
    bound of every scheme.
    """

    #: Per-table memo cap, in cells.  A working set above it would thrash
    #: under any policy; at d=1024 a full level-table memo is about 1.5 MiB.
    MEMO_CELLS = 2048

    def __init__(
        self,
        name: str,
        logical_cells: int,
        word_size_bits: int,
        content_fn: Callable[[Hashable], object],
        validate_words: bool = True,
        batch_content_fn: Optional[Callable[[list], list]] = None,
    ):
        super().__init__(name, logical_cells, word_size_bits)
        self._content_fn = content_fn
        self._batch_content_fn = batch_content_fn
        self._cache: Dict[Hashable, object] = {}
        self._validate_words = bool(validate_words)
        self.materialized_reads = 0  # content-function invocations (stats)
        self.prefetched_cells = 0  # cells filled through prefetch (stats)

    def _check_word(self, content: object) -> object:
        if self._validate_words:
            bits = word_bits(content)
            if bits > self.word_size_bits:
                raise ValueError(
                    f"table {self.name!r}: word of {bits} bits exceeds "
                    f"declared word size {self.word_size_bits}"
                )
        return content

    def read(self, address: Hashable) -> object:
        try:
            return self._cache[address]
        except KeyError:
            pass
        content = self._check_word(self._content_fn(address))
        if len(self._cache) >= self.MEMO_CELLS:
            self._cache.clear()
        self._cache[address] = content
        self.materialized_reads += 1
        return content

    @property
    def supports_prefetch(self) -> bool:
        """Whether this table has a vectorized batch content function."""
        return self._batch_content_fn is not None

    def prefetch(self, addresses) -> int:
        """Materialize many cells in one batched pass; returns #cells filled.

        Already-cached (and within-call duplicate) addresses are skipped,
        so prefetching changes only *when* cells are computed, never what
        they contain.

        If the missing cells would take the memo past :attr:`MEMO_CELLS`,
        the memo is cleared and every distinct address of the call is
        computed, the cached ones included.  Skipping those after the
        clear would drop them, and the engine's reads that follow would
        recompute them one at a time through ``content_fn``.  A call with
        more distinct addresses than the cap leaves exactly those memoized.
        """
        if self._batch_content_fn is None:
            return 0
        cache = self._cache
        missing = []
        seen = set()
        for address in addresses:
            if address in cache or address in seen:
                continue
            seen.add(address)
            missing.append(address)
        if len(cache) + len(missing) > self.MEMO_CELLS:
            cache.clear()
            missing = list(dict.fromkeys(addresses))
        if not missing:
            return 0
        contents = self._batch_content_fn(missing)
        if len(contents) != len(missing):
            raise ValueError(
                f"table {self.name!r}: batch content fn returned {len(contents)} "
                f"words for {len(missing)} addresses"
            )
        for address, content in zip(missing, contents):
            cache[address] = self._check_word(content)
            self.materialized_reads += 1
            self.prefetched_cells += 1
        return len(missing)

    def cached_cells(self) -> int:
        """Number of cells in the memo now (simulator statistic)."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every memoized cell; the next read of each recomputes it.

        The same drop that :meth:`read` and :meth:`prefetch` make on
        overflow; tests also call it to re-check determinism."""
        self._cache.clear()


class DictTable(Table):
    """A fully materialized table backed by a dict; absent addresses map to
    ``default``.  Used by small structures (perfect-hash membership tables
    in tests) and by the LSH baseline's bucket directory."""

    def __init__(
        self,
        name: str,
        logical_cells: int,
        word_size_bits: int,
        cells: Optional[Dict[Hashable, object]] = None,
        default: object = None,
    ):
        super().__init__(name, logical_cells, word_size_bits)
        self._cells: Dict[Hashable, object] = dict(cells or {})
        self._default = default

    def read(self, address: Hashable) -> object:
        return self._cells.get(address, self._default)

    def store(self, address: Hashable, content: object) -> None:
        """Preprocessing-time write (never charged as a probe)."""
        self._cells[address] = content

    def stored_cells(self) -> int:
        return len(self._cells)
