"""Lazy and dict tables: determinism, caching, the memo cap, word
validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellprobe.table import DictTable, LazyTable
from repro.cellprobe.words import EMPTY, IntWord


class TestLazyTable:
    def _make(self, calls):
        def content(addr):
            calls.append(addr)
            return IntWord(addr % 5, 5)

        return LazyTable("T", logical_cells=100, word_size_bits=8, content_fn=content)

    def test_content_memoized(self):
        calls = []
        table = self._make(calls)
        a = table.read(3)
        b = table.read(3)
        assert a == b
        assert calls == [3]

    def test_cached_cells_counts(self):
        calls = []
        table = self._make(calls)
        table.read(1)
        table.read(2)
        table.read(1)
        assert table.cached_cells() == 2

    def test_determinism_across_instances(self):
        t1 = self._make([])
        t2 = self._make([])
        assert t1.read(4) == t2.read(4)

    def test_clear_cache_recomputes_consistently(self):
        calls = []
        table = self._make(calls)
        first = table.read(2)
        table.clear_cache()
        second = table.read(2)
        assert first == second
        assert len(calls) == 2

    def test_read_miss_on_a_full_memo_clears_it(self, monkeypatch):
        monkeypatch.setattr(LazyTable, "MEMO_CELLS", 3)
        calls = []
        table = self._make(calls)
        before = [table.read(a) for a in (0, 1, 2)]
        assert table.read(1) == before[1]  # a hit never clears
        assert table.cached_cells() == 3
        table.read(3)  # a miss on a full memo drops it, then stores
        assert table.cached_cells() == 1
        assert [table.read(a) for a in (0, 1, 2)] == before
        assert calls == [0, 1, 2, 3, 0, 1, 2]

    def test_word_size_validated(self):
        table = LazyTable(
            "T", logical_cells=4, word_size_bits=2,
            content_fn=lambda a: IntWord(100, 1000),
        )
        with pytest.raises(ValueError):
            table.read(0)

    def test_word_validation_can_be_disabled(self):
        table = LazyTable(
            "T", logical_cells=4, word_size_bits=2,
            content_fn=lambda a: IntWord(100, 1000), validate_words=False,
        )
        assert table.read(0).value == 100

    def test_size_bits(self):
        table = self._make([])
        assert table.size_bits() == 100 * 8


class TestDictTable:
    def test_store_and_read(self):
        table = DictTable("D", logical_cells=10, word_size_bits=4)
        table.store("a", IntWord(1, 3))
        assert table.read("a").value == 1

    def test_default_for_missing(self):
        table = DictTable("D", 10, 4, default=EMPTY)
        assert table.read("missing") == EMPTY

    def test_stored_cells(self):
        table = DictTable("D", 10, 4)
        table.store(1, EMPTY)
        table.store(2, EMPTY)
        assert table.stored_cells() == 2


def _prefetching_table(calls):
    """A table whose scalar and batched content functions log each address."""

    def content(addr):
        calls.append(addr)
        return IntWord(addr % 7, 8)

    def batch_content(addrs):
        return [IntWord(a % 7, 8) for a in addrs]

    return LazyTable("P", 100, 8, content, batch_content_fn=batch_content)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 11)),
        st.tuples(st.just("prefetch"), st.lists(st.integers(0, 11), max_size=9)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(1, 6), ops=_OPS)
def test_memo_stays_within_the_cap_under_any_mix(cap, ops):
    """After any op the memo holds at most ``MEMO_CELLS`` cells, unless the
    latest prefetch alone had more distinct addresses: then it holds
    exactly those.  Every address a prefetch was given reads afterwards
    without a ``content_fn`` call, and every read returns the pure
    content."""
    calls = []
    table = _prefetching_table(calls)
    last_prefetch = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LazyTable, "MEMO_CELLS", cap)
        for kind, arg in ops:
            if kind == "read":
                assert table.read(arg) == IntWord(arg % 7, 8)
            else:
                table.prefetch(arg)
                last_prefetch = set(arg)
                held = len(calls)
                assert [table.read(a) for a in arg] == [IntWord(a % 7, 8) for a in arg]
                assert len(calls) == held
            cells = table.cached_cells()
            if cells > cap:
                assert len(last_prefetch) == cells
                held = len(calls)
                for address in last_prefetch:
                    table.read(address)
                assert len(calls) == held
