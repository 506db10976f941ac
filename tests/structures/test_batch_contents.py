"""Batched content functions must agree elementwise with the scalar
``content_fn`` — this is the property that makes engine prefetching
invisible to results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellprobe.table import LazyTable
from repro.cellprobe.words import EmptyWord, IntWord, PointWord
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.sketch.approx_balls import ApproxBallEvaluator
from repro.sketch.family import SketchFamily
from repro.sketch.levels import LevelSketches
from repro.structures.aux_table import AuxCountTable, group_levels
from repro.structures.main_table import MainLevelTable
from repro.structures.perfect_hash import MembershipStructure
from repro.utils.rng import RngTree


@pytest.fixture(scope="module")
def setup():
    gen = np.random.default_rng(17)
    n, d = 90, 192
    db = PackedPoints(random_points(gen, n, d), d)
    family = SketchFamily(
        d=d, alpha=2.0, levels=7, accurate_rows=48, coarse_rows=12,
        rng_tree=RngTree(3),
    )
    evaluator = ApproxBallEvaluator(LevelSketches(db, family))
    return gen, db, family, evaluator


def words_equal(a, b):
    if isinstance(a, EmptyWord):
        return isinstance(b, EmptyWord)
    if isinstance(a, PointWord):
        return isinstance(b, PointWord) and a.index == b.index and a.packed == b.packed
    if isinstance(a, IntWord):
        return isinstance(b, IntWord) and a.value == b.value
    return a == b


def test_main_table_batch_matches_scalar(setup):
    gen, db, family, evaluator = setup
    for level in (0, 3, 7):
        table = MainLevelTable(evaluator, level)
        points = random_points(gen, 30, db.d)
        addresses = [family.accurate_address(level, p) for p in points]
        batch = table._batch_contents(addresses)
        scalar = [table._content(a) for a in addresses]
        assert all(words_equal(b, s) for b, s in zip(batch, scalar))


@pytest.mark.parametrize("radius", [0, 1])
def test_membership_batch_matches_scalar(setup, radius):
    gen, db, _, _ = setup
    structure = MembershipStructure(db, radius=radius, name=f"B{radius}")
    # Mix of exact members, 1-flip neighbors, 2-flip points, and uniform.
    probes = [db.row(i) for i in range(6)]
    probes += [flip_random_bits(gen, db.row(i), 1, db.d) for i in range(6)]
    probes += [flip_random_bits(gen, db.row(i), 2, db.d) for i in range(6)]
    probes += list(random_points(gen, 6, db.d))
    addresses = [structure.address_for(p) for p in probes]
    batch = structure._batch_contents(addresses)
    scalar = [structure._content(a) for a in addresses]
    assert all(words_equal(b, s) for b, s in zip(batch, scalar))
    # Sanity: exact members must hit and return themselves.
    assert all(isinstance(w, PointWord) for w in batch[:6])


def test_membership_batch_empty_database():
    empty = PackedPoints(np.zeros((0, 2), dtype=np.uint64), 128)
    structure = MembershipStructure(empty, radius=0, name="B0")
    batch = structure._batch_contents([(0, 0), (1, 2)])
    assert all(isinstance(w, EmptyWord) for w in batch)


def test_aux_table_batch_matches_scalar(setup):
    gen, db, family, evaluator = setup
    tau, s = 4, 2
    level = 6
    aux = AuxCountTable(evaluator, level, tau=tau, s=s, frac_exponent=2.0)
    points = random_points(gen, 12, db.d)
    addresses = []
    l, u = 0, 6
    for p in points:
        acc = family.accurate_address(level, p)
        for g in (1, 2):
            levels = group_levels(l, u, tau, s, g, 1 if g == 2 else s)
            coarse = [family.coarse_address(j, p) for j in levels]
            addresses.append(aux.address(acc, l, u, g, coarse))
    batch = aux._batch_contents(addresses)
    scalar = [aux._content(a) for a in addresses]
    assert all(words_equal(b, s_) for b, s_ in zip(batch, scalar))


def test_lazy_table_prefetch_primes_cache_and_counts():
    calls = {"batch": 0, "scalar": 0}

    def content(addr):
        calls["scalar"] += 1
        return IntWord(addr % 5, 10)

    def batch_content(addrs):
        calls["batch"] += 1
        return [IntWord(a % 5, 10) for a in addrs]

    table = LazyTable("t", 100, 8, content, batch_content_fn=batch_content)
    assert table.supports_prefetch
    filled = table.prefetch([1, 2, 2, 3])  # duplicate collapses
    assert filled == 3
    assert table.prefetched_cells == 3
    assert calls == {"batch": 1, "scalar": 0}
    # Reads hit the primed cells; only address 4 goes through content_fn.
    assert table.read(2).value == 2
    assert table.read(4).value == 4
    assert calls == {"batch": 1, "scalar": 1}
    # Prefetching again skips everything already cached.
    assert table.prefetch([1, 2, 3]) == 0


def test_prefetch_crossing_the_cap_keeps_every_address_it_was_given(monkeypatch):
    """The overflow clear runs before cached addresses are skipped: a
    prefetch that crosses the cap while some of its addresses are cached
    recomputes those too, so the reads that follow never miss."""
    monkeypatch.setattr(LazyTable, "MEMO_CELLS", 4)
    calls = {"batch": [], "scalar": 0}

    def content(addr):
        calls["scalar"] += 1
        return IntWord(addr % 5, 10)

    def batch_content(addrs):
        calls["batch"].append(list(addrs))
        return [IntWord(a % 5, 10) for a in addrs]

    table = LazyTable("t", 100, 8, content, batch_content_fn=batch_content)
    assert table.prefetch([0, 1, 2]) == 3
    assert table.prefetch([1, 2, 3, 4, 3]) == 4  # 3 cached + 2 new > 4
    assert calls["batch"] == [[0, 1, 2], [1, 2, 3, 4]]
    assert table.cached_cells() == 4
    assert [table.read(a).value for a in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert calls["scalar"] == 0
    # Within the cap, cached addresses are skipped as before.
    assert table.prefetch([4, 3]) == 0


def test_contents_after_an_overflow_clear_equal_those_before(setup, monkeypatch):
    """The memo cap changes how often a cell is computed, never what it
    holds: the real witness-search contents read before an overflow
    clear equal those read after it, through prefetch and through read."""
    _, db, family, evaluator = setup
    gen = np.random.default_rng(23)
    monkeypatch.setattr(LazyTable, "MEMO_CELLS", 4)
    level = 3
    table = MainLevelTable(evaluator, level).table
    points = [db.row(i) for i in range(6)] + list(random_points(gen, 6, db.d))
    addresses = [family.accurate_address(level, p) for p in points]
    table.prefetch(addresses)
    before = [table.read(a) for a in addresses]
    assert table.cached_cells() == len(set(addresses)) > 4
    table.prefetch([family.accurate_address(level, p) for p in random_points(gen, 5, db.d)])
    assert table.cached_cells() <= 5
    reread = [table.read(a) for a in addresses]  # misses: scalar path, clears
    assert table.cached_cells() <= 4
    table.prefetch(addresses)
    refetched = [table.read(a) for a in addresses]
    assert all(words_equal(b, r) for b, r in zip(before, reread))
    assert all(words_equal(b, r) for b, r in zip(before, refetched))
    assert any(isinstance(w, PointWord) for w in before)


def test_lazy_table_without_batch_fn_ignores_prefetch():
    table = LazyTable("t", 10, 8, lambda a: IntWord(0, 1))
    assert not table.supports_prefetch
    assert table.prefetch([1, 2]) == 0


def test_lazy_table_prefetch_validates_words():
    table = LazyTable(
        "t", 10, 2, lambda a: IntWord(0, 1),
        batch_content_fn=lambda addrs: [IntWord(7, 7) for _ in addrs],
    )
    with pytest.raises(ValueError, match="exceeds"):
        table.prefetch([1])


def test_lazy_table_prefetch_length_mismatch_raises():
    table = LazyTable(
        "t", 10, 8, lambda a: IntWord(0, 1), batch_content_fn=lambda addrs: []
    )
    with pytest.raises(ValueError, match="addresses"):
        table.prefetch([1, 2])


# -- adversarial membership and witness cases ------------------------------


def flip(row, *bits):
    """A copy of packed ``row`` with the given bit positions flipped."""
    out = np.array(row, dtype=np.uint64, copy=True)
    for bit in bits:
        out[bit // 64] ^= np.uint64(1) << np.uint64(bit % 64)
    return out


def membership_hits(words, d, probes):
    """``{radius: [hit index or None per probe]}``, after checking that the
    batched contents equal the scalar ones at both radii."""
    db = PackedPoints(words, d)
    hits = {}
    for radius in (0, 1):
        structure = MembershipStructure(db, radius=radius, name=f"B{radius}")
        addresses = [structure.address_for(p) for p in probes]
        batch = structure._batch_contents(addresses)
        scalar = [structure._content(a) for a in addresses]
        assert all(words_equal(b, s) for b, s in zip(batch, scalar))
        hits[radius] = [w.index if isinstance(w, PointWord) else None for w in batch]
    return hits


def random_rows(seed, n, d):
    return random_points(np.random.default_rng(seed), n, d)


def test_membership_duplicate_rows_return_the_lower_index():
    words = random_rows(31, 6, 192)
    words[4] = words[1]
    assert membership_hits(words, 192, [words[1]]) == {0: [1], 1: [1]}


def test_membership_two_distance_one_rows_return_the_lower_index():
    words = random_rows(32, 7, 192)
    probe = words[0].copy()
    words[2] = flip(probe, 63)  # the first word's top bit
    words[5] = flip(probe, 130)
    words[0] = flip(probe, 70, 71, 72)
    assert membership_hits(words, 192, [probe]) == {0: [None], 1: [2]}


def test_membership_exact_match_beats_a_lower_distance_one_row():
    words = random_rows(33, 6, 192)
    probe = words[4].copy()
    words[1] = flip(probe, 100)
    assert membership_hits(words, 192, [probe]) == {0: [4], 1: [4]}


def test_membership_rejects_a_first_word_match_far_on_later_words():
    words = random_rows(34, 5, 192)
    probes = [
        flip(words[3], 64, 65),  # two bits in the second word
        flip(words[3], 70, 150),  # one bit in each later word
        flip(words[3], 0, 64),  # one bit in the first, one in a later word
    ]
    assert membership_hits(words, 192, probes) == {0: [None] * 3, 1: [None] * 3}
    # A single later-word bit is a genuine radius-1 hit.
    assert membership_hits(words, 192, [flip(words[3], 131)]) == {0: [None], 1: [3]}


@pytest.mark.parametrize("d", [64, 40])
def test_membership_single_word_rows(d):
    words = random_rows(35, 8, d)
    words[6] = words[2]
    words[5] = flip(words[1], 3)
    words[7] = flip(words[1], d - 1)
    probes = [
        words[2],  # duplicated at 2 and 6
        words[1],  # exact at 1, also distance 1 from 5 and 7
        flip(words[5], 0),  # distance 1 from 5, not from 1 (bits 0 and 3)
        flip(words[0], 0, 1),  # distance 2 from row 0
        flip(words[0], d - 1),  # distance 1 from row 0 in the top bit
    ]
    hits = membership_hits(words, d, probes)
    assert hits == {0: [2, 1, None, None, None], 1: [2, 1, 5, None, 0]}


@pytest.mark.parametrize("source", ["setflags", "mmap"])
def test_membership_read_only_words(tmp_path, source):
    words = random_rows(36, 9, 192)
    words[7] = words[2]
    if source == "mmap":
        np.save(tmp_path / "words.npy", words)
        words = np.load(tmp_path / "words.npy", mmap_mode="r")
    else:
        words.setflags(write=False)
    probes = [words[7], flip(words[3], 9), flip(words[3], 9, 10)]
    hits = membership_hits(words, 192, probes)
    assert hits == {0: [2, None, None], 1: [2, 3, None]}
    assert not PackedPoints(words, 192).words.flags.writeable


def test_main_table_duplicate_rows_tie_to_the_lowest_index():
    gen = np.random.default_rng(37)
    d = 192
    base = random_points(gen, 12, d)
    # Every base row appears three times at scattered positions, so each
    # witness search ties between identical sketches.
    words = base[gen.permutation(np.repeat(np.arange(12), 3))]
    db = PackedPoints(words, d)
    family = SketchFamily(
        d=d, alpha=2.0, levels=5, accurate_rows=48, coarse_rows=12,
        rng_tree=RngTree(5),
    )
    evaluator = ApproxBallEvaluator(LevelSketches(db, family))
    probes = list(base) + [flip_random_bits(gen, row, 2, d) for row in base]
    for level in (0, 2, 5):
        table = MainLevelTable(evaluator, level)
        addresses = [family.accurate_address(level, p) for p in probes]
        batch = table._batch_contents(addresses)
        scalar = [table._content(a) for a in addresses]
        assert all(words_equal(b, s) for b, s in zip(batch, scalar))
        for word in batch:
            if isinstance(word, PointWord):
                first = np.flatnonzero((words == words[word.index]).all(axis=1))[0]
                assert word.index == first
        # The exact probes always have a witness at distance 0.
        assert all(isinstance(w, PointWord) for w in batch[:12])
