"""Property-based rebuild-equivalence harness for mutable indexes.

Hypothesis drives random interleavings of ``insert`` / ``delete`` /
``query`` / ``compact`` against a *shadow model* — an independent
reimplementation of the mutation-layer contract — and checks, at every
query, that the real index's answer is **bitwise-identical** (answer id,
answer bits, probes, rounds, probes-per-round, scheme label) to the
composed oracle:

    fresh registry build of the current generation's base rows under
    ``RngTree(seed).child("generation", g)``
        →  tombstone-filter the static answer
        →  merge with an exact memtable scan by (true distance, id)

That proves query answers are a pure function of ``(base rows, seed,
generation, tombstones, memtable)`` — never of the mutation history.  At
every compaction the check collapses to the headline invariant: the
index answers bitwise-identically to a from-scratch
``ANNIndex.from_spec`` on the surviving rows.  Each episode also checks
``query_batch`` against the sequential loop and a save/load round-trip.

The configurations sweep every registered scheme, plain and boosted,
plus an auto-compaction-threshold config; the sharded interleaving test
lives in ``tests/service/test_mutable_sharded.py``.  Across configs the
fast (unmarked) suite generates 200+ episodes, satisfying the CI floor.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import IndexSpec
from repro.core.index import ANNIndex
from repro.core.mutable import generation_seed
from repro.hamming.distance import hamming_distance
from repro.hamming.kernels import (
    KNOWN_KERNELS,
    available_kernels,
    unavailable_kernels,
    use_kernel,
)
from repro.hamming.points import PackedPoints
from repro.hamming.sampling import flip_random_bits, random_points
from repro.registry import available_schemes

N0, D = 16, 64
POOL_SIZE = 32

#: Per-scheme parameter tweaks so a compaction can rebuild at any
#: live count >= 2 (data-dependent-lsh's default 8 parts cannot).
SCHEME_PARAMS: Dict[str, Dict[str, object]] = {
    "data-dependent-lsh": {"parts": 2},
    "algorithm1": {"rounds": 2},
}


def make_pool(seed: int, base: PackedPoints) -> np.ndarray:
    """Random + planted-near-base packed points the episodes draw from."""
    gen = np.random.default_rng(seed)
    rows = [random_points(gen, POOL_SIZE // 2, D)]
    for _ in range(POOL_SIZE - POOL_SIZE // 2):
        anchor = base.row(int(gen.integers(0, len(base))))
        rows.append(
            flip_random_bits(gen, anchor, int(gen.integers(0, 8)), D)[None, :]
        )
    return np.vstack(rows)


class ShadowModel:
    """Independent bookkeeping of the documented mutation semantics."""

    def __init__(self, base_words: np.ndarray, threshold: float):
        self.base = [row.copy() for row in base_words]  # generation base rows
        self.generation = 0
        self.tombstones: set = set()
        self.memtable: List[Tuple[np.ndarray, bool]] = []  # (row, deleted)
        self.threshold = threshold

    @property
    def n_static(self) -> int:
        return len(self.base)

    @property
    def id_space(self) -> int:
        return self.n_static + len(self.memtable)

    def live_memtable(self) -> List[Tuple[int, np.ndarray]]:
        return [
            (i, row) for i, (row, dead) in enumerate(self.memtable) if not dead
        ]

    @property
    def live_count(self) -> int:
        return self.n_static - len(self.tombstones) + len(self.live_memtable())

    @property
    def dirty_count(self) -> int:
        return len(self.tombstones) + len(self.memtable)

    def live_ids(self) -> List[int]:
        static = [i for i in range(self.n_static) if i not in self.tombstones]
        return static + [self.n_static + i for i, _ in self.live_memtable()]

    def insert(self, rows: np.ndarray) -> List[int]:
        ids = []
        for row in rows:
            self.memtable.append((row.copy(), False))
            ids.append(self.id_space - 1)
        if self._maybe_compact():
            total = self.n_static
            return list(range(total - rows.shape[0], total))
        return ids

    def delete(self, ids) -> None:
        for gid in ids:
            if gid < self.n_static:
                self.tombstones.add(gid)
            else:
                row, _ = self.memtable[gid - self.n_static]
                self.memtable[gid - self.n_static] = (row, True)
        self._maybe_compact()

    def compact(self) -> int:
        if self.dirty_count == 0:  # mirrors ANNIndex.compact's no-op
            return self.generation
        survivors = [
            self.base[i] for i in range(self.n_static) if i not in self.tombstones
        ] + [row for _, row in self.live_memtable()]
        self.base = survivors
        self.tombstones = set()
        self.memtable = []
        self.generation += 1
        return self.generation

    def _maybe_compact(self) -> bool:
        if self.dirty_count == 0 or self.live_count < 2:
            return False
        if self.dirty_count > self.threshold * max(1, self.n_static):
            self.compact()
            return True
        return False


class OracleCache:
    """One fresh static build per generation (the expensive part)."""

    def __init__(self, spec: IndexSpec):
        self.spec = spec
        self._built: Dict[int, ANNIndex] = {}

    def static_index(self, model: ShadowModel) -> ANNIndex:
        g = model.generation
        if g not in self._built:
            spec_g = self.spec.replace(
                seed=generation_seed(self.spec.seed, g)
            )
            self._built[g] = ANNIndex.from_spec(
                PackedPoints(np.vstack(model.base), D), spec_g
            )
        return self._built[g]


def expected_result(q: np.ndarray, model: ShadowModel, oracle: OracleCache):
    """The composed oracle: fresh static build + the documented merge."""
    static = oracle.static_index(model).query(q)
    mem_live = model.live_memtable()
    ppr = list(static.probes_per_round)
    if mem_live:
        if ppr:
            ppr[0] += len(mem_live)
        else:
            ppr = [len(mem_live)]
    candidates = []
    if static.answer_index is not None and static.answer_index not in model.tombstones:
        candidates.append(
            (hamming_distance(q, static.answer_packed), int(static.answer_index))
        )
    for pos, row in mem_live:
        candidates.append((hamming_distance(q, row), model.n_static + pos))
    answer = min(candidates) if candidates else None
    return answer, ppr, static.scheme


def check_query(index: ANNIndex, q: np.ndarray, model: ShadowModel, oracle: OracleCache):
    answer, ppr, scheme_label = expected_result(q, model, oracle)
    result = index.query(q)
    assert result.scheme == scheme_label
    assert result.probes == sum(ppr)
    assert result.probes_per_round == ppr
    assert result.rounds == sum(1 for p in ppr if p > 0)
    if answer is None:
        assert result.answer_index is None
        assert result.answer_packed is None
    else:
        dist, gid = answer
        assert result.answer_index == gid
        assert hamming_distance(q, result.answer_packed) == dist
        assert index.is_live(gid)
    dirty = model.tombstones or model.live_memtable()
    if dirty:
        assert result.meta["mutable"]["generation"] == model.generation


def run_episode(data, spec: IndexSpec, threshold: float):
    gen = np.random.default_rng(spec.seed)
    base = PackedPoints(random_points(gen, N0, D), D)
    pool = make_pool(spec.seed + 1, base)
    index = ANNIndex.from_spec(base, spec, compact_threshold=threshold)
    model = ShadowModel(base.words, threshold)
    oracle = OracleCache(index.spec)

    n_ops = data.draw(st.integers(min_value=3, max_value=10), label="n_ops")
    for step in range(n_ops):
        choices = ["insert", "query", "query"]
        live = model.live_ids()
        if live:
            choices.append("delete")
        if model.dirty_count and model.live_count >= 2:
            choices.append("compact")
        op = data.draw(st.sampled_from(choices), label=f"op{step}")
        if op == "insert":
            k = data.draw(st.integers(1, 3), label=f"ins{step}")
            picks = data.draw(
                st.lists(
                    st.integers(0, POOL_SIZE - 1), min_size=k, max_size=k
                ),
                label=f"rows{step}",
            )
            got = index.insert(pool[picks])
            assert got == model.insert(pool[picks])
        elif op == "delete":
            k = data.draw(st.integers(1, min(3, len(live))), label=f"del{step}")
            ids = data.draw(
                st.lists(
                    st.sampled_from(live), min_size=k, max_size=k, unique=True
                ),
                label=f"ids{step}",
            )
            assert index.delete(ids) == len(ids)
            model.delete(ids)
        elif op == "compact":
            assert index.compact() == model.compact()
        else:
            qi = data.draw(st.integers(0, POOL_SIZE - 1), label=f"q{step}")
            check_query(index, pool[qi], model, oracle)
        assert len(index) == model.live_count
        assert index.generation == model.generation

    # Structural postconditions + batch/sequential equivalence.
    assert index.live_ids().tolist() == model.live_ids()
    queries = pool[data.draw(
        st.lists(st.integers(0, POOL_SIZE - 1), min_size=2, max_size=4),
        label="final_queries",
    )]
    batch = index.query_batch(queries)
    for qi in range(queries.shape[0]):
        check_query(index, queries[qi], model, oracle)
        sequential = index.query(queries[qi])
        assert batch[qi].answer_index == sequential.answer_index
        assert batch[qi].probes == sequential.probes
        assert batch[qi].probes_per_round == sequential.probes_per_round

    # Save/load preserves the mutated state bitwise.
    with tempfile.TemporaryDirectory(prefix="repro-mutation-prop-") as tmp:
        snapshot = Path(tmp) / "snap"
        index.save(snapshot)
        loaded = ANNIndex.load(snapshot)
        assert loaded.generation == model.generation
        assert len(loaded) == model.live_count
        check_query(loaded, pool[0], model, oracle)

    # The headline invariant, in the flesh: compact and compare against a
    # from-scratch build on the surviving rows.
    if model.live_count >= 2:
        g = index.compact()
        model.compact()
        assert g == model.generation
        fresh = ANNIndex.from_spec(
            PackedPoints(np.vstack(model.base), D),
            index.spec.replace(seed=generation_seed(index.spec.seed, g)),
        )
        for qi in range(min(3, queries.shape[0])):
            a = index.query(queries[qi])
            b = fresh.query(queries[qi])
            assert a.answer_index == b.answer_index
            assert a.probes == b.probes
            assert a.rounds == b.rounds
            assert a.probes_per_round == b.probes_per_round
            assert a.meta == b.meta


EPISODE_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("scheme", available_schemes())
class TestPlainSchemes:
    @EPISODE_SETTINGS
    @given(data=st.data())
    def test_interleavings_match_rebuild_oracle(self, scheme, data):
        spec = IndexSpec(
            scheme=scheme, params=SCHEME_PARAMS.get(scheme, {}), seed=101
        )
        run_episode(data, spec, threshold=float("inf"))


@pytest.mark.parametrize("scheme", ["algorithm1", "lsh"])
class TestBoostedSchemes:
    @EPISODE_SETTINGS
    @given(data=st.data())
    def test_interleavings_match_rebuild_oracle(self, scheme, data):
        spec = IndexSpec(
            scheme=scheme, params=SCHEME_PARAMS.get(scheme, {}), seed=202, boost=2
        )
        run_episode(data, spec, threshold=float("inf"))


class TestAutoCompaction:
    """Same harness with the amortized trigger armed: compactions fire
    inside insert/delete, and the shadow model must predict every one."""

    @EPISODE_SETTINGS
    @given(data=st.data())
    def test_amortized_trigger_preserves_the_oracle(self, data):
        spec = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=303)
        run_episode(data, spec, threshold=0.3)


def _kernel_cases():
    cases = []
    for name in KNOWN_KERNELS:
        if name in available_kernels():
            cases.append(pytest.param(name))
        else:
            reason = unavailable_kernels().get(name, "not registered")
            cases.append(
                pytest.param(name, marks=pytest.mark.skip(reason=f"{name}: {reason}"))
            )
    return cases


@pytest.mark.parametrize("kernel", _kernel_cases())
class TestKernelBackends:
    """Full mutation episodes under each registered kernel backend.

    The oracle's expectations — probe/round accounting from the shadow
    model, answers from from-scratch rebuild indexes — are pure integers
    with no backend dependence, so an episode passing under every kernel
    *is* the bitwise cross-backend identity the seam promises (answers
    AND accounting), transitively through the oracle.  Compiled-backend
    cases self-skip with the unavailability reason when the dependency
    is absent.
    """

    @EPISODE_SETTINGS
    @given(data=st.data())
    def test_episodes_identical_under_kernel(self, kernel, data):
        with use_kernel(kernel):
            spec = IndexSpec(scheme="algorithm1", params={"rounds": 2}, seed=404)
            run_episode(data, spec, threshold=0.5)

    @EPISODE_SETTINGS
    @given(data=st.data())
    def test_boosted_episodes_identical_under_kernel(self, kernel, data):
        with use_kernel(kernel):
            spec = IndexSpec(
                scheme="lsh", params=SCHEME_PARAMS.get("lsh", {}), seed=505, boost=2
            )
            run_episode(data, spec, threshold=float("inf"))
