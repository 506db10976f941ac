"""The typed construction surface: :class:`IndexSpec`.

An :class:`IndexSpec` is a frozen, validated description of *which*
scheme to build and *how* — scheme name, per-scheme parameters, the
public-coin seed, and the boost (parallel-repetition) factor.  It is the
one value that flows through every construction path::

    from repro import ANNIndex, IndexSpec

    spec = IndexSpec(scheme="algorithm1", params={"rounds": 3}, seed=7)
    index = ANNIndex.from_spec(database, spec)

    spec2 = IndexSpec.from_dict(spec.to_dict())   # reproducible round-trip
    assert spec2 == spec

Validation happens at construction: the scheme name must be registered
in :mod:`repro.registry` and every ``params`` key must be one the scheme
accepts (value validation is the parameter dataclasses' job, at build
time).  Named presets bundle well-tested configurations::

    IndexSpec.preset("paper", seed=7)        # the paper's headline k=3 scheme
    IndexSpec.preset("fast")                 # one round, cheapest build
    IndexSpec.preset("high-recall", seed=7)  # boosted ×3 for amplified success
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from repro import registry

__all__ = ["IndexSpec", "PRESETS"]


#: Named presets: well-tested (scheme, params, boost) bundles.
PRESETS: Mapping[str, Mapping[str, object]] = MappingProxyType(
    {
        # The paper's headline configuration (the demo/quickstart setting):
        # Algorithm 1 at k=3 with laptop-scale sketch rows.
        "paper": MappingProxyType(
            {"scheme": "algorithm1", "params": {"rounds": 3, "c1": 8.0}, "boost": 1}
        ),
        # Cheapest useful index: one non-adaptive round, default rows.
        "fast": MappingProxyType(
            {"scheme": "algorithm1", "params": {"rounds": 1}, "boost": 1}
        ),
        # Success amplification: wider sketches plus 3 parallel copies
        # (probes triple, rounds stay at k — Section 2 remark).
        "high-recall": MappingProxyType(
            {"scheme": "algorithm1", "params": {"rounds": 3, "c1": 10.0}, "boost": 3}
        ),
    }
)


@dataclass(frozen=True)
class IndexSpec:
    """A validated, immutable recipe for building one index.

    Attributes
    ----------
    scheme : registered scheme name (see
        :func:`repro.registry.available_schemes`)
    params : per-scheme parameters; keys are validated against the
        scheme's registered parameter set, unset keys take the
        registered defaults
    seed : public-coin randomness root (None = fresh entropy)
    boost : parallel repetitions (≥ 1); probes scale linearly, rounds
        stay at the scheme's k
    """

    scheme: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    boost: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, str) or not self.scheme:
            raise ValueError(f"scheme must be a non-empty string, got {self.scheme!r}")
        # Freeze params first (a copy, so the caller's dict stays theirs;
        # None is treated as "no params", matching from_dict).
        object.__setattr__(self, "params", MappingProxyType(dict(self.params or {})))
        # Raises on unknown scheme names and unknown parameter keys; the
        # registry is the single source of truth for both checks.
        registry.resolved_params(self)
        if int(self.boost) < 1:
            raise ValueError(f"boost must be >= 1, got {self.boost}")

    def __hash__(self) -> int:
        return hash(
            (self.scheme, tuple(sorted(self.params.items())), self.seed, self.boost)
        )

    def __reduce__(self):
        # MappingProxyType is not picklable; round-trip through the plain
        # dict form instead (specs are the reproducibility currency, so
        # they must survive pickling/deepcopy to workers and caches).
        return (IndexSpec.from_dict, (self.to_dict(),))

    # -- construction helpers ------------------------------------------------
    @classmethod
    def preset(cls, name: str, seed: Optional[int] = None, **overrides) -> "IndexSpec":
        """A named preset, optionally with parameter overrides.

        ``overrides`` merge into the preset's params; pass ``boost=`` to
        override the preset's boost factor.
        """
        try:
            bundle = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
            ) from None
        boost = int(overrides.pop("boost", bundle["boost"]))
        params = {**bundle["params"], **overrides}
        return cls(scheme=bundle["scheme"], params=params, seed=seed, boost=boost)

    def replace(self, **changes) -> "IndexSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolve_seed(self) -> "IndexSpec":
        """This spec with a concrete seed (fresh entropy when ``None``).

        ``seed=None`` means "fresh public coins" — fine for one-off
        builds, but an index whose coins were never recorded can neither
        be saved nor rebuilt.  :meth:`ANNIndex.from_spec
        <repro.core.index.ANNIndex.from_spec>` resolves specs through
        this, so every built index carries the entropy that replays it.
        """
        if self.seed is not None:
            return self
        from repro.utils.rng import RngTree

        return self.replace(seed=RngTree(None).root_entropy)

    # -- reproducible round-tripping -----------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain, JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return {
            "scheme": self.scheme,
            "params": dict(self.params),
            "seed": self.seed,
            "boost": self.boost,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "IndexSpec":
        """Rebuild a spec from :meth:`to_dict` output (validates again)."""
        extra = sorted(set(data) - {"scheme", "params", "seed", "boost"})
        if extra:
            raise ValueError(f"unknown IndexSpec field(s): {', '.join(extra)}")
        return cls(
            scheme=data["scheme"],
            params=dict(data.get("params") or {}),
            seed=data.get("seed"),
            boost=int(data.get("boost", 1)),
        )

    # -- introspection -------------------------------------------------------
    def resolved_params(self) -> Dict[str, object]:
        """``params`` merged over the scheme's registered defaults."""
        return registry.resolved_params(self)
