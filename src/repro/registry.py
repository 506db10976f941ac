"""The scheme registry: every cell-probing scheme, buildable by name.

Core algorithms and all baselines register a factory
``(db, spec, rng) -> CellProbingScheme`` here, together with the scheme's
accepted parameters (name, default, short doc) and the paper section it
implements.  Everything downstream — :meth:`repro.core.index.ANNIndex.from_spec`,
the CLI's ``bench``/``baselines``/``tradeoff`` subcommands, the workload
sweeps in :mod:`repro.analysis.tradeoff`, and the benchmarks — constructs
schemes exclusively through :func:`build_scheme`, so adding a scheme here
makes it available to every harness at once.

``spec`` is a :class:`repro.api.IndexSpec` (scheme name + params + seed +
boost); this module deliberately does not import :mod:`repro.api` — the
spec layer validates against the registry, not the other way around — so
any object with ``scheme``/``params``/``seed``/``boost`` attributes works.

Success boosting is handled centrally: ``spec.boost > 1`` wraps the
factory in :class:`~repro.core.boosting.BoostedScheme` with per-copy
seeds derived from ``spec.seed`` through the ``RngTree("copy", i)``
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cellprobe.scheme import CellProbingScheme
from repro.utils.rng import RngTree

__all__ = [
    "ParamInfo",
    "SchemeInfo",
    "available_schemes",
    "build_scheme",
    "filter_params",
    "get_scheme",
    "register_scheme",
    "registry_rows",
    "resolved_params",
    "scheme_defaults",
]


@dataclass(frozen=True)
class ParamInfo:
    """One accepted parameter of a registered scheme."""

    default: object
    doc: str = ""


@dataclass(frozen=True)
class SchemeInfo:
    """Registry entry: how to build one scheme and what it accepts."""

    name: str
    factory: Callable[..., CellProbingScheme]  # (db, spec, rng) -> scheme
    description: str = ""
    paper_section: str = ""
    params: Mapping[str, ParamInfo] = field(default_factory=dict)

    def defaults(self) -> Dict[str, object]:
        return {key: info.default for key, info in self.params.items()}


_REGISTRY: Dict[str, SchemeInfo] = {}


def register_scheme(
    name: str,
    *,
    description: str = "",
    paper_section: str = "",
    params: Optional[Mapping[str, Tuple[object, str]]] = None,
):
    """Decorator registering ``factory(db, spec, rng)`` under ``name``.

    ``params`` maps accepted parameter names to ``(default, doc)`` pairs;
    :class:`repro.api.IndexSpec` validates its ``params`` keys against
    this set at construction time.
    """

    def wrap(factory: Callable[..., CellProbingScheme]):
        if name in _REGISTRY:
            raise ValueError(f"scheme {name!r} already registered")
        _REGISTRY[name] = SchemeInfo(
            name=name,
            factory=factory,
            description=description,
            paper_section=paper_section,
            params={k: ParamInfo(default, doc) for k, (default, doc) in (params or {}).items()},
        )
        return factory

    return wrap


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme."""
    return sorted(_REGISTRY)


def get_scheme(name: str) -> SchemeInfo:
    """The registry entry for ``name`` (ValueError lists known schemes)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        ) from None


def scheme_defaults(name: str) -> Dict[str, object]:
    """The accepted parameters of ``name`` with their default values."""
    return get_scheme(name).defaults()


def filter_params(name: str, candidate: Mapping[str, object]) -> Dict[str, object]:
    """The subset of ``candidate`` that scheme ``name`` accepts.

    Harnesses comparing several schemes under shared knobs (CLI ``bench``,
    the baseline benches) use this to build a valid spec per scheme from
    one candidate mapping.
    """
    accepted = get_scheme(name).params
    return {k: v for k, v in candidate.items() if k in accepted}


def resolved_params(spec) -> Dict[str, object]:
    """``spec.params`` merged over the scheme's registered defaults."""
    merged = scheme_defaults(spec.scheme)
    for key, value in spec.params.items():
        if key not in merged:
            raise ValueError(
                f"scheme {spec.scheme!r} accepts no parameter {key!r}; "
                f"accepted: {', '.join(sorted(merged)) or '(none)'}"
            )
        merged[key] = value
    return merged


def build_scheme(database, spec) -> CellProbingScheme:
    """Construct the scheme a spec describes, boost wrapping included.

    Per-copy seeds are the ``RngTree(spec.seed)`` streams ``("copy", i)``.
    """
    info = get_scheme(spec.scheme)
    boost = int(getattr(spec, "boost", 1))
    if boost < 1:
        raise ValueError(f"boost must be >= 1, got {boost}")
    tree = RngTree(spec.seed)
    if boost == 1:
        return info.factory(database, spec, tree.generator("copy", 0))
    from repro.core.boosting import BoostedScheme

    seeds = [tree.generator("copy", i) for i in range(boost)]
    return BoostedScheme(lambda s: info.factory(database, spec, s), seeds)


def registry_rows() -> List[Dict[str, str]]:
    """One row per scheme (name, paper section, params, description) —
    the table behind ``python -m repro schemes`` and the docs."""
    rows = []
    for name in available_schemes():
        info = _REGISTRY[name]
        rows.append(
            {
                "scheme": name,
                "paper": info.paper_section,
                "params": ", ".join(
                    f"{k}={info.params[k].default!r}" for k in sorted(info.params)
                ) or "(none)",
                "description": info.description,
            }
        )
    return rows


# -- built-in schemes ---------------------------------------------------------
#
# Factories are defined here (rather than in the scheme modules) so that
# importing repro.registry is the single side-effect-free way to populate
# the registry; scheme modules stay importable on their own.

_GEOMETRY_PARAMS = {
    "gamma": (4.0, "approximation ratio γ > 1"),
    "c1": (6.0, "accurate-sketch row multiplier"),
    "c2": (6.0, "coarse-sketch row multiplier"),
    "profile": ("empirical", "'empirical' or 'theory' sketch sizing"),
}


def _base_parameters(database, p) -> "object":
    from repro.core.params import BaseParameters

    return BaseParameters.for_database(
        database, gamma=p["gamma"], c1=p["c1"], c2=p["c2"], profile=p["profile"]
    )


@register_scheme(
    "algorithm1",
    description="Theorem 9 simple k-round scheme: interpolated shrinking rounds",
    paper_section="§3 / Thm 2, 9",
    params={
        **_GEOMETRY_PARAMS,
        "rounds": (2, "adaptivity budget k"),
        "tau": (None, "branching-factor override (None = paper τ)"),
    },
)
def _build_algorithm1(database, spec, rng):
    from repro.core.algorithm1 import SimpleKRoundScheme
    from repro.core.params import Algorithm1Params

    p = resolved_params(spec)
    params = Algorithm1Params(
        _base_parameters(database, p), k=int(p["rounds"]), tau_override=p["tau"]
    )
    return SimpleKRoundScheme(database, params, seed=rng)


@register_scheme(
    "algorithm2",
    description="Theorem 10 large-k scheme: two-round phases with grouped density tests",
    paper_section="§4 / Thm 3, 10",
    params={
        **_GEOMETRY_PARAMS,
        "rounds": (16, "adaptivity budget k (needs s ≥ 1)"),
        "c": (3.0, "the c > 2 constant of Theorem 10"),
        "s": (None, "group-capacity override (None = paper s)"),
    },
)
def _build_algorithm2(database, spec, rng):
    from repro.core.algorithm2 import LargeKScheme
    from repro.core.params import Algorithm2Params

    p = resolved_params(spec)
    params = Algorithm2Params(
        _base_parameters(database, p), k=int(p["rounds"]), c=p["c"], s_override=p["s"]
    )
    return LargeKScheme(database, params, seed=rng)


@register_scheme(
    "lambda-ann",
    description="Theorem 11 one-probe λ-near-neighbor scheme",
    paper_section="§5 / Thm 11",
    params={
        **_GEOMETRY_PARAMS,
        "lam": (16.0, "near-neighbor radius λ"),
    },
)
def _build_lambda_ann(database, spec, rng):
    from repro.core.lambda_ann import OneProbeNearNeighborScheme

    p = resolved_params(spec)
    return OneProbeNearNeighborScheme(
        database, _base_parameters(database, p), lam=p["lam"], seed=rng
    )


@register_scheme(
    "fully-adaptive",
    description="τ=2 binary search: the fully adaptive extreme (1 probe/round)",
    paper_section="§1 discussion",
    params=_GEOMETRY_PARAMS,
)
def _build_fully_adaptive(database, spec, rng):
    from repro.baselines.adaptive import FullyAdaptiveScheme

    p = resolved_params(spec)
    return FullyAdaptiveScheme(database, _base_parameters(database, p), seed=rng)


@register_scheme(
    "lsh",
    description="bit-sampling LSH over geometric radii (Indyk–Motwani)",
    paper_section="§1 baseline",
    params={
        "gamma": (4.0, "approximation ratio γ > 1"),
        "mode": ("nonadaptive", "'nonadaptive' (1 round) or 'adaptive' (level binary search)"),
        "bucket_capacity": (16, "points stored per bucket cell"),
        "table_boost": (1.0, "safety multiplier on the table count L"),
        "tables": (None, "override L directly"),
        "bits": (None, "override K directly"),
    },
)
def _build_lsh(database, spec, rng):
    from repro.baselines.lsh import LSHParams, LSHScheme

    p = resolved_params(spec)
    params = LSHParams(
        gamma=p["gamma"],
        bucket_capacity=int(p["bucket_capacity"]),
        table_boost=p["table_boost"],
        tables_override=p["tables"],
        bits_override=p["bits"],
    )
    return LSHScheme(database, params, mode=p["mode"], seed=rng)


@register_scheme(
    "data-dependent-lsh",
    description="two-round data-dependent LSH: dispatch probe, then one part's buckets",
    paper_section="§1 baseline (Andoni et al.)",
    params={
        "gamma": (4.0, "approximation ratio γ > 1"),
        "parts": (8, "pivot parts of the decomposition"),
        "dispatch_rows": (64, "coarse dispatch-sketch rows"),
        "bucket_capacity": (16, "points stored per bucket cell"),
        "table_boost": (1.0, "safety multiplier on per-part table counts"),
    },
)
def _build_data_dependent_lsh(database, spec, rng):
    from repro.baselines.data_dependent_lsh import (
        DataDependentLSHParams,
        DataDependentLSHScheme,
    )

    p = resolved_params(spec)
    params = DataDependentLSHParams(
        gamma=p["gamma"],
        parts=int(p["parts"]),
        dispatch_rows=int(p["dispatch_rows"]),
        bucket_capacity=int(p["bucket_capacity"]),
        table_boost=p["table_boost"],
    )
    return DataDependentLSHScheme(database, params, seed=rng)


@register_scheme(
    "linear-scan",
    description="exact nearest neighbor: all n point cells in one round",
    paper_section="§1 baseline",
    params={},
)
def _build_linear_scan(database, spec, rng):
    from repro.baselines.linear_scan import LinearScanScheme

    return LinearScanScheme(database)
