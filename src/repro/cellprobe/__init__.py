"""Cell-probe model substrate.

Implements Yao's cell-probe model with the paper's *limited adaptivity*
refinement: a query runs as ``k`` rounds of parallel probes, where the
addresses probed in a round may depend only on the query and on contents
retrieved in **previous** rounds.  The :class:`~repro.cellprobe.session.ProbeSession`
API makes that constraint structural: algorithms gather all of a round's
``(table, address)`` requests before any of the round's contents are
revealed.

Tables are *lazily materialized*: a cell's content is a deterministic
function of (database, shared randomness, address) evaluated on first probe
and memoized in a per-table memo of bounded size.  This is an exact
simulation of the model — the model charges for probes, never for
preprocessing — while avoiding the ``n^{O(1)}`` cells an eager build
would allocate.
"""

from repro.cellprobe.accounting import ProbeAccountant, ProbeBudgetExceeded, RoundRecord
from repro.cellprobe.plan import PlanDraft, run_query_plan
from repro.cellprobe.scheme import CellProbingScheme, SchemeSizeReport
from repro.cellprobe.session import ProbeRequest, ProbeSession
from repro.cellprobe.table import LazyTable, Table
from repro.cellprobe.words import (
    EMPTY,
    EmptyWord,
    IntWord,
    PointWord,
    Word,
    word_bits,
)

__all__ = [
    "EMPTY",
    "CellProbingScheme",
    "EmptyWord",
    "IntWord",
    "LazyTable",
    "PlanDraft",
    "PointWord",
    "ProbeAccountant",
    "ProbeBudgetExceeded",
    "ProbeRequest",
    "ProbeSession",
    "RoundRecord",
    "SchemeSizeReport",
    "Table",
    "Word",
    "run_query_plan",
    "word_bits",
]
