"""repro — a reproduction of *Smoke: Fine-grained Lineage at Interactive
Speed* (Psallidas & Wu, VLDB 2018).

Quick tour::

    from repro import Database, CaptureMode, ExecOptions, Table

    db = Database()
    db.create_table("zipf", make_zipf_table(1_000_000, groups=1_000))
    res = db.sql("SELECT z, COUNT(*) AS c FROM zipf GROUP BY z",
                 options=ExecOptions(capture=CaptureMode.INJECT))
    rids = res.backward([0], "zipf")       # backward lineage query
    outs = res.forward("zipf", rids)        # forward lineage query

Repeated statements cost one parse: ``db.sql`` memoizes plan binding by
statement text, and brushes over a GROUP BY view merge memoized per-bar
partial answers, in one memo and one cache per database that
``db.prepare(...)`` and ``db.session()`` share (see :mod:`repro.api`).

Each reproduced figure has a ``benchmarks/bench_*.py`` file that
measures it; run one with ``python -m pytest <file>``.
"""

from .api import Database, ExecOptions, PreparedQuery, QueryResult, Session
from .errors import (
    CaptureDisabledError,
    CatalogError,
    InvalidArgumentError,
    LineageError,
    PlanError,
    RegistryFullError,
    ReproError,
    RidRangeError,
    SanitizeError,
    SchemaError,
    ServingError,
    SqlError,
    StaleBindingError,
    WorkloadError,
)
from .lineage.capture import CaptureConfig, CaptureMode, QueryLineage
from .lineage.indexes import RidArray, RidIndex
from .serve import DatabaseServer, Snapshot
from .storage.table import ColumnType, Schema, Table
from .workload.spec import (
    AggPushdownSpec,
    BackwardSpec,
    FilteredBackwardSpec,
    ForwardSpec,
    SkippingSpec,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "AggPushdownSpec",
    "BackwardSpec",
    "CaptureConfig",
    "CaptureDisabledError",
    "CaptureMode",
    "CatalogError",
    "ColumnType",
    "Database",
    "DatabaseServer",
    "ExecOptions",
    "FilteredBackwardSpec",
    "ForwardSpec",
    "InvalidArgumentError",
    "LineageError",
    "PlanError",
    "PreparedQuery",
    "QueryLineage",
    "QueryResult",
    "RegistryFullError",
    "ReproError",
    "RidArray",
    "RidIndex",
    "RidRangeError",
    "SanitizeError",
    "Schema",
    "SchemaError",
    "ServingError",
    "Session",
    "SkippingSpec",
    "Snapshot",
    "SqlError",
    "StaleBindingError",
    "Table",
    "Workload",
    "WorkloadError",
    "__version__",
]
