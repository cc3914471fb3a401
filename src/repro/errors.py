"""Exception taxonomy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A table or expression referenced a column or type incorrectly."""


class CatalogError(ReproError):
    """A database-level naming problem (unknown/duplicate table or view)."""


class PlanError(ReproError):
    """A logical or physical plan is malformed or unsupported."""


class StaleBindingError(PlanError):
    """A bound plan no longer matches the live catalog/registry state.

    Raised when a prepared (or otherwise cached) plan's frozen relations
    drifted — e.g. a scanned table was dropped or replaced (binding reads
    its data), a named result was dropped, or a relation reference now
    resolves to a different base table.  The fix is always the same:
    re-parse (re-prepare) the statement.  ``Database.sql``,
    ``Session.sql`` and ``DatabaseServer.sql`` do this automatically.
    """


class InvalidArgumentError(ReproError, ValueError):
    """A caller passed an argument outside its documented domain.

    The taxonomy-level replacement for bare ``ValueError`` in library code
    (enforced by lint rule RPR004).  It still subclasses ``ValueError`` so
    pre-existing callers that guarded argument mistakes with
    ``except ValueError`` keep working, while ``except ReproError`` now
    covers them too.
    """


class SanitizeError(ReproError):
    """A debug-mode sanitizer check failed (see :mod:`repro.sanitize`).

    Raised only when ``REPRO_SANITIZE=1``: captured lineage violated a
    structural invariant (non-monotone CSR indptr, out-of-bounds rid,
    wrong dtype) or a rid resolution escaped its base-table domain.
    Production runs never pay for — or raise — these checks.
    """


class SqlError(ReproError):
    """The SQL front end rejected a statement."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class LineageError(ReproError):
    """A lineage query or capture request is invalid.

    Examples: tracing to a relation that was pruned from capture, asking for
    forward lineage when only backward was captured, or probing an index
    with out-of-range rids.
    """


class CaptureDisabledError(LineageError):
    """Lineage was requested but capture was disabled (or pruned away)."""


class RidRangeError(LineageError, IndexError):
    """A record id fell outside its relation's row range.

    Subclasses ``IndexError`` so positional-access callers that guard
    with the builtin keep working (same compatibility pattern as
    :class:`InvalidArgumentError`)."""


class WorkloadError(ReproError):
    """A lineage-consuming workload declaration is inconsistent."""


class ServingError(ReproError):
    """A concurrent-serving contract was violated (see ``repro/serve.py``).

    Raised when a reader tries to mutate through a snapshot (snapshot
    reads are strictly read-only; writes go through the server's writer
    thread) or when a closed server is asked for more work."""


class DurabilityError(ReproError):
    """A durable-state operation (WAL append, checkpoint) failed.

    The write-ahead path raises this *before* the in-memory registry
    mutates, so a failed append never acknowledges an operation that the
    log does not hold (see ``lineage/wal.py``).
    """


class RecoveryError(DurabilityError):
    """Replaying durable state could not reconstruct the registry.

    Raised by :meth:`repro.api.Database.open` replay: on damaged
    records or archives, on a checkpoint of another format version, and
    on a WAL record kind this build does not know (such a log is
    refused, never partly applied).  Torn WAL *tails* are not errors —
    they are truncated as un-acknowledged work — but inconsistencies
    that cannot be attributed to a crash mid-append are.
    """


class WalCorruptionError(RecoveryError):
    """A WAL record failed its checksum *mid-log*.

    A bad final record is a torn tail (truncated silently on replay); a
    bad record *followed by further valid frames* cannot be explained by
    a crash during append and means the log bytes were damaged — replay
    refuses to guess which side of the corruption to trust.
    """


class RegistryFullError(ReproError):
    """A registration would take the result registry past its byte budget.

    ``Database(max_result_bytes=B)`` budgets the lineage bytes of the
    unpinned registered results.  A registration (or an unpin) past ``B``
    raises this before the WAL append and before any change in memory,
    so nothing is acknowledged; drop a result, or pin this one, and
    retry.  Nothing registered is removed to make room.
    """


class InjectedFault(ReproError):
    """A fault-injection failpoint fired (tests/faults harness).

    Simulates a crash at a named I/O site.  Deliberately *not* a
    :class:`DurabilityError`: recovery code must never catch-and-continue
    past a simulated crash, so the injection escapes any ``except
    DurabilityError`` in the paths under test.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at failpoint {site!r}")
        self.site = site
