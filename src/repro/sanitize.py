"""Debug-mode lineage sanitizer (``REPRO_SANITIZE=1``).

The static linter (``tools/lint``) proves call sites *look* safe; this
module checks at runtime that the data flowing through them *is* safe.
With ``REPRO_SANITIZE=1`` in the environment:

* rid arrays handed out by lineage indexes, the resolution cache, and
  registered results — and the columns of every catalog table, and the
  dictionary codes a table memoizes — are frozen
  (``flags.writeable = False``) for real, so an in-place mutation of
  shared lineage state, of a column the per-bar memo keys by its array
  object, or of codes every later GROUP BY over the table reads, raises
  immediately;
* captured CSR lineage is validated on construction — monotone
  non-negative indptr, in-bounds indices, ``int64`` dtype — instead of
  corrupting downstream joins silently;
* ``Lb``/``Lf`` rid resolutions are bounds-checked against the base
  table's live domain and epoch-checked against the capture epoch.

All checks raise :class:`~repro.errors.SanitizeError`.  The mode is off
by default and every hook is gated on :func:`enabled`, which reads
``os.environ`` on every call — nothing is cached, so a change to the
variable (a test's ``monkeypatch.setenv``) takes effect at the next
hook — and production runs pay one environment lookup per hook.

Tests toggle the mode deterministically with :func:`force`; the nightly
``ci-deep`` Hypothesis suites run entirely under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from .errors import SanitizeError

#: Environment values that leave the sanitizer off.
_FALSY = frozenset({"", "0", "false", "no", "off"})

#: Tri-state test override: None = follow the environment.
_forced: Optional[bool] = None


def enabled() -> bool:
    """True when sanitizer checks should run: the :func:`force` override,
    else ``REPRO_SANITIZE`` as the environment holds it now (read live on
    every call, not cached)."""
    if _forced is not None:
        return _forced
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSY


@contextmanager
def force(value: bool) -> Iterator[None]:
    """Deterministically enable/disable the sanitizer for a test block."""
    global _forced
    previous = _forced
    _forced = bool(value)
    try:
        yield
    finally:
        _forced = previous


def freeze(arr: np.ndarray) -> np.ndarray:
    """Clear the writeable flag of a handed-out array (only when enabled).

    Freezing is best-effort: a view into a buffer we do not own cannot be
    made read-only retroactively and is left as-is.
    """
    if enabled() and isinstance(arr, np.ndarray) and arr.flags.writeable:
        try:
            arr.setflags(write=False)
        except ValueError:
            pass
    return arr


def check_rid_array(values: np.ndarray, context: str = "RidArray") -> None:
    """Validate a 1-to-1 rid array: int64, every entry >= NO_MATCH (-1)."""
    if not enabled():
        return
    if values.dtype != np.int64:
        raise SanitizeError(f"{context}: rid dtype must be int64, got {values.dtype}")
    if values.size and int(values.min()) < -1:
        raise SanitizeError(f"{context}: rid below NO_MATCH (-1): {int(values.min())}")


def check_csr(offsets: np.ndarray, values: np.ndarray, context: str = "RidIndex") -> None:
    """Validate CSR lineage: monotone indptr starting at 0, non-negative
    in-range indices, int64 dtypes."""
    if not enabled():
        return
    if offsets.dtype != np.int64 or values.dtype != np.int64:
        raise SanitizeError(
            f"{context}: CSR dtypes must be int64, got"
            f" offsets={offsets.dtype} values={values.dtype}"
        )
    if offsets.size == 0 or int(offsets[0]) != 0:
        raise SanitizeError(f"{context}: CSR indptr must start at 0")
    if offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)):
        raise SanitizeError(f"{context}: CSR indptr must be monotone non-decreasing")
    if int(offsets[-1]) != values.shape[0]:
        raise SanitizeError(
            f"{context}: CSR indptr end {int(offsets[-1])} !="
            f" values length {values.shape[0]}"
        )
    if values.size and int(values.min()) < 0:
        raise SanitizeError(f"{context}: CSR index below 0: {int(values.min())}")


def check_rid_bounds(rids: np.ndarray, domain: int, context: str) -> None:
    """Validate resolved rids against a base-table domain ``[0, domain)``.

    ``NO_MATCH`` (-1) entries are allowed — 1-to-1 forward lineage uses
    them for filtered-out rows.
    """
    if not enabled():
        return
    if rids.size == 0:
        return
    lo = int(rids.min())
    hi = int(rids.max())
    if lo < -1 or hi >= domain:
        raise SanitizeError(
            f"{context}: resolved rid out of bounds for domain {domain}:"
            f" min={lo} max={hi}"
        )


def check_recovered_index(index, context: str = "recovered index") -> None:
    """Validate a lineage index deserialized from durable storage.

    Unlike every other hook in this module, this check runs
    **unconditionally**: bytes read back from disk are untrusted input
    (torn writes, bit rot, a foreign archive), and the cost is paid only
    on the recovery path, never per query.  ``index`` is duck-typed — a
    CSR index exposes ``offsets``/``values``, a 1-to-1 array only
    ``values`` — so this stays import-cycle-free with
    :mod:`repro.lineage.indexes`.
    """
    with force(True):
        if hasattr(index, "offsets"):
            check_csr(index.offsets, index.values, context)
        else:
            check_rid_array(index.values, context)


def check_epoch(captured: Optional[int], live: int, relation: str, context: str) -> None:
    """Validate that a rid resolution's capture epoch matches the live
    catalog epoch (``None`` = capture predates epoch recording)."""
    if not enabled():
        return
    if captured is not None and captured != live:
        raise SanitizeError(
            f"{context}: lineage for {relation!r} captured at epoch"
            f" {captured} but relation is at epoch {live}"
        )
