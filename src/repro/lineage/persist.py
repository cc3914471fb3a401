"""Persisting lineage indexes and registry checkpoints (paper §7).

The paper positions lineage indexes as a *physical design* artifact —
something a DBA (or an adaptive engine) may build once and keep.  This
module owns every byte layout of the durability subsystem:

* :func:`save_lineage` / :func:`load_lineage` — one
  :class:`~repro.lineage.capture.QueryLineage` as a standalone ``.npz``
  archive (deferred entries finalized on save, aliases **and**
  base-relation capture epochs preserved, so a restored lineage keeps
  its stale-rid protection).
* :func:`pack_query_result` / :func:`unpack_query_result` — a full
  registered result (output table + lineage) as npz-ready arrays plus a
  JSON-able manifest; the shared payload format of WAL ``register``
  records and checkpoint entries.
* :func:`write_checkpoint` / :func:`read_checkpoint` — the whole
  registry (entries, registry epochs, catalog epochs, WAL watermark)
  as one atomic snapshot.

All durable writes go through the fsync/replace helpers in
:mod:`repro.lineage.wal` (:func:`~repro.lineage.wal.durable_atomic_write`)
— lint rule RPR007 bans bare ``open(..., "wb")`` in the durable modules
— so a crash mid-save leaves the previous archive intact instead of a
torn ``.npz`` that ``np.load`` rejects with an opaque ``zipfile`` error.
Everything read back from disk is validated structurally
(:func:`repro.sanitize.check_recovered_index` runs unconditionally:
disk bytes are untrusted input) and failures raise the typed
:class:`~repro.errors.RecoveryError`.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import sanitize
from ..errors import LineageError, RecoveryError, SanitizeError, SchemaError
from ..storage.table import ColumnType, Schema, Table
from .capture import QueryLineage
from .indexes import RidArray, RidIndex
from .wal import Failpoints, durable_atomic_write

#: Checkpoint manifest format version (bump on incompatible layout change).
#: A version-1 checkpoint may list results this build cannot restore;
#: reading one raises :class:`RecoveryError`.
CHECKPOINT_VERSION = 2


# -- lineage <-> manifest -------------------------------------------------------


def _is_canonical_inverse(backward: RidIndex, forward) -> bool:
    """True when ``backward`` is bit-for-bit
    ``RidIndex.from_group_ids(forward.values, backward.num_keys)`` — the
    canonical stable inversion of the dense group-id array a groupby's
    forward index carries.

    Such an index need not be persisted at all: a manifest marker lets
    recovery rebuild it exactly, which halves the payload of the hottest
    durable records (a groupby registration's backward values are a
    full-length rid permutation).  The check is structural — offsets
    must equal the running counts of the group ids, and the values must
    walk the ids in (group, rid)-lexicographic order, which pins them to
    the unique stable argsort — so it is sound for any construction path
    (Inject appends, hash-layout reuse, Defer), not just
    ``from_group_ids`` itself.
    """
    if not isinstance(forward, RidArray):
        return False
    ids = forward.values
    values = backward.values
    if values.size != ids.size:
        return False
    # Fast path: the groupby capture paths tag the index with the very
    # group-id array they inverted; matching it against the forward
    # values replaces the structural walk with one memcmp-speed compare —
    # or none at all when the forward index shares the very buffer, as
    # the group-by and DISTINCT capture paths arrange.
    # Sanitize builds skip the shortcut so the structural check keeps
    # cross-checking the tagged construction paths.
    source = getattr(backward, "_inverse_of", None)
    if (
        source is not None
        and not sanitize.enabled()
        and (
            source is ids
            or (source.shape == ids.shape and np.array_equal(source, ids))
        )
    ):
        return True
    if ids.size == 0:
        return not backward.offsets.any()
    num = backward.num_keys
    try:
        counts = np.bincount(ids, minlength=num)
    except ValueError:  # negative group ids
        return False
    if counts.size != num:  # ids beyond the key range
        return False
    offsets = backward.offsets
    if offsets[0] != 0 or not np.array_equal(np.cumsum(counts), offsets[1:]):
        return False
    if values.min() < 0:
        return False
    try:
        grouped = ids[values]
    except IndexError:
        return False
    tie = grouped[1:] == grouped[:-1]
    return bool(
        np.all((grouped[1:] > grouped[:-1]) | (tie & (values[1:] > values[:-1])))
    )


def _lineage_manifest(
    lineage: QueryLineage, arrays: Dict[str, np.ndarray], prefix: str = ""
) -> dict:
    """Finalize ``lineage`` and describe it as a JSON-able manifest,
    depositing its index arrays into ``arrays`` under ``prefix``ed slots."""
    lineage.finalize()
    manifest = {
        "output_size": lineage.output_size,
        "backward": {},
        "forward": {},
        "aliases": lineage._aliases,
        "base_epochs": lineage._base_epochs,
    }
    for direction, table in (("backward", lineage._backward),
                             ("forward", lineage._forward)):
        for i, (key, index) in enumerate(sorted(table.items())):
            slot = f"{prefix}{direction}_{i}"
            if isinstance(index, RidArray):
                manifest[direction][key] = {"kind": "array", "slot": slot}
                arrays[f"{slot}_values"] = index.values
            elif isinstance(index, RidIndex):
                if (
                    direction == "backward"
                    and index.num_keys == lineage.output_size
                    and _is_canonical_inverse(index, lineage._forward.get(key))
                ):
                    manifest[direction][key] = {"kind": "inverse"}
                    continue
                manifest[direction][key] = {"kind": "index", "slot": slot}
                arrays[f"{slot}_offsets"] = index.offsets
                arrays[f"{slot}_values"] = index.values
            else:  # pragma: no cover - finalize() precludes this
                raise LineageError(f"cannot persist entry {key!r}: {index!r}")
    return manifest


def _restore_lineage(manifest: dict, get: Callable[[str], np.ndarray]) -> QueryLineage:
    """Rebuild a :class:`QueryLineage` from a manifest plus an array
    accessor, validating every recovered index structurally."""
    output_size = int(manifest["output_size"])
    lineage = QueryLineage(output_size)
    # Forward first: backward entries persisted as ``inverse`` markers
    # are rebuilt from their direction-mate's group-id array.
    forward_arrays: Dict[str, np.ndarray] = {}
    for direction, putter in (
        ("forward", lineage.put_forward),
        ("backward", lineage.put_backward),
    ):
        for key, entry in manifest[direction].items():
            context = f"recovered {direction} index for {key!r}"
            try:
                if entry["kind"] == "inverse":
                    source = forward_arrays.get(key)
                    if source is None:
                        raise RecoveryError(
                            f"{context}: recorded as the inverse of the "
                            f"forward index, but no forward rid array was "
                            f"recovered for {key!r}"
                        )
                    index = RidIndex.from_group_ids(source, output_size)
                elif entry["kind"] == "array":
                    index = RidArray(get(f"{entry['slot']}_values"))
                else:
                    slot = entry["slot"]
                    index = RidIndex(
                        get(f"{slot}_offsets"), get(f"{slot}_values")
                    )
                sanitize.check_recovered_index(index, context)
            except (LineageError, SanitizeError, ValueError) as exc:
                # ValueError: a damaged group-id array can make the
                # ``inverse`` rebuild's bincount/cumsum blow up.
                raise RecoveryError(f"{context}: {exc}") from exc
            if direction == "backward" and index.num_keys != output_size:
                raise RecoveryError(
                    f"{context}: keyed by {index.num_keys} output rids but "
                    f"the result has {output_size} rows"
                )
            if direction == "forward" and isinstance(index, RidArray):
                forward_arrays[key] = index.values
            putter(key, index)
    for name, keys in manifest["aliases"].items():
        for key in keys:
            lineage.register_alias(name, key)
    # Archives written before the durability subsystem carry no epochs;
    # absent entries degrade to "no stale-rid guard", never to a crash.
    for key, epoch in manifest.get("base_epochs", {}).items():
        lineage.put_base_epoch(key, int(epoch))
    return lineage


# -- standalone lineage archives ------------------------------------------------


def save_lineage(lineage: QueryLineage, path: str) -> None:
    """Write all finalized indexes of ``lineage`` to ``path`` (.npz).

    The write is atomic (temp + fsync + rename): a crash mid-save leaves
    either the previous archive or the complete new one, never a torn
    file."""
    arrays: Dict[str, np.ndarray] = {}
    manifest = _lineage_manifest(lineage, arrays)
    arrays["__manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    durable_atomic_write(path, buf.getvalue())


def load_lineage(path: str) -> QueryLineage:
    """Restore a :class:`QueryLineage` saved by :func:`save_lineage`.

    Round-trips indexes, aliases, and base-relation capture epochs (the
    stale-rid guard).  A damaged archive raises
    :class:`~repro.errors.RecoveryError` instead of leaking ``zipfile``
    internals."""
    try:
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest"].tobytes()).decode())
            return _restore_lineage(manifest, lambda slot: archive[slot])
    except (zipfile.BadZipFile, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"lineage archive {path!r} is damaged or truncated: {exc}"
        ) from exc


# -- result payloads (shared by WAL records and checkpoints) --------------------


def capture_mode_value(options) -> Optional[str]:
    """The capture-mode string of an ``ExecOptions``-like object (``None``
    when capture was off) — what a recovered result's ``options`` report."""
    capture = getattr(options, "capture", None)
    if capture is None:
        return None
    mode = getattr(capture, "mode", capture)
    return getattr(mode, "value", None)


def pack_query_result(result, prefix: str, arrays: Dict[str, np.ndarray]) -> dict:
    """Describe a registered result (output table + lineage) as a
    manifest, depositing payload arrays into ``arrays``.

    String columns are stored as fixed-width unicode (``astype(str)``)
    so the archive never needs pickle; :class:`~repro.storage.table.Table`
    coerces them back to object dtype on load.
    """
    table = result.table
    meta = {
        "nrows": table.num_rows,
        "schema": [[name, ctype.value] for name, ctype in table.schema.fields],
        "columns": {},
        "lineage": None,
    }
    for i, name in enumerate(table.schema.names):
        slot = f"{prefix}col_{i}"
        values = table.column(name)
        if table.schema.type_of(name) is ColumnType.STR:
            values = np.asarray(values, dtype=str)
        arrays[slot] = values
        meta["columns"][name] = slot
    lineage = result.lineage
    if lineage is not None:
        meta["lineage"] = _lineage_manifest(lineage, arrays, prefix=prefix)
    return meta


def unpack_query_result(
    meta: dict, arrays
) -> Tuple[Table, Optional[QueryLineage]]:
    """Rebuild ``(table, lineage)`` from :func:`pack_query_result` output.

    ``arrays`` is any mapping-like array source (a WAL record's arrays
    dict, an open npz archive)."""
    try:
        schema = Schema(
            [(name, ColumnType(value)) for name, value in meta["schema"]]
        )
        columns = {
            name: np.asarray(arrays[slot])
            for name, slot in meta["columns"].items()
        }
        table = Table(columns, schema)
        if table.num_rows != int(meta["nrows"]):
            raise RecoveryError(
                f"recovered table has {table.num_rows} rows, manifest "
                f"says {int(meta['nrows'])}"
            )
        lineage = None
        if meta.get("lineage") is not None:
            lineage = _restore_lineage(
                meta["lineage"], lambda slot: np.asarray(arrays[slot])
            )
            if lineage.output_size != table.num_rows:
                raise RecoveryError(
                    f"recovered lineage covers {lineage.output_size} output "
                    f"rows but the recovered table has {table.num_rows}"
                )
    except (KeyError, ValueError, SchemaError) as exc:
        raise RecoveryError(
            f"result payload is damaged or incomplete: {exc}"
        ) from exc
    return table, lineage


# -- registry checkpoints -------------------------------------------------------


@dataclass
class CheckpointState:
    """A decoded registry snapshot (:func:`read_checkpoint`)."""

    wal_seqno: int
    registry_epochs: Dict[str, int]
    catalog_epochs: Dict[str, int]
    #: Live entries: dicts with name/pin/statement/capture/table/lineage.
    entries: List[dict]


def write_checkpoint(
    path,
    *,
    entries,
    registry_epochs: Dict[str, int],
    catalog_epochs: Dict[str, int],
    wal_seqno: int,
    failpoints: Optional[Failpoints] = None,
) -> None:
    """Write one atomic registry snapshot.

    ``entries`` is a sequence of ``(name, result, pinned)`` triples;
    ``wal_seqno`` is the highest WAL record the snapshot covers — replay
    skips records at or below it, which makes a crash between checkpoint
    write and WAL reset idempotent."""
    arrays: Dict[str, np.ndarray] = {}
    manifest = {
        "version": CHECKPOINT_VERSION,
        "wal_seqno": int(wal_seqno),
        "registry_epochs": {k: int(v) for k, v in registry_epochs.items()},
        "catalog_epochs": {k: int(v) for k, v in catalog_epochs.items()},
        "entries": [],
    }
    for i, (name, result, pinned) in enumerate(entries):
        manifest["entries"].append(
            {
                "name": name,
                "pin": bool(pinned),
                "statement": getattr(result, "statement", None),
                "capture": capture_mode_value(getattr(result, "options", None)),
                "result": pack_query_result(result, f"e{i}_", arrays),
            }
        )
    arrays["__manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    durable_atomic_write(path, buf.getvalue(), failpoints=failpoints)


def read_checkpoint(path) -> CheckpointState:
    """Decode a checkpoint written by :func:`write_checkpoint`."""
    path = Path(path)
    try:
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest"].tobytes()).decode())
            version = int(manifest.get("version", -1))
            if version != CHECKPOINT_VERSION:
                raise RecoveryError(
                    f"checkpoint {path} has format version {version}; "
                    f"this build reads version {CHECKPOINT_VERSION}"
                )
            entries = []
            for entry in manifest["entries"]:
                table, lineage = unpack_query_result(entry["result"], archive)
                entries.append(
                    {
                        "name": entry["name"],
                        "pin": bool(entry.get("pin", False)),
                        "statement": entry.get("statement"),
                        "capture": entry.get("capture"),
                        "table": table,
                        "lineage": lineage,
                    }
                )
            return CheckpointState(
                wal_seqno=int(manifest["wal_seqno"]),
                registry_epochs={
                    k: int(v) for k, v in manifest["registry_epochs"].items()
                },
                catalog_epochs={
                    k: int(v) for k, v in manifest["catalog_epochs"].items()
                },
                entries=entries,
            )
    except RecoveryError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"checkpoint {path} is damaged or truncated: {exc}"
        ) from exc
