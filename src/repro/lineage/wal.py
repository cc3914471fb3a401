"""Write-ahead log for the result registry (durability subsystem).

Registration, re-registration, pin changes, and drops of the
:class:`~repro.api.ResultRegistry` are logged here *before* they touch
in-memory state, so an acknowledged operation is always reconstructible
after a crash (``lineage/recovery.py`` replays the log on
``Database.open``).

Log format
----------
The file starts with an 8-byte magic (:data:`FILE_MAGIC`) followed by
frames::

    <u32 payload length> <u32 crc32> <u64 seqno> <payload bytes>

The checksum covers the seqno bytes plus the payload, so a frame whose
length field survived a torn write but whose body did not still fails
verification.  Payloads are raw-framed: a JSON header (record kind,
scalar metadata, and one descriptor per array) followed by each array's
bytes back to back.  Registration records are megabytes of rid arrays
on the acknowledgment path, so the encoder avoids archive/compression
machinery, checksums and writes the pieces without assembling one
contiguous frame, and narrows wide integer arrays to the smallest width
that holds their range (the descriptor keeps the logical dtype, so
decoding restores bit-identical arrays).

Torn tails vs corruption
------------------------
A crash during ``append`` can only damage the *final* frame.  Replay
therefore truncates an incomplete or checksum-failing final frame as
un-acknowledged work (:func:`read_log` reports it), but a bad frame
*followed by further valid frames* cannot be a torn tail and raises
:class:`~repro.errors.WalCorruptionError` — replay refuses to guess
which side of mid-log damage to trust.

Commit rule
-----------
``append`` flushes and fsyncs before returning (fsync-on-commit); the
in-memory mutation it protects happens only after it returns.  A
:meth:`WriteAheadLog.group_commit` block defers the fsync to block exit
so a burst of registrations pays for one disk barrier.

Failpoints
----------
:class:`Failpoints` is the fault-injection layer the ``tests/faults``
harness arms: each named site (:data:`ALL_FAILPOINTS`) marks one I/O
step of the WAL/checkpoint path, and an armed site raises
:class:`~repro.errors.InjectedFault` there — after writing half a frame
for :data:`WAL_PARTIAL_APPEND`, which is how the tests manufacture torn
tails deterministically.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import DurabilityError, InjectedFault, WalCorruptionError

#: First 8 bytes of every WAL file (format version rides in the name).
FILE_MAGIC = b"RPROWAL1"

#: Frame header: payload length (u32), crc32 (u32), seqno (u64).
FRAME_HEADER = struct.Struct("<IIQ")

#: Upper bound on one record's payload — a length field beyond this is
#: treated as frame damage, not an instruction to read gigabytes.
MAX_RECORD_BYTES = 1 << 31

# -- failpoint sites (the fault-injection matrix) -------------------------------

WAL_BEFORE_APPEND = "wal.before-append"
WAL_BEFORE_FSYNC = "wal.before-fsync"
WAL_PARTIAL_APPEND = "wal.partial-append"
CHECKPOINT_PARTIAL_WRITE = "checkpoint.partial-write"
CHECKPOINT_BEFORE_RENAME = "checkpoint.before-rename"
CHECKPOINT_BEFORE_WAL_RESET = "checkpoint.before-wal-reset"

ALL_FAILPOINTS: Tuple[str, ...] = (
    WAL_BEFORE_APPEND,
    WAL_BEFORE_FSYNC,
    WAL_PARTIAL_APPEND,
    CHECKPOINT_PARTIAL_WRITE,
    CHECKPOINT_BEFORE_RENAME,
    CHECKPOINT_BEFORE_WAL_RESET,
)


class Failpoints:
    """Named crash sites over the durable I/O paths (tests/faults API).

    ``arm(site)`` schedules one :class:`~repro.errors.InjectedFault` at
    the next visit of ``site``; the production code calls :meth:`hit`
    (raise-if-armed) or :meth:`take` (consume-and-report, for sites that
    perform partial work before raising).  Sites are one-shot: firing
    disarms, so recovery code re-running the same path does not crash
    forever.  All methods are no-ops when nothing is armed — the
    production cost is one set lookup per I/O step.
    """

    def __init__(self) -> None:
        self._armed: Set[str] = set()

    def arm(self, site: str) -> None:
        if site not in ALL_FAILPOINTS:
            raise DurabilityError(
                f"unknown failpoint {site!r}; known: {sorted(ALL_FAILPOINTS)}"
            )
        self._armed.add(site)

    def disarm(self, site: str) -> None:
        self._armed.discard(site)

    def clear(self) -> None:
        self._armed.clear()

    def armed(self, site: str) -> bool:
        return site in self._armed

    def take(self, site: str) -> bool:
        """Consume an armed site; the caller performs the partial work
        and raises :class:`InjectedFault` itself."""
        if site in self._armed:
            self._armed.discard(site)
            return True
        return False

    def hit(self, site: str) -> None:
        """Raise :class:`InjectedFault` when ``site`` is armed."""
        if self.take(site):
            raise InjectedFault(site)


#: Shared no-op instance for durable writers running without injection.
_NO_FAILPOINTS = Failpoints()


# -- durable I/O helpers (the only sanctioned writers: lint rule RPR007) --------


def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(str(path), os.O_RDONLY)  # repro: noqa RPR007 -- the directory-fsync half of the durable-write protocol
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_atomic_write(
    path, data: bytes, failpoints: Optional[Failpoints] = None
) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, flush + fsync, ``os.replace``, directory fsync.

    A crash at any step leaves either the old file intact or the new one
    complete — never a torn target.  ``failpoints`` arms the
    checkpoint-path injection sites (:data:`CHECKPOINT_PARTIAL_WRITE`
    writes half the bytes then raises; :data:`CHECKPOINT_BEFORE_RENAME`
    raises after the durable temp write, before the rename)."""
    failpoints = failpoints if failpoints is not None else _NO_FAILPOINTS
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    handle = open(tmp, "wb")  # repro: noqa RPR007 -- this helper IS the durable-write protocol (temp + fsync + replace)
    try:
        if failpoints.take(CHECKPOINT_PARTIAL_WRITE):
            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise InjectedFault(CHECKPOINT_PARTIAL_WRITE)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()
    failpoints.hit(CHECKPOINT_BEFORE_RENAME)
    os.replace(tmp, path)
    fsync_directory(path.parent)


def durable_open_append(path):
    """Open ``path`` for appending on behalf of the WAL (the caller owns
    flush/fsync discipline — see :meth:`WriteAheadLog.append`)."""
    return open(path, "ab")  # repro: noqa RPR007 -- WAL append handle; every append fsyncs before acknowledging


def durable_truncate(path, length: int) -> None:
    """Truncate ``path`` to ``length`` bytes and fsync (torn-tail
    removal on replay)."""
    handle = open(path, "r+b")  # repro: noqa RPR007 -- torn-tail truncation, fsynced before returning
    try:
        handle.truncate(length)
        handle.flush()
        os.fsync(handle.fileno())
    finally:
        handle.close()


# -- record packing -------------------------------------------------------------


@dataclass
class WalRecord:
    """One decoded log record."""

    seqno: int
    kind: str
    meta: dict
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


#: Prefix of the payload header: JSON header length (u32).
_HEADER_LEN = struct.Struct("<I")

#: Narrowing ladder for wide integer arrays (stored width < logical width).
_NARROW_CANDIDATES = (np.int8, np.int16, np.int32)

#: Below this many elements a min/max scan costs more than it saves.
_NARROW_MIN_ELEMENTS = 1024

#: Codec name for the split-byte encoding of int64 values in [0, 512):
#: one low byte per value followed by the ninth bits via ``np.packbits``
#: (1.125 bytes/value — group-id rid arrays usually land here).
_CODEC_SPLIT9 = "u8c1"


def _stored_array(values: np.ndarray) -> Tuple[str, np.ndarray]:
    """``(codec, contiguous array)`` actually written for ``values``.

    int64 arrays — rid payloads, megabytes per registration — shrink to
    the smallest encoding that holds their range (a narrower integer
    dtype's ``dtype.str``, or :data:`_CODEC_SPLIT9`); the descriptor
    records the logical dtype so decoding widens back bit-identically.
    """
    values = np.ascontiguousarray(values)
    if values.dtype == np.int64 and values.size >= _NARROW_MIN_ELEMENTS:
        low, high = values.min(), values.max()
        if 0 <= low and high < 512:
            if high < 256:
                return "|u1", values.astype(np.uint8)
            flat = values.ravel()
            packed = np.empty(
                flat.size + (flat.size + 7) // 8, dtype=np.uint8
            )
            packed[: flat.size] = flat.astype(np.uint8)  # == & 0xFF: 0 <= v < 512
            packed[flat.size :] = np.packbits(flat >= 256)
            return _CODEC_SPLIT9, packed
        for candidate in _NARROW_CANDIDATES:
            info = np.iinfo(candidate)
            if info.min <= low and high <= info.max:
                return np.dtype(candidate).str, values.astype(candidate)
    return values.dtype.str, values


def _decode_array(
    payload: bytes, offset: int, codec: str, logical: str, shape
) -> Tuple[np.ndarray, int]:
    """Decode one array from ``payload`` at ``offset``; returns the
    array (logical dtype, writable) and the bytes consumed."""
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    logical_dtype = np.dtype(logical)
    if codec == _CODEC_SPLIT9:
        nbytes = count + (count + 7) // 8
        raw = np.frombuffer(payload, dtype=np.uint8, count=nbytes, offset=offset)
        carry = np.unpackbits(raw[count:], count=count).astype(np.int64)
        decoded = raw[:count].astype(np.int64) + (carry << 8)
    else:
        stored_dtype = np.dtype(codec)
        decoded = np.frombuffer(
            payload, dtype=stored_dtype, count=count, offset=offset
        )
        nbytes = decoded.nbytes
        if logical_dtype == stored_dtype:
            decoded = decoded.copy()  # frombuffer views are read-only
    return decoded.astype(logical_dtype, copy=False).reshape(shape), nbytes


def _encode_chunks(
    kind: str, meta: dict, arrays: Optional[Dict[str, np.ndarray]]
) -> List[memoryview]:
    """Encode one record as buffer chunks (header prefix, JSON header,
    then each array's raw bytes) ready to checksum and write in order."""
    descriptors = []
    body: List[memoryview] = []
    for name, values in (arrays or {}).items():
        codec, stored = _stored_array(values)
        descriptors.append(
            [name, codec, values.dtype.str, list(values.shape)]
        )
        try:
            view = memoryview(stored).cast("B")
        except TypeError:  # non-byte-addressable dtypes (e.g. unicode)
            view = memoryview(stored.tobytes())
        body.append(view)
    header = json.dumps(
        {"__kind": kind, "meta": meta, "arrays": descriptors}
    ).encode()
    return [
        memoryview(_HEADER_LEN.pack(len(header))),
        memoryview(header),
        *body,
    ]


def unpack_record(payload: bytes, seqno: int) -> WalRecord:
    """Decode one checksum-verified payload back into a :class:`WalRecord`."""
    try:
        (header_len,) = _HEADER_LEN.unpack_from(payload, 0)
        header = json.loads(
            payload[_HEADER_LEN.size : _HEADER_LEN.size + header_len].decode()
        )
        kind = header["__kind"]
        meta = header["meta"]
        arrays: Dict[str, np.ndarray] = {}
        offset = _HEADER_LEN.size + header_len
        for name, codec, logical_str, shape in header["arrays"]:
            decoded, nbytes = _decode_array(
                payload, offset, codec, logical_str, shape
            )
            offset += nbytes
            arrays[name] = decoded
        if offset != len(payload):
            raise WalCorruptionError(
                f"WAL record at seqno {seqno} carries "
                f"{len(payload) - offset} trailing bytes after its last array"
            )
    except (OSError, ValueError, KeyError, TypeError, struct.error,
            json.JSONDecodeError) as exc:
        raise WalCorruptionError(
            f"WAL record at seqno {seqno} passed its checksum but failed "
            f"to decode: {exc}"
        ) from exc
    if not isinstance(kind, str):
        raise WalCorruptionError(
            f"WAL record at seqno {seqno} carries no record kind"
        )
    return WalRecord(seqno=seqno, kind=kind, meta=meta, arrays=arrays)


@dataclass
class LogScan:
    """Result of scanning a WAL file (:func:`read_log`)."""

    records: List[WalRecord]
    valid_length: int  #: bytes up to and including the last intact frame
    total_length: int  #: bytes present on disk

    @property
    def torn(self) -> bool:
        """True when a torn tail follows the last intact frame."""
        return self.valid_length < self.total_length


def read_log(path) -> LogScan:
    """Scan a WAL file, verifying every frame.

    A missing file scans as empty (a fresh database).  Torn tails — an
    incomplete final frame, or a complete final frame failing its
    checksum — are reported via :attr:`LogScan.torn` for the caller to
    truncate, never raised.  Damage *before* the final frame raises
    :class:`WalCorruptionError`.
    """
    path = Path(path)
    if not path.exists():
        return LogScan([], 0, 0)
    data = path.read_bytes()
    if not data.startswith(FILE_MAGIC):
        raise WalCorruptionError(
            f"{path} does not start with the WAL magic "
            f"({data[:8]!r} != {FILE_MAGIC!r})"
        )
    records: List[WalRecord] = []
    offset = len(FILE_MAGIC)
    total = len(data)
    while offset < total:
        if offset + FRAME_HEADER.size > total:
            return LogScan(records, offset, total)  # torn header
        length, crc, seqno = FRAME_HEADER.unpack_from(data, offset)
        end = offset + FRAME_HEADER.size + length
        if length > MAX_RECORD_BYTES or end > total:
            return LogScan(records, offset, total)  # torn body
        payload = data[offset + FRAME_HEADER.size : end]
        if zlib.crc32(seqno.to_bytes(8, "little") + payload) != crc:
            if end == total:
                return LogScan(records, offset, total)  # torn final frame
            raise WalCorruptionError(
                f"{path}: record at byte {offset} (seqno {seqno}) failed "
                "its checksum but is followed by further frames — the log "
                "is damaged mid-file, not torn by a crash"
            )
        records.append(unpack_record(payload, seqno))
        offset = end
    return LogScan(records, offset, total)


class WriteAheadLog:
    """Append-only, checksummed, fsync-on-commit record log.

    ``next_seqno`` continues a recovered sequence — seqnos increase
    monotonically across :meth:`reset` (checkpoints record the watermark
    they cover, so replay can skip already-checkpointed records even
    when a crash preserved both the checkpoint and the full log).

    Thread-safety: the serving layer funnels all mutations through one
    writer thread, which is the primary serialization.  Appends and the
    group-commit depth are additionally guarded by a re-entrant lock as
    a defensive backstop, so two threads that *do* append concurrently
    interleave whole frames (never torn ones).  A ``group_commit`` block
    amortizes fsyncs for its own thread's appends; it is not a
    cross-thread transaction.
    """

    def __init__(
        self,
        path,
        failpoints: Optional[Failpoints] = None,
        next_seqno: int = 1,
    ):
        self.path = Path(path)
        self.failpoints = failpoints if failpoints is not None else Failpoints()
        if not self.path.exists():
            durable_atomic_write(self.path, FILE_MAGIC)
        self._file = durable_open_append(self.path)
        self._next_seqno = int(next_seqno)
        self._group_depth = 0
        self._pending_sync = False
        self._poisoned = False
        self._lock = threading.RLock()

    @property
    def last_seqno(self) -> int:
        """Highest sequence number acknowledged so far (0 = none)."""
        return self._next_seqno - 1

    def append(self, kind: str, meta: dict, arrays=None) -> int:
        """Frame, write, flush, and fsync one record; returns its seqno.

        The caller mutates in-memory state only after this returns —
        that ordering is the whole durability contract.  Inside a
        :meth:`group_commit` block the fsync is deferred to block exit.
        """
        chunks = _encode_chunks(kind, meta, arrays)
        payload_len = sum(chunk.nbytes for chunk in chunks)
        if payload_len > MAX_RECORD_BYTES:
            raise DurabilityError(
                f"WAL record of {payload_len} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte frame limit"
            )
        with self._lock:
            if self._file is None:
                raise DurabilityError("write-ahead log is closed")
            if self._poisoned:
                raise DurabilityError(
                    "write-ahead log took an injected torn write; the harness "
                    "must reopen (recover) instead of appending further"
                )
            seqno = self._next_seqno
            crc = zlib.crc32(seqno.to_bytes(8, "little"))
            for chunk in chunks:
                crc = zlib.crc32(chunk, crc)
            header = FRAME_HEADER.pack(payload_len, crc, seqno)
            self.failpoints.hit(WAL_BEFORE_APPEND)
            if self.failpoints.take(WAL_PARTIAL_APPEND):
                # Simulate a crash mid-write: half the frame reaches disk.
                frame = header + b"".join(chunks)
                self._file.write(frame[: max(1, len(frame) // 2)])
                self._file.flush()
                os.fsync(self._file.fileno())
                self._poisoned = True
                raise InjectedFault(WAL_PARTIAL_APPEND)
            self._file.write(header)
            for chunk in chunks:
                self._file.write(chunk)
            self._next_seqno = seqno + 1
            if self._group_depth:
                self._pending_sync = True
            else:
                self._commit()
        return seqno

    def _commit(self) -> None:
        self._file.flush()
        self.failpoints.hit(WAL_BEFORE_FSYNC)
        os.fsync(self._file.fileno())

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Batch appends under one fsync (amortized commit barrier).

        Records inside the block are acknowledged *at block exit*; the
        durability contract holds for the batch as a unit."""
        with self._lock:
            self._group_depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._group_depth -= 1
                if self._group_depth == 0 and self._pending_sync:
                    self._pending_sync = False
                    self._commit()

    def reset(self) -> None:
        """Atomically replace the log with an empty one (post-checkpoint).

        Seqnos keep increasing; the checkpoint's recorded watermark makes
        a crash *between* checkpoint write and this reset idempotent on
        replay."""
        with self._lock:
            self._file.close()
            durable_atomic_write(self.path, FILE_MAGIC)
            self._file = durable_open_append(self.path)
            self._poisoned = False

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
