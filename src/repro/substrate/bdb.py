"""A BerkeleyDB-like external key/value store (the Phys-Bdb substrate).

The paper's Phys-Bdb baseline stores each lineage edge in BerkeleyDB
(in-memory, B-tree access method) and shows that crossing into an external
subsystem per edge slows capture by up to 250x.  We cannot ship BerkeleyDB,
so this module reproduces the *costs that experiment measures*:

* one API call per stored edge (no batching),
* key/value serialization to bytes on every put/get (BDB stores byte
  strings; we use fixed-width big-endian encodings so keys sort correctly),
* a B-tree index (:mod:`repro.substrate.btree`),
* cursor-based duplicate iteration for reads, which the paper found faster
  than bulk fetches for this workload.

This pure-Python store stands in for BerkeleyDB, which we cannot ship.
"""

from __future__ import annotations

import struct
from typing import Iterator, List

from .btree import BTree

_KEY = struct.Struct(">q")


class BerkeleyDBSim:
    """An "external" store: serialize-per-call KV API over a B-tree."""

    def __init__(self):
        self._tree = BTree()

    def __len__(self) -> int:
        return len(self._tree)

    def put(self, key: int, value: int) -> None:
        """Store one duplicate entry under ``key`` (one lineage edge)."""
        self._tree.insert(_KEY.pack(key), _KEY.pack(value))

    def get_bulk(self, key: int) -> List[int]:
        """Fetch all duplicates in one call (allocates the result list)."""
        packed = _KEY.pack(key)
        return [_KEY.unpack(v)[0] for v in self._tree.iter_duplicates(packed)]

    def cursor(self, key: int) -> Iterator[int]:
        """Iterate duplicates one call at a time (the paper's faster path)."""
        packed = _KEY.pack(key)
        for k, v in self._tree.scan_from(packed):
            if k != packed:
                break
            yield _KEY.unpack(v)[0]

    def keys(self) -> Iterator[int]:
        seen = None
        for k, _ in self._tree.scan_all():
            if k != seen:
                seen = k
                yield _KEY.unpack(k)[0]
