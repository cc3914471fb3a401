"""Data skipping via partitioned rid arrays (paper Section 4.2).

Interactive filters use *parameterized* predicates (``l_shipmode = :p1``):
the attribute is known at capture time, the value at interaction time.
Smoke pushes these into capture by partitioning every backward-index rid
array on the predicate attributes, so a lineage consuming query reads only
the partition matching the bound parameters instead of scanning the whole
bucket.

:class:`AttributePartitioner` dictionary-encodes the attribute
combinations of a base relation; :class:`PartitionedRidIndex` stores each
output bucket's rids grouped by partition code with per-(bucket, code)
offsets — the rid-array partitioning of the paper, in CSR form.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import LineageError
from ..exec.vector.kernels import factorize
from ..lineage.indexes import LineageIndex
from ..storage.table import Table


class AttributePartitioner:
    """Dictionary encoding of one or more partition attributes."""

    def __init__(self, table: Table, attributes: Sequence[str]):
        self.attributes = tuple(attributes)
        arrays = [table.column(a) for a in self.attributes]
        codes, num_codes, reps, _ = factorize(arrays)
        self.codes = codes
        self.num_codes = num_codes
        self._value_to_code: Dict[Tuple, int] = {}
        for code, rep in enumerate(reps):
            key = tuple(arr[rep] for arr in arrays)
            self._value_to_code[key] = code

    def code_of(self, values: Sequence) -> Optional[int]:
        """Partition code for a bound parameter combination, or ``None``
        if the combination never occurs (empty result)."""
        return self._value_to_code.get(tuple(values))

    def combinations(self):
        """All occurring value combinations (used by parameter sweeps)."""
        return list(self._value_to_code)


class BinnedPartitioner:
    """Equal-width discretization of one *continuous* attribute.

    The paper notes data skipping "is applicable to categorical attributes
    and continuous attributes that can be discretized", because user-facing
    output is ultimately discretized at pixel granularity.  Bins are
    ordered, so range predicates (sliders, zooms: ``attr < :p``) map to a
    *contiguous* run of partition codes — one slice of the partitioned rid
    array plus a residual filter on the boundary bin.
    """

    def __init__(self, table: Table, attribute: str, num_bins: int):
        if num_bins < 1:
            raise LineageError("num_bins must be >= 1")
        self.attributes = (attribute,)
        values = np.asarray(table.column(attribute), dtype=np.float64)
        self.num_codes = num_bins
        if values.size == 0:
            self.lo, self.hi = 0.0, 1.0
        else:
            self.lo = float(values.min())
            self.hi = float(values.max())
        width = (self.hi - self.lo) or 1.0
        codes = ((values - self.lo) / width * num_bins).astype(np.int64)
        self.codes = np.clip(codes, 0, num_bins - 1)

    def bin_of(self, value: float) -> int:
        """Bin index of a query constant (clamped to the domain)."""
        width = (self.hi - self.lo) or 1.0
        code = int((float(value) - self.lo) / width * self.num_codes)
        return max(0, min(self.num_codes - 1, code))

    def code_of(self, values: Sequence) -> Optional[int]:
        return self.bin_of(values[0])


class PartitionedRidIndex:
    """A backward rid index whose buckets are partitioned by attribute.

    Layout: ``values`` holds each output bucket's rids contiguously,
    ordered by partition code within the bucket; ``sub_offsets`` has
    ``num_keys * num_codes + 1`` entries delimiting each (bucket, code)
    cell.
    """

    def __init__(self, backward: LineageIndex, partitioner: AttributePartitioner):
        offsets, values = backward.as_csr()
        self.num_keys = len(offsets) - 1
        self.partitioner = partitioner
        num_codes = partitioner.num_codes
        counts = np.diff(offsets)
        bucket_of_edge = np.repeat(
            np.arange(self.num_keys, dtype=np.int64), counts
        )
        edge_codes = partitioner.codes[values] if values.size else values
        combined = bucket_of_edge * num_codes + edge_codes
        order = np.argsort(combined, kind="stable")
        self.values = values[order]
        cell_counts = np.bincount(combined, minlength=self.num_keys * num_codes)
        self.sub_offsets = np.empty(self.num_keys * num_codes + 1, dtype=np.int64)
        self.sub_offsets[0] = 0
        np.cumsum(cell_counts, out=self.sub_offsets[1:])

    def lookup_code(self, out_rid: int, code: int) -> np.ndarray:
        if not 0 <= out_rid < self.num_keys:
            raise LineageError(f"rid {out_rid} out of range [0, {self.num_keys})")
        num_codes = self.partitioner.num_codes
        if not 0 <= code < num_codes:
            raise LineageError(f"partition code {code} out of range")
        cell = out_rid * num_codes + code
        return self.values[self.sub_offsets[cell] : self.sub_offsets[cell + 1]]

    def lookup(self, out_rid: int, values: Sequence) -> np.ndarray:
        """Rids of ``out_rid``'s lineage matching the bound parameters —
        reads exactly one partition, skipping the rest of the bucket."""
        code = self.partitioner.code_of(values)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return self.lookup_code(out_rid, code)

    def lookup_full(self, out_rid: int) -> np.ndarray:
        """The whole bucket (all partitions) — for non-filtered queries."""
        num_codes = self.partitioner.num_codes
        lo = self.sub_offsets[out_rid * num_codes]
        hi = self.sub_offsets[(out_rid + 1) * num_codes]
        return self.values[lo:hi]

    def lookup_code_range(self, out_rid: int, lo_code: int, hi_code: int) -> np.ndarray:
        """Rids whose partition code lies in ``[lo_code, hi_code]``.

        Codes of one bucket are stored contiguously in code order, so a
        range predicate over a binned continuous attribute reads exactly
        one slice — the slider/zoom case of Section 4.2.
        """
        num_codes = self.partitioner.num_codes
        if not 0 <= out_rid < self.num_keys:
            raise LineageError(f"rid {out_rid} out of range [0, {self.num_keys})")
        lo_code = max(0, lo_code)
        hi_code = min(num_codes - 1, hi_code)
        if lo_code > hi_code:
            return self.values[:0]
        lo = self.sub_offsets[out_rid * num_codes + lo_code]
        hi = self.sub_offsets[out_rid * num_codes + hi_code + 1]
        return self.values[lo:hi]

    def memory_bytes(self) -> int:
        return int(self.values.nbytes + self.sub_offsets.nbytes)
