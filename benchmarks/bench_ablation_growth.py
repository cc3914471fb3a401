"""Ablation: rid-array growth policy vs exact pre-allocation.

The paper analyzes two capture-side design choices:

1. the 10-element / 1.5x growable-array policy (Inject's write path) vs
   exact allocation from known cardinalities (Defer / Smoke-I-TC) — the
   paper attributes most capture overhead to resizing;
2. the P4 reuse path (the aggregation's own sorted layout *is* the
   backward index) vs rebuilding the index with appends.

This module isolates both choices on the index structures alone, without
query execution noise, and additionally sweeps the growth factor to show
why 1.5x (and not, say, 1.05x) is the right trade-off.
"""

import numpy as np
import pytest

from conftest import ROUNDS

from repro.bench.harness import scaled
from repro.exec.vector.groupby import inject_backward_index
from repro.lineage.indexes import GrowableRidIndex, RidIndex
from repro.storage.growable import GrowableRidVector


@pytest.fixture(scope="module")
def group_ids():
    rng = np.random.default_rng(3)
    from repro.substrate.zipf import sample_zipf

    return sample_zipf(scaled(200_000), 1_000, 1.0, rng), 1_000


def test_ablation_exact_allocation(benchmark, group_ids):
    """Defer-style: counts known, one counting sort, zero resizes."""
    ids, groups = group_ids
    benchmark.pedantic(
        lambda: RidIndex.from_group_ids(ids, groups), **ROUNDS
    )


def test_ablation_growable_appends(benchmark, group_ids):
    """Inject-style: chunked appends through the 10/1.5x growth policy."""
    ids, groups = group_ids
    benchmark.pedantic(
        lambda: inject_backward_index(ids, groups, chunk_size=1 << 16), **ROUNDS
    )


def test_ablation_growable_with_capacities(benchmark, group_ids):
    """Inject + exact capacities (Smoke-I-TC): appends, but no resizes."""
    ids, groups = group_ids
    counts = np.bincount(ids, minlength=groups).astype(np.int64)
    benchmark.pedantic(
        lambda: inject_backward_index(
            ids, groups, chunk_size=1 << 16, capacities=counts
        ),
        **ROUNDS,
    )


@pytest.mark.parametrize("rows", [1_000, 100_000])
def test_ablation_single_vector_growth(benchmark, rows):
    """Pure growth-policy cost for one bucket (no chunking, no sorting)."""

    def run():
        vec = GrowableRidVector()
        vec.extend(np.arange(rows, dtype=np.int64))
        return vec.resize_count

    benchmark.pedantic(run, **ROUNDS)


def test_growth_policy_resize_counts():
    """Documents the resize math: 1.5x keeps resizes logarithmic."""
    vec = GrowableRidVector()
    for i in range(200_000):
        vec.append(i)
    assert vec.resize_count < 30
    # Exact pre-allocation removes them entirely (the TC effect).
    sized = GrowableRidVector(capacity=200_000)
    sized.extend(np.arange(200_000))
    assert sized.resize_count == 0
