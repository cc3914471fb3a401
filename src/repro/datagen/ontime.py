"""Synthetic Ontime flight dataset (stands in for the real BTS data).

The paper's crossfilter study uses the BTS on-time performance dataset
(123.5M rows) with four group-by COUNT views: ``<lat, lon>`` (65,536
possible bins, sparse), ``<date>`` (7,762 bins), ``<departure delay>``
(8 bins), and ``<carrier>`` (29 bins), for ≈8,100 non-empty bins overall.

This generator reproduces those structural properties at configurable row
counts: ~300 airport locations (so the 256×256 lat/lon grid stays sparse
like real airports do), 7,762 consecutive days, 8 delay bins, and 29
carriers, each with zipfian popularity so that bar selectivities span the
orders of magnitude the per-interaction latencies (Figure 14) depend on.
"""

from __future__ import annotations

import numpy as np

from ..storage.table import Table
from ..substrate.zipf import sample_zipf

NUM_DAYS = 7_762
NUM_DELAY_BINS = 8
NUM_CARRIERS = 29
NUM_AIRPORTS = 301
GRID = 256  # lat/lon each binned to 256 cells → 65,536 possible bins


def make_ontime_table(n: int = 500_000, seed: int = 7, payload_cols: int = 0) -> Table:
    """Synthetic flights table with the four crossfilter dimensions.

    ``payload_cols`` appends that many non-dimension columns
    (``payload0`` ...), modelling the real BTS records — which carry
    ~110 fields per row, not just the brushed dimensions.  Benchmarks
    that measure materialization width (the late-materializing
    lineage-scan suite) use this; it defaults to 0 so the
    dimension-only datasets of the other figures are unchanged.
    """
    rng = np.random.default_rng(seed)
    airports = rng.choice(GRID * GRID, size=NUM_AIRPORTS, replace=False)
    airport_of_flight = airports[sample_zipf(n, NUM_AIRPORTS, 1.0, rng)]
    latlon_bin = airport_of_flight.astype(np.int64)
    columns = {
        "latlon_bin": latlon_bin,
        "lat_bin": latlon_bin // GRID,
        "lon_bin": latlon_bin % GRID,
        "date_bin": sample_zipf(n, NUM_DAYS, 0.2, rng),
        "delay_bin": sample_zipf(n, NUM_DELAY_BINS, 1.2, rng),
        "carrier": sample_zipf(n, NUM_CARRIERS, 0.8, rng),
    }
    for i in range(payload_cols):
        columns[f"payload{i}"] = rng.integers(0, 10_000, n, dtype=np.int64)
    return Table(columns)


#: The four crossfilter view dimensions (paper Section 6.5.1).
VIEW_DIMENSIONS = ("latlon_bin", "date_bin", "delay_bin", "carrier")
