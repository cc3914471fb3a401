"""Figure 7: many-to-many join capture latency (rid-array resizing costs).

A highly skewed self-join ``zipf1.z = zipf2.z`` whose output approaches a
cross product.  As in the paper, the join output is *not* materialized —
doing so would drown instrumentation costs — so this experiment drives the
probe/capture kernels directly and compares:

* **Smoke-I** — all indexes populated during the probe phase (growable
  buckets, resize-heavy under skew),
* **Smoke-D-DeferForw** — only the left forward index deferred,
* **Smoke-D** — left forward and backward construction deferred to an
  exact-allocation pass after the probe.

Expected shape: Defer variants beat Inject, more so with fewer left
groups (more skew → more resizing).
"""

from __future__ import annotations

from typing import List, Tuple

from ...datagen import make_zipf_table
from ...exec.vector.join import compute_matches, join_lineage_locals
from ...lineage.capture import CaptureConfig
from ...storage.table import Table
from ..harness import Report, fmt_ms, scaled, time_median

NAME = "fig07"
TITLE = "Figure 7: m:n join capture latency (no output materialization)"

TECHNIQUES = ["smoke-i", "smoke-d-deferforw", "smoke-d"]

LEFT_ROWS = 1_000


def sizes() -> List[Tuple[int, int]]:
    return [
        (10, scaled(10_000)),
        (10, scaled(50_000)),
        (100, scaled(10_000)),
        (100, scaled(50_000)),
    ]


def make_tables(left_groups: int, right_rows: int) -> Tuple[Table, Table]:
    left = make_zipf_table(LEFT_ROWS, left_groups, theta=1.0, seed=1)
    right = make_zipf_table(right_rows, 100, theta=1.0, seed=2)
    return left, right


def capture(left: Table, right: Table, technique: str) -> int:
    """Probe + lineage capture without materializing join output.

    Returns the number of output rows (for sanity reporting).
    """
    matches = compute_matches([left.column("z")], [right.column("z")])
    if technique == "smoke-i":
        # Inject populates the forward index while probing — the paper's
        # resize-prone path, run under tuple-append emulation so the
        # growth policy's cost is visible.
        config = CaptureConfig.inject()
        config.emulate_tuple_appends = True
    elif technique == "smoke-d-deferforw":
        config = CaptureConfig.inject()
        config.defer_forward_only = True
    else:
        config = CaptureConfig.defer()
    l_bw, l_fw, r_bw, r_fw = join_lineage_locals(matches, config, pkfk=False)
    # Deferred thunks are finalized as part of capture accounting, as the
    # paper includes Defer's post-probe pass in Figure 7's latency.
    if callable(l_fw):
        l_fw = l_fw()
    return matches.num_out


def run_report(repeats: int = 3) -> Report:
    report = Report(
        TITLE, ["left groups", "right tuples", "output rows", "technique", "latency"]
    )
    for left_groups, right_rows in sizes():
        left, right = make_tables(left_groups, right_rows)
        n_out = compute_matches([left.column("z")], [right.column("z")]).num_out
        for technique in TECHNIQUES:
            secs = time_median(
                lambda t=technique: capture(left, right, t), repeats
            )
            report.add(left_groups, right_rows, n_out, technique, fmt_ms(secs))
    report.note("paper shape: smoke-d <= smoke-d-deferforw <= smoke-i (resizing)")
    return report
