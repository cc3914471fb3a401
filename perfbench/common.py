"""Shared pieces of perfbench: the declared metric set, environment
guards, seeded op-sequence helpers and the small statistics the
workloads report.

Everything here is deterministic given a seed; nothing here times the
engine.  Importing this module makes ``repro`` importable from a plain
checkout (``python3 perfbench/run.py`` is run without ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

_SRC = ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Closed-loop client threads of ``serve_mixed`` (every other workload
#: has one client).  A fixed constant, not ``nproc``: results from boxes
#: with more cores stay comparable; a box with fewer is refused.
CLIENT_THREADS = 2

#: Environment overrides that change what the engine executes.  A result
#: measured under one of them is not comparable, so the run is refused.
FORBIDDEN_ENV = ("REPRO_PARALLEL", "REPRO_SANITIZE", "REPRO_MORSEL_SIZE")

#: A traced run first makes the untraced run's full pass (the demoted
#: end-to-end numbers come from it), then replays this share of the same
#: ops under the span recorder and the per-op decomposition calls.
TRACE_REPLAY_SHARE = 0.3

#: Untimed warm-up ops before every pass, as a share of the workload's
#: timed op count.  The replay has the same warm-up as the full pass, so
#: it times a prefix of the same ops.
WARMUP_SHARE = 0.08

#: Untimed oracle check cadence of the untraced run (every op is checked
#: in a traced run).
CHECK_EVERY = 16

#: Ops per block of a seeded sequence; each block holds one balanced
#: :func:`window_design` per view.
BLOCK = 64

#: ISSUE 11 names each workload's end-to-end numbers after what its op
#: is; the driver gates one metric set on every workload, so
#: ``BENCHMARK.json`` declares the generic names.  Declared name -> ISSUE
#: 11's name, per workload; printed beside every value and by
#: ``compare.py``.  (The ISSUE's other end-to-end numbers keep their names
#: as per-layer metrics: ``brush_ms_p95``, ``refresh_ms_p50``,
#: ``capture_overhead_x``, ``recover_s``, ``lineage_bytes_per_input_row``,
#: ``wal_bytes_per_lineage_byte``.)
_BRUSH = {"op_ms_p50": "brush_ms_p50", "ops_per_s": "brushes_per_s"}
ISSUE_NAMES = {
    "xf_brush": _BRUSH,
    "xf_brush_join": _BRUSH,
    "serve_mixed": _BRUSH,
    "capture": {"op_ms_p50": "capture_ms_p50"},
    "durable": {"op_ms_p50": "register_ms_p50"},
}

#: Per-layer metrics that are counts or byte sizes fully determined by the
#: seed: two runs of one seed must agree bit for bit (the smoke test
#: asserts it, ``compare.py`` checks it on traced records).
#: ``BENCHMARK.json`` has no key to say so for a per-layer metric, so this
#: is the one place that does.
EXACT_METRICS = frozenset(
    {
        "lineage_bytes_per_input_row",
        "wal_bytes_per_lineage_byte",
        "plan.pushed_subtrees",
        "plan.fallback_ratio",
        "lineage.indexes.backward_rids",
        "lineage.indexes.memory_bytes",
        "lineage.cache.hit_ratio",
        "lineage.cache.entries",
        "exec.late_mat.chain_hops",
        "exec.late_mat.build_swaps",
        "exec.late_mat.pkfk_detected",
        "exec.morsel.tasks",
        "lineage.wal.bytes_per_register",
        "lineage.wal.fsyncs_per_register",
        "lineage.wal.fsyncs_per_burst",
        "lineage.persist.checkpoint_bytes",
        "lineage.recovery.records_replayed",
        "serve.versions_published",
    }
    | {
        f"lineage.capture.{q}.memory_bytes"
        for q in (
            "view_latlon", "view_date", "view_delay", "view_carrier",
            "tpch_q1", "tpch_q3", "tpch_q10", "tpch_q12",
        )
    }
)


class BenchError(Exception):
    """The run cannot produce a comparable result (bad environment, bad
    arguments).  Raised before anything is measured; ``run.py`` exits 2."""


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one declaration of workloads and metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_environment(threads: int) -> None:
    """Refuse to run where the result would not be comparable."""
    overridden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if overridden:
        raise BenchError(
            f"{', '.join(overridden)} set: perfbench runs serial, unsanitized, "
            "default morsel size only; unset and re-run"
        )
    nproc = os.cpu_count() or 1
    if nproc < threads:
        raise BenchError(
            f"workload needs {threads} client threads but nproc is {nproc}"
        )


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment_block(seed: int, threads: int, info: dict) -> dict:
    """What a reader needs to decide whether two results are comparable."""
    return {
        "commit": _commit(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "client_threads": threads,
        "backend": "vector",
        "parallel": "serial",
        "repro_scale": "ignored",
        **info,
    }


# -- statistics -------------------------------------------------------------


def p50(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def p95(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 95))


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies_ms) -> dict:
    """The end-to-end latency metrics of a single-client closed loop whose
    timed ops took ``latencies_ms``."""
    return {
        "op_ms_p50": p50(latencies_ms),
        "ops_per_s": len(latencies_ms) / (float(np.sum(latencies_ms)) / 1e3),
        "_samples": len(latencies_ms),
    }


# -- seeded sequences ---------------------------------------------------------


def window_design(rng: np.random.Generator, bars: int, count: int, phase: int) -> np.ndarray:
    """``count`` brush windows as rows ``(start rank, width, stratum)``.

    Start ranks are a *stratified* zipf(1.0) sample: one jittered draw
    from each of ``count`` equal-probability strata.  Widths 1-8 cycle
    along the strata in a fixed pattern that ``phase`` (the block number)
    shifts, so over eight blocks every stratum meets every width.

    Brushed lineage spans three orders of magnitude, and a run can afford
    only a few hundred brushes; with i.i.d. draws every latency statistic
    would mostly report how many heavy windows the seed happened to draw.
    This design keeps the mix of heavy and light windows the same from
    seed to seed, while the data, the light windows and the order change."""
    from repro.substrate.zipf import zipf_probabilities

    stratum = np.arange(count)
    cdf = np.cumsum(zipf_probabilities(bars, 1.0))
    start = np.searchsorted(cdf, (stratum + rng.random(count)) / count, side="right")
    width = 1 + (5 * stratum + phase) % 8
    return np.c_[np.minimum(start, bars - 1), width, stratum]


# -- run bookkeeping ----------------------------------------------------------


@dataclass
class Config:
    workload: str
    seed: int
    #: ``--seconds``: what the timed section takes on the reference box.
    #: Every workload times a fixed op count, so this only arms the
    #: :class:`Guard`.
    seconds: float
    traced: bool
    smoke: bool = False

    def size(self, full: int, smoke: int) -> int:
        """A workload constant (rows, timed ops): the smoke test's value
        under ``--smoke``."""
        return smoke if self.smoke else full


@dataclass
class Tally:
    """Attempted / failed ops.  A failed op is one that raised or whose
    answer differed from the oracle."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 8:
            self.messages.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: 8 - len(self.messages)])


class Guard:
    """Refuses a run whose timed section takes more than
    :data:`GUARD_FACTOR` times ``--seconds``.  It never shortens a run: a
    box that slow gets no result, not a result over fewer ops (and the
    driver's per-run time limit is kept)."""

    GUARD_FACTOR = 4.0

    def __init__(self, seconds: float):
        self._limit = seconds * self.GUARD_FACTOR
        self._deadline = math.inf

    def start(self) -> None:
        self._deadline = perf_counter() + self._limit

    def check(self) -> None:
        if perf_counter() > self._deadline:
            raise BenchError(
                f"the timed section ran past {self._limit:.0f} s "
                f"({self.GUARD_FACTOR:g} x --seconds): this box is too slow "
                "for a comparable result"
            )


def replay_ops(count: int, multiple: int = 1) -> int:
    """Timed ops of a traced run's replay: :data:`TRACE_REPLAY_SHARE` of
    the workload's ``count``, in whole ``multiple``-op units."""
    return min(count, max(1, round(count * TRACE_REPLAY_SHARE / multiple)) * multiple)


def warmup_ops(count: int) -> int:
    """Untimed ops before a workload's ``count`` timed ones:
    :data:`WARMUP_SHARE`, at least one."""
    return max(1, round(count * WARMUP_SHARE))
