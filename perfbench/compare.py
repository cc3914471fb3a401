#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py A B

``A`` and ``B`` are each a result file, a directory of result files, or a
glob (``'perfbench/out/a_*.json'`` — what ``run.py --repeat K`` writes).
``A`` is the base.  For every workload x end-to-end metric the medians of
both sets' untraced runs are printed with the relative difference (base =
A's median), the metric's bound from ``BENCHMARK.json``, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the run-to-run spread of either set (interquartile
  range over median, needs at least two runs per set) is wider than the
  bound, so the runs cannot tell.

Then the count-exact per-layer metrics (``common.EXACT_METRICS``) of the
traced runs, which must be bit-equal between runs of one workload and
seed: ``equal`` or ``differs``.

Exits 1 on any ``worse``, any ``differs``, any rise in the failed ratio,
or a workload that A ran and B did not; 2 on bad input.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from common import EXACT_METRICS, ISSUE_NAMES, BenchError, load_spec


def load_runs(argument: str) -> List[dict]:
    """The run records behind one command-line argument."""
    path = Path(argument)
    files = sorted(path.glob("*.json")) if path.is_dir() else sorted(map(Path, glob.glob(argument)))
    if not files:
        raise BenchError(f"no result files match {argument!r}")
    runs = []
    for file in files:
        payload = json.loads(file.read_text(encoding="utf-8"))
        if payload.get("benchmark") != "perfbench":
            raise BenchError(f"{file} is not a perfbench result file")
        runs += payload["runs"]
    return runs


def by_workload(runs: List[dict], trace: int) -> Dict[str, List[dict]]:
    grouped = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            grouped[run["workload"]].append(run)
    return grouped


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def failed_ratio(runs: List[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare_end_to_end(base: List[dict], new: List[dict], workload: str, spec: dict) -> int:
    status = 0
    for entry in spec["end_to_end"]:
        name = entry["name"]
        a = [run["metrics"][name]["value"] for run in base]
        b = [run["metrics"][name]["value"] for run in new]
        a_median, b_median = statistics.median(a), statistics.median(b)
        diff = (b_median - a_median) / a_median
        worse_by = diff if entry["better"] == "lower" else -diff
        widest = max(spread(a), spread(b))
        if widest > entry["bound"]:
            verdict = "unresolved"
        elif worse_by > entry["bound"]:
            verdict = "worse"
            status = 1
        else:
            verdict = "ok"
        label = name + (f" = {ISSUE_NAMES[workload][name]}" if name in ISSUE_NAMES[workload] else "")
        print(f"{workload:14s} {label:28s} {a_median:12.5g} {b_median:12.5g} "
              f"{diff * 100:+7.2f}% {entry['bound'] * 100:5.1f}% {widest * 100:6.2f}%  "
              f"{verdict}  (n={len(a)},{len(b)}; base {a_median:.5g} {entry['unit']})")
    a_failed, b_failed = failed_ratio(base), failed_ratio(new)
    verdict = "ok"
    if b_failed > a_failed:
        verdict = "worse"
        status = 1
    print(f"{workload:14s} {'failed_ratio':28s} {a_failed:12.5g} {b_failed:12.5g} "
          f"{'':8s} {'0':>6s} {'':7s}  {verdict}")
    return status


def compare_exact(base: List[dict], new: List[dict], workload: str) -> int:
    """Count-exact metrics of the traced runs, per seed both sets ran."""
    values = defaultdict(set)
    for run in base + new:
        for name in EXACT_METRICS & set(run["metrics"]):
            values[run["environment"]["seed"], name].add(run["metrics"][name]["value"])
    shared = {r["environment"]["seed"] for r in base} & {r["environment"]["seed"] for r in new}
    status = 0
    for (seed, name), seen in sorted(values.items()):
        if seed not in shared:
            continue
        verdict = "equal" if len(seen) == 1 else "differs"
        status |= len(seen) != 1
        print(f"{workload:14s} {name:40s} seed {seed:<6d} "
              f"{' / '.join(f'{v:.12g}' for v in sorted(seen))}  {verdict}")
    return status


def paired(base_runs: List[dict], new_runs: List[dict], trace: int, spec: dict):
    """``(workload, A's runs, B's runs)`` for every workload A ran in this
    mode; B's runs are empty when B did not run it."""
    base, new = by_workload(base_runs, trace), by_workload(new_runs, trace)
    for workload in (w["name"] for w in spec["workloads"]):
        if workload in base:
            yield workload, base[workload], new.get(workload, [])


def missing(workload: str, trace: int) -> int:
    print(f"{workload:14s} ran in A (trace {trace}) but not in B: worse")
    return 1


def compare(base_runs: List[dict], new_runs: List[dict], spec: dict) -> int:
    status = 0
    print(f"{'workload':14s} {'metric':28s} {'A':>12s} {'B':>12s} {'diff':>8s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for workload, a, b in paired(base_runs, new_runs, 0, spec):
        status |= compare_end_to_end(a, b, workload, spec) if b else missing(workload, 0)
    for workload, a, b in paired(base_runs, new_runs, 1, spec):
        status |= compare_exact(a, b, workload) if b else missing(workload, 1)
    return status


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        return compare(load_runs(arguments[0]), load_runs(arguments[1]), load_spec())
    except BenchError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
