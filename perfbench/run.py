#!/usr/bin/env python3
"""perfbench: the repo's end-to-end + per-layer benchmark.

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload xf_brush --seed 3 --trace 0
    python3 perfbench/run.py --repeat 5 --out perfbench/out/a.json   # a_1.json .. a_5.json

One workload runs in one process: inputs are generated from ``--seed``,
the engine is driven only through its public entry points, every checked
answer is compared with the hand-rolled numpy oracle, and every metric is
printed by name with its unit.  Each workload times a fixed number of
ops; ``--seconds`` (what that takes on the reference box) only arms a
guard that refuses the run on a box several times slower.  The last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the ``end_to_end`` metrics of
``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).  That line has to name every declared per-layer metric,
so there — and only there — one of a layer the workload never enters
reads 0; result files hold measured metrics only.

Without ``--workload`` each workload and mode runs in a child process of
its own (peak RSS is a per-process high-water mark) and the records are
gathered into one result file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import common
from common import BenchError, Config
from spans import NullRecorder, SpanRecorder

DEFAULT_SEED = 11
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def make_workload(cfg: Config):
    if cfg.workload in ("xf_brush", "xf_brush_join"):
        from brush import BrushWorkload

        return BrushWorkload(cfg, join=cfg.workload == "xf_brush_join")
    if cfg.workload == "capture":
        from capture_cost import CaptureWorkload

        return CaptureWorkload(cfg)
    if cfg.workload == "serve_mixed":
        from serve_mixed import ServeWorkload

        return ServeWorkload(cfg)
    if cfg.workload == "durable":
        from durable import DurableWorkload

        return DurableWorkload(cfg)
    raise BenchError(f"unknown workload {cfg.workload!r}")


def run_workload(cfg: Config, spec: dict) -> dict:
    """Set up, measure and check one workload; returns its result record."""
    threads = common.CLIENT_THREADS if cfg.workload == "serve_mixed" else 1
    common.check_environment(threads)
    workload = make_workload(cfg)
    rec = SpanRecorder() if cfg.traced else NullRecorder()

    setups, state = [], None
    for _ in range(1 if cfg.traced else SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        t0 = perf_counter()
        with rec.span("setup"):
            state = workload.setup(rec)
        setups.append(perf_counter() - t0)
    # Keep the collector away from the long-lived input arrays while timing.
    gc.collect()
    gc.freeze()
    try:
        if cfg.traced:
            values = workload.trace(state, rec, NullRecorder())
        else:
            values = workload.measure(state, rec)
            values["setup_s"] = common.p50(setups)
            values["peak_rss_mb"] = common.peak_rss_mb()
    finally:
        gc.unfreeze()
        workload.close(state)
    samples = values.pop("_samples", None)
    if cfg.traced:
        rec.dump(common.OUT_DIR / f"trace_{cfg.workload}.json")

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if cfg.traced else "end_to_end"]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise BenchError(f"{cfg.workload} measured undeclared metrics: {unknown}")
    missing = [] if cfg.traced else sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"{cfg.workload} did not measure end-to-end metrics: {missing}")
    metrics = {}
    for name in declared:  # measured metrics only, in declaration order
        if name not in values:
            continue
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError(f"{cfg.workload}: metric {name} is not finite ({value})")
        metrics[name] = {"value": value, "unit": declared[name]}
    tally = workload.tally
    return {
        "workload": cfg.workload,
        "trace": int(cfg.traced),
        "smoke": cfg.smoke,
        "environment": common.environment_block(cfg.seed, threads, workload.info()),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "samples": samples,
        "metrics": metrics,
    }


def driver_line(record: dict, spec: dict) -> str:
    """The last line of standard output: every declared metric of the
    run's mode.  A per-layer metric the workload did not measure (it never
    enters that layer) reads 0 here; the record does not hold it."""
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: record["metrics"].get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in declared
        },
    })


def print_record(record: dict, spec: dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"# {record['workload']}  seed={record['environment']['seed']}  {mode}  "
          f"samples={record['samples']}")
    issue_names = common.ISSUE_NAMES[record["workload"]]
    for name, entry in record["metrics"].items():
        alias = f"  (= {issue_names[name]})" if name in issue_names else ""
        print(f"{name:55s} {entry['value']:.6g} {entry['unit']}{alias}")
    failed_ratio = record["failed"] / max(1, record["attempted"])
    print(f"{'failed_ratio':55s} {failed_ratio:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for message in record["failures"]:
        print(f"  failure: {message}")
    print(driver_line(record, spec))


def write_result(path: Path, records: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"benchmark": "perfbench", "schema": 1, "runs": records}, indent=1) + "\n",
        encoding="utf-8",
    )


def run_children(args, spec: dict, out: Path) -> int:
    """Every selected workload x mode in its own process; gather records."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = [args.trace] if args.trace is not None else [0, 1]
    records, status = [], 0
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        for mode in modes:
            part = common.OUT_DIR / f"part_{name}_{mode}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(mode), "--out", str(part),
            ]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, check=False)
            if done.returncode != 0:
                status = done.returncode
                continue
            records += json.loads(part.read_text(encoding="utf-8"))["runs"]
            part.unlink()
    write_result(out, records)
    print(f"# wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="what the timed section takes on the reference box; "
                             "arms the slow-box guard only (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    parser.add_argument("--out", type=Path, help="result file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="write K result files <out stem>_<k>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="20k rows and a few dozen ops, for the smoke test")
    args = parser.parse_args(argv)
    try:
        spec = common.load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload and args.trace is not None and args.repeat == 1:
            cfg = Config(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            record = run_workload(cfg, spec)
            if args.out is not None:
                write_result(args.out, [record])
            print_record(record, spec)
            return 0
        out = args.out or common.OUT_DIR / "result.json"
        status = 0
        for k in range(1, args.repeat + 1):
            target = out if args.repeat == 1 else out.with_name(f"{out.stem}_{k}{out.suffix}")
            status = run_children(args, spec, target) or status
        return status
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "repro":
            raise
        print(f"perfbench: the engine is not importable from {common.ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
