"""Smoke test of perfbench: every workload at ``--smoke`` size (20k rows,
a few dozen ops), traced and untraced, in-process.

Checks the contract between the code and ``BENCHMARK.json`` — exactly the
declared workload and metric names, each with a unit and a finite value,
and per workload exactly the layers it is meant to enter — that no op
failed, that nothing ran morsel-parallel, and that the count-exact metrics
repeat bit for bit across two runs of one seed.  It asserts nothing about
speed.
"""

import json
import math
import re

import pytest

import common
import compare
import run

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: The per-layer metrics every workload measures, and what each adds: a
#: name, or a prefix ending in ".".  Everything else is a layer the
#: workload never enters and must not report.
EVERY = ("lineage_bytes_per_input_row", "lineage.indexes.memory_bytes", "exec.morsel.tasks",
         "storage.create_table_ms", "datagen.ontime_s", "trace.overhead_x")
_BRUSH = ("brush_ms_p95", "sql.", "plan.", "lineage.indexes.", "lineage.cache.", "api.")
LAYERS = {
    "xf_brush": _BRUSH + tuple(
        f"exec.late_mat.{shape}."
        for shape in ("reaggregate", "filter_aggregate", "narrow_projection", "distinct_projection")
    ),
    "xf_brush_join": _BRUSH + (
        "exec.late_mat.join_reaggregate.", "exec.late_mat.chain_reaggregate.",
        "exec.late_mat.chain_hops", "exec.late_mat.build_swaps", "exec.late_mat.pkfk_detected",
    ),
    "capture": ("capture_overhead_x", "lineage.capture.", "datagen.tpch_s"),
    "serve_mixed": ("brush_ms_p95", "refresh_ms_p50", "serve.", "api.register_ms",
                    "storage.replace_preserve_rids_ms"),
    "durable": ("recover_s", "wal_bytes_per_lineage_byte", "lineage.wal.", "lineage.persist.",
                "lineage.recovery.", "api.register_ms"),
}


def expected_layers(workload):
    wanted = EVERY + LAYERS[workload]
    return {
        name for name in PER_LAYER
        if any(name == w or (w.endswith(".") and name.startswith(w)) for w in wanted)
    }


def smoke_run(workload, traced):
    cfg = common.Config(workload, seed=5, seconds=30.0, traced=traced, smoke=True)
    return run.run_workload(cfg, SPEC)


@pytest.fixture(scope="module")
def records():
    with pytest.MonkeyPatch.context() as patch:
        for name in common.FORBIDDEN_ENV:
            patch.delenv(name, raising=False)
        return {
            workload: {
                "traced": smoke_run(workload, True),
                "again": smoke_run(workload, True),
                "untraced": smoke_run(workload, False),
            }
            for workload in WORKLOADS
        }


def test_declared_workloads_are_the_five_the_issue_names():
    assert WORKLOADS == ["xf_brush", "xf_brush_join", "capture", "serve_mixed", "durable"]
    assert SPEC["paths"] == ["perfbench"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert set(common.ISSUE_NAMES) == set(WORKLOADS)
    assert common.EXACT_METRICS <= set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_are_exactly_the_declared_ones(records, workload):
    untraced, traced = records[workload]["untraced"], records[workload]["traced"]
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert set(traced["metrics"]) == expected_layers(workload)
    for record, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, entry in record["metrics"].items():
            assert NAME.fullmatch(name)
            assert entry["unit"] == declared[name] and entry["unit"]
            assert math.isfinite(entry["value"])
        json.dumps(record)  # the record is what --out writes
        line = json.loads(run.driver_line(record, SPEC))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == list(declared)  # every declared name, 0 if not measured


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_fails_and_nothing_runs_parallel(records, workload):
    for record in records[workload].values():
        assert record["failed"] == 0, record["failures"]
        assert record["correct"] and record["attempted"] >= 1
    assert records[workload]["traced"]["metrics"]["exec.morsel.tasks"]["value"] == 0
    for entry in records[workload]["untraced"]["metrics"].values():
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_across_two_runs_of_one_seed(records, workload):
    first, again = records[workload]["traced"], records[workload]["again"]
    assert list(first["metrics"]) == list(again["metrics"])
    for name in common.EXACT_METRICS & set(first["metrics"]):
        assert first["metrics"][name] == again["metrics"][name], name
    assert compare.compare_exact([first], [again], workload) == 0


def test_overrides_are_refused_not_skipped(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "4")
    with pytest.raises(common.BenchError):
        smoke_run("xf_brush", False)


def test_a_box_too_slow_is_refused_not_cut_short():
    cfg = common.Config("xf_brush", seed=5, seconds=1e-4, traced=False, smoke=True)
    with pytest.raises(common.BenchError, match="too slow"):
        run.run_workload(cfg, SPEC)


def test_compare_flags_a_regression_a_changed_count_and_a_missing_workload(records, capsys):
    base = [records[w][mode] for w in WORKLOADS for mode in ("untraced", "traced")]
    assert compare.compare(base, base, SPEC) == 0

    slower = json.loads(json.dumps(base))
    slower[0]["metrics"]["op_ms_p50"]["value"] *= 2
    assert compare.compare(base, slower, SPEC) == 1
    assert "worse" in capsys.readouterr().out

    fatter = json.loads(json.dumps(base))
    fatter[1]["metrics"]["lineage_bytes_per_input_row"]["value"] += 1e-9
    assert compare.compare(base, fatter, SPEC) == 1
    assert "differs" in capsys.readouterr().out

    assert compare.compare(base, base[2:], SPEC) == 1
    assert "not in B" in capsys.readouterr().out
