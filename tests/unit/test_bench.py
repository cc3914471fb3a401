"""Benchmark harness: report rendering, scaling, technique registry."""

import numpy as np
import pytest

from repro.bench.harness import Report, fmt_ms, scale, scaled, time_median, time_once
from repro.bench.techniques import CAPTURE_TECHNIQUES
from repro.datagen import make_zipf_table
from repro.api import Database
from repro.plan.logical import AggCall, GroupBy, Scan, col


class TestHarness:
    def test_report_render_alignment(self):
        report = Report("T", ["a", "bb"])
        report.add(1, "x")
        report.add(22, "yy")
        report.note("n")
        text = report.render()
        lines = text.splitlines()
        assert lines[0] == "= T ="
        assert lines[-1] == "# n"
        assert all(len(r) == 2 for r in report.rows)

    def test_fmt_ms_units(self):
        assert fmt_ms(0.001).strip().endswith("ms")
        assert fmt_ms(2.5).strip().endswith("s")

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scale() == 0.5
        assert scaled(1000) == 500
        assert scaled(10, minimum=100) == 100

    def test_scale_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert scale() == 1.0

    def test_time_once_positive(self):
        assert time_once(lambda: sum(range(100))) > 0

    def test_time_median_is_median(self):
        times = iter([0.0] * 10)
        assert time_median(lambda: None, repeats=3, warmup=0) >= 0


class TestTechniqueRegistry:
    @pytest.fixture(scope="class")
    def bench_db(self):
        db = Database()
        db.create_table("zipf", make_zipf_table(2_000, 20, seed=17))
        return db

    @pytest.fixture(scope="class")
    def plan(self):
        return GroupBy(
            Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
        )

    def test_registry_matches_table1(self):
        assert set(CAPTURE_TECHNIQUES) == {
            "baseline", "smoke-i", "smoke-d", "logic-rid", "logic-tup",
            "logic-idx", "phys-mem", "phys-bdb",
        }

    @pytest.mark.parametrize("technique", sorted(CAPTURE_TECHNIQUES))
    def test_every_technique_runs(self, bench_db, plan, technique):
        run = CAPTURE_TECHNIQUES[technique](bench_db, plan)
        assert run.seconds > 0
        assert run.seconds >= run.base_seconds - 1e-9
        assert run.technique.startswith(technique.split("-")[0])

    def test_queryable_techniques_agree(self, bench_db, plan):
        smoke = CAPTURE_TECHNIQUES["smoke-i"](bench_db, plan)
        defer = CAPTURE_TECHNIQUES["smoke-d"](bench_db, plan)
        idx = CAPTURE_TECHNIQUES["logic-idx"](bench_db, plan)
        for o in range(5):
            expected = smoke.lineage.backward([o], "zipf")
            assert np.array_equal(defer.lineage.backward([o], "zipf"), expected)
            assert np.array_equal(idx.lineage.backward([o], "zipf"), expected)

    def test_defer_records_finalize_split(self, bench_db, plan):
        run = CAPTURE_TECHNIQUES["smoke-d"](bench_db, plan)
        assert "finalize" in run.extra
        assert run.seconds == pytest.approx(
            run.base_seconds + run.extra["finalize"]
        )

