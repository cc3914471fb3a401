"""Unit tests for the experiment modules' building blocks."""

from repro.bench.experiments.fig05_groupby import microbenchmark_query
from repro.bench.experiments.fig06_pkfk import (
    join_query,
    make_database as fig06_db,
    true_cardinality_hints,
)
from repro.bench.experiments.fig07_mn import capture, make_tables
from repro.bench.experiments.fig10_skipping import parameter_combinations
from repro.bench.experiments.fig13_crossfilter import run_session
from repro.datagen import make_ontime_table


class TestFig05:
    def test_microbenchmark_query_shape(self):
        plan = microbenchmark_query()
        assert len(plan.aggs) == 6
        assert [a.func for a in plan.aggs] == [
            "count", "sum", "sum", "sum", "min", "max",
        ]


class TestFig06:
    def test_true_cardinalities_sum_to_table_size(self):
        db = fig06_db(5_000, 50)
        hints = true_cardinality_hints(db, 50)
        counts = hints.group_count_for("join")
        assert int(counts.sum()) == 5_000

    def test_join_query_is_pkfk(self):
        assert join_query().pkfk


class TestFig07:
    def test_all_techniques_same_output_cardinality(self):
        left, right = make_tables(10, 2_000)
        outs = {t: capture(left, right, t)
                for t in ("smoke-i", "smoke-d-deferforw", "smoke-d")}
        assert len(set(outs.values())) == 1

    def test_skew_increases_output(self):
        left10, right = make_tables(10, 2_000)
        left100, _ = make_tables(100, 2_000)
        from repro.exec.vector.join import compute_matches

        out10 = compute_matches([left10.column("z")], [right.column("z")]).num_out
        out100 = compute_matches([left100.column("z")], [right.column("z")]).num_out
        assert out10 > out100  # fewer left groups -> more matches


class TestFig10:
    def test_parameter_combinations_bounded_and_distinct(self):
        combos = parameter_combinations(4)
        assert 0 < len(combos) <= 4
        assert len(set(combos)) == len(combos)


class TestFig13:
    def test_run_session_stats_structure(self):
        table = make_ontime_table(3_000, seed=1)
        stats = run_session(table, "bt+ft", max_per_view=2)
        assert stats["technique"] == "bt+ft"
        assert stats["interactions"] == sum(
            len(v) for v in stats["per_view"].values()
        )
        assert stats["total"] >= stats["build"]
        assert stats["over_threshold"] >= 0
