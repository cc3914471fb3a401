"""BerkeleyDB simulator, zipf sampling, cardinality statistics."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.lineage.capture import CaptureMode
from repro.substrate import (
    BerkeleyDBSim,
    CardinalityHints,
    collect_group_counts,
    estimate_selectivity,
    sample_zipf,
    zipf_probabilities,
)
from repro.substrate.stats import (
    JoinSideStats,
    choose_build_side,
    collect_column_stats,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestBdbSim:
    def test_put_get_bulk(self):
        store = BerkeleyDBSim()
        for v in (3, 1, 2):
            store.put(10, v)
        assert store.get_bulk(10) == [3, 1, 2]

    def test_cursor_matches_bulk(self):
        store = BerkeleyDBSim()
        for out in range(20):
            for v in range(out % 5):
                store.put(out, v)
        for out in range(20):
            assert list(store.cursor(out)) == store.get_bulk(out)

    def test_cursor_stops_at_key_boundary(self):
        store = BerkeleyDBSim()
        store.put(1, 100)
        store.put(2, 200)
        assert list(store.cursor(1)) == [100]

    def test_keys_distinct_sorted(self):
        store = BerkeleyDBSim()
        for k in (5, 1, 5, 3):
            store.put(k, 0)
        assert list(store.keys()) == [1, 3, 5]

    def test_len_counts_entries(self):
        store = BerkeleyDBSim()
        for _ in range(7):
            store.put(0, 0)
        assert len(store) == 7


class TestZipf:
    def test_probabilities_sum_to_one(self):
        probs = zipf_probabilities(100, 1.0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_theta_zero_is_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_skew_monotonicity(self):
        probs = zipf_probabilities(50, 1.2)
        assert all(probs[i] >= probs[i + 1] for i in range(49))

    def test_samples_within_bounds(self, rng):
        samples = sample_zipf(10_000, 37, 1.0, rng)
        assert samples.min() >= 0 and samples.max() < 37

    def test_high_skew_concentrates_mass(self, rng):
        samples = sample_zipf(50_000, 100, 1.6, rng)
        top = (samples == 0).mean()
        assert top > 0.3

    def test_deterministic_given_seed(self):
        a = sample_zipf(100, 10, 1.0, np.random.default_rng(5))
        b = sample_zipf(100, 10, 1.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -1.0)


class TestStats:
    def test_collect_group_counts(self):
        counts = collect_group_counts(np.array([0, 1, 1, 3]), num_groups=5)
        assert counts.tolist() == [1, 2, 0, 1, 0]

    def test_collect_infers_domain(self):
        counts = collect_group_counts(np.array([2, 2]))
        assert counts.tolist() == [0, 0, 2]

    def test_estimate_selectivity_uniform(self):
        assert estimate_selectivity(None, 25.0, 0.0, 100.0) == pytest.approx(0.25)
        assert estimate_selectivity(None, -5.0, 0.0, 100.0) == 0.0
        assert estimate_selectivity(None, 150.0, 0.0, 100.0) == 1.0

    def test_estimate_selectivity_invalid_range(self):
        with pytest.raises(ValueError):
            estimate_selectivity(None, 1.0, 5.0, 5.0)

    def test_hints_overestimate_applies(self):
        hints = CardinalityHints(
            group_counts={"g": np.array([10, 20])},
            selectivity={"s": 0.5},
            overestimate=1.5,
        )
        assert hints.group_count_for("g").tolist() == [15, 30]
        assert hints.selectivity_for("s") == pytest.approx(0.75)

    def test_hints_selectivity_capped_at_one(self):
        hints = CardinalityHints(selectivity={"s": 0.9}, overestimate=2.0)
        assert hints.selectivity_for("s") == 1.0

    def test_hints_missing_label(self):
        hints = CardinalityHints()
        assert hints.group_count_for("nope") is None
        assert hints.selectivity_for("nope") is None


class TestColumnStats:
    def test_unique_int_column(self):
        stats = collect_column_stats(np.array([3, 1, 2], dtype=np.int64))
        assert stats.rows == 3 and stats.distinct == 3
        assert stats.is_unique

    def test_duplicated_int_column(self):
        stats = collect_column_stats(np.array([1, 1, 2], dtype=np.int64))
        assert stats.distinct == 2 and not stats.is_unique

    def test_object_column(self):
        values = np.empty(4, dtype=object)
        values[:] = ["a", "b", "a", "c"]
        stats = collect_column_stats(values)
        assert stats.rows == 4 and stats.distinct == 3

    def test_empty_column_is_trivially_unique(self):
        stats = collect_column_stats(np.empty(0, dtype=np.int64))
        assert stats.is_unique

    def test_catalog_memoizes_per_epoch(self):
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        catalog.register("t", Table({"z": np.array([1, 1], dtype=np.int64)}))
        first = catalog.column_stats("t", "z")
        assert catalog.column_stats("t", "z") is first  # memo hit
        catalog.register(
            "t", Table({"z": np.array([1, 2], dtype=np.int64)}), replace=True
        )
        assert catalog.column_stats("t", "z").is_unique  # recomputed


class TestPreserveRidsGuard:
    """``preserve_rids=True`` asserts an in-place row update; a
    replacement that changes cardinality or schema would keep captured
    lineage "valid" while the rids point past the end or at reshaped
    rows — the catalog must refuse it."""

    def _catalog(self):
        from repro.storage.catalog import Catalog
        from repro.storage.table import Table

        catalog = Catalog()
        catalog.register(
            "t",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "w": np.array([1.0, 2.0, 3.0]),
            }),
        )
        return catalog, Table

    def test_row_count_change_raises(self):
        from repro.errors import CatalogError

        catalog, Table = self._catalog()
        shrunk = Table({
            "z": np.array([1, 2], dtype=np.int64),
            "w": np.array([1.0, 2.0]),
        })
        with pytest.raises(CatalogError, match="row count"):
            catalog.register("t", shrunk, replace=True, preserve_rids=True)
        # The refused replacement must not have landed.
        assert catalog.get("t").num_rows == 3
        assert catalog.epoch("t") == 0

    def test_schema_change_raises(self):
        from repro.errors import CatalogError

        catalog, Table = self._catalog()
        reshaped = Table({
            "z": np.array([1, 2, 3], dtype=np.int64),
            "other": np.array([1.0, 2.0, 3.0]),
        })
        with pytest.raises(CatalogError, match="schema"):
            catalog.register("t", reshaped, replace=True, preserve_rids=True)

    def test_same_shape_preserves_epoch(self):
        catalog, Table = self._catalog()
        updated = Table({
            "z": np.array([1, 2, 3], dtype=np.int64),
            "w": np.array([9.0, 9.0, 9.0]),
        })
        catalog.register("t", updated, replace=True, preserve_rids=True)
        assert catalog.epoch("t") == 0
        assert catalog.get("t") is updated

    def test_plain_replace_may_change_shape(self):
        catalog, Table = self._catalog()
        shrunk = Table({"z": np.array([1], dtype=np.int64)})
        catalog.register("t", shrunk, replace=True)
        assert catalog.epoch("t") == 1


class TestChooseBuildSide:
    """The join-hop build-side decision table (see ISSUE: cardinality-
    aware build sides with a pk-fk fast path on the unique side)."""

    def test_plan_pkfk_pins_left(self):
        decision = choose_build_side(
            JoinSideStats(1000), JoinSideStats(1), plan_pkfk=True
        )
        assert decision.build_left and decision.pkfk
        assert decision.reason == "plan-pkfk"

    def test_unique_left_builds_left_with_pkfk(self):
        decision = choose_build_side(
            JoinSideStats(1000, keys_unique=True), JoinSideStats(5)
        )
        assert decision.build_left and decision.pkfk
        assert decision.reason == "unique-left"

    def test_unique_right_swaps_with_pkfk(self):
        decision = choose_build_side(
            JoinSideStats(5), JoinSideStats(1000, keys_unique=True)
        )
        assert decision.swapped and decision.pkfk
        assert decision.reason == "unique-right"

    def test_both_unique_prefers_smaller(self):
        decision = choose_build_side(
            JoinSideStats(1000, keys_unique=True),
            JoinSideStats(5, keys_unique=True),
        )
        assert decision.swapped and decision.pkfk
        both_tie = choose_build_side(
            JoinSideStats(5, keys_unique=True),
            JoinSideStats(5, keys_unique=True),
        )
        assert both_tie.build_left  # ties stay left

    def test_no_uniqueness_builds_on_smaller(self):
        assert choose_build_side(
            JoinSideStats(10), JoinSideStats(3)
        ).swapped
        smaller_left = choose_build_side(JoinSideStats(3), JoinSideStats(10))
        assert smaller_left.build_left and not smaller_left.pkfk

    def test_tie_breaks_left_deterministically(self):
        decision = choose_build_side(JoinSideStats(7), JoinSideStats(7))
        assert decision.build_left and not decision.pkfk
        assert decision.reason == "tie-left"

    def test_unknown_uniqueness_is_not_unique(self):
        decision = choose_build_side(
            JoinSideStats(3, keys_unique=None), JoinSideStats(10)
        )
        assert decision.build_left and not decision.pkfk


class TestHintsFromLineage:
    def test_counts_match_group_sizes(self, small_db):
        from repro.plan.logical import AggCall, GroupBy, Scan, col
        from repro.substrate.stats import hints_from_lineage

        plan = GroupBy(
            Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
        )
        res = small_db.execute(plan, options=INJECT)
        hints = hints_from_lineage(res.lineage, "zipf", "groupby")
        counts = hints.group_count_for("groupby")
        assert np.array_equal(counts, np.asarray(res.table.column("c")))

    def test_hints_eliminate_resizes_on_rerun(self, small_db):
        from repro.exec.vector.groupby import inject_backward_index
        from repro.plan.logical import AggCall, GroupBy, Scan, col
        from repro.substrate.stats import hints_from_lineage

        plan = GroupBy(
            Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
        )
        res = small_db.execute(plan, options=INJECT)
        hints = hints_from_lineage(res.lineage, "zipf", "groupby")
        group_ids = res.lineage.forward_index("zipf").values
        _, resizes = inject_backward_index(
            group_ids, len(res.table), chunk_size=256,
            capacities=hints.group_count_for("groupby"),
        )
        assert resizes == 0
