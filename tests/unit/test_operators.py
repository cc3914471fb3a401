"""Vectorized operators: correctness and local lineage per operator."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.errors import PlanError
from repro.exec.vector.groupby import inject_backward_index
from repro.exec.vector.join import compute_matches, join_lineage_locals
from repro.exec.vector.kernels import (
    GroupLayout,
    chunk_ranges,
    factorize,
    subset_groups,
)
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.lineage.indexes import NO_MATCH, RidArray, RidIndex
from repro.plan.logical import (
    AggCall,
    CrossProduct,
    GroupBy,
    HashJoin,
    Project,
    Scan,
    Select,
    ThetaJoin,
    col,
)
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestKernels:
    def test_factorize_first_occurrence_order(self):
        ids, n, reps = factorize([np.array([5, 3, 5, 9, 3])])
        assert n == 3
        assert ids.tolist() == [0, 1, 0, 2, 1]
        assert reps.tolist() == [0, 1, 3]

    def test_factorize_multi_key(self):
        a = np.array([1, 1, 2, 2])
        b = np.array(["x", "y", "x", "x"], dtype=object)
        ids, n, _ = factorize([a, b])
        assert n == 3
        assert ids.tolist() == [0, 1, 2, 2]

    def test_factorize_empty(self):
        ids, n, reps = factorize([np.array([], dtype=np.int64)])
        assert n == 0 and ids.size == 0

    def test_factorize_requires_keys(self):
        with pytest.raises(PlanError):
            factorize([])

    def test_factorize_wide_int_domain_falls_back(self):
        ids, n, _ = factorize([np.array([10**12, 5, 10**12])])
        assert n == 2 and ids.tolist() == [0, 1, 0]

    def test_group_layout_counts(self):
        layout = GroupLayout(np.array([0, 1, 0, 1, 1]), 2)
        assert layout.counts().tolist() == [2, 3]

    def test_chunk_ranges_cover(self):
        ranges = list(chunk_ranges(10, 3))
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]


class TestSubsetGroups:
    """The batch path's subset grouping must reproduce exactly what
    factorize + bincount would build from the subset's own key values."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_factorize_on_subset(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 6, 80)
        codes, num_codes, reps = factorize([keys])
        pick = np.sort(rng.choice(80, size=31, replace=False))
        group_codes, counts = subset_groups(codes[pick], num_codes)
        # Oracle: factorize the subset's own gathered keys.
        sub_codes, sub_n, sub_reps = factorize([keys[pick]])
        assert np.array_equal(keys[reps][group_codes], keys[pick][sub_reps])
        assert np.array_equal(
            counts, np.bincount(sub_codes, minlength=sub_n)
        )

    def test_empty_subset(self):
        group_codes, counts = subset_groups(np.empty(0, dtype=np.int64), 5)
        assert group_codes.size == 0 and counts.size == 0

    def test_first_occurrence_order(self):
        codes = np.array([3, 3, 0, 2, 0, 3], dtype=np.int64)
        group_codes, counts = subset_groups(codes, 4)
        assert group_codes.tolist() == [3, 0, 2]
        assert counts.tolist() == [3, 2, 1]


class TestSelect:
    def test_correctness_and_lineage(self, small_db):
        table = small_db.table("zipf")
        plan = Select(Scan("zipf"), col("v") < 30.0)
        res = small_db.execute(plan, options=INJECT)
        expected = np.nonzero(table.column("v") < 30.0)[0]
        assert len(res.table) == expected.size
        bw = res.lineage.backward_index("zipf")
        assert np.array_equal(bw.values, expected)
        fw = res.lineage.forward_index("zipf")
        assert fw.values[expected[0]] == 0
        unmatched = np.nonzero(table.column("v") >= 30.0)[0]
        if unmatched.size:
            assert fw.values[unmatched[0]] == NO_MATCH

    def test_empty_result(self, small_db):
        plan = Select(Scan("zipf"), col("v") < -1.0)
        res = small_db.execute(plan, options=INJECT)
        assert len(res.table) == 0
        assert res.lineage.backward_index("zipf").num_keys == 0

    def test_selectivity_hint_preallocates(self, small_db):
        from repro.substrate.stats import CardinalityHints

        config = CaptureConfig.inject(
            hints=CardinalityHints(selectivity={"select": 0.5})
        )
        plan = Select(Scan("zipf"), col("v") < 30.0)
        res = small_db.execute(plan, options=ExecOptions(capture=config))
        assert len(res.table) > 0  # correctness unaffected by hints


class TestGroupBy:
    def _plan(self):
        return GroupBy(
            Scan("zipf"),
            [(col("z"), "z")],
            [
                AggCall("count", None, "c"),
                AggCall("sum", col("v"), "s"),
                AggCall("min", col("v"), "mn"),
                AggCall("max", col("v"), "mx"),
                AggCall("avg", col("v"), "av"),
                AggCall("count_distinct", col("z"), "cd"),
            ],
        )

    def test_aggregates_match_numpy(self, small_db):
        table = small_db.table("zipf")
        res = small_db.execute(self._plan())
        z, v = table.column("z"), table.column("v")
        for i in range(len(res.table)):
            key = res.table.column("z")[i]
            members = v[z == key]
            assert res.table.column("c")[i] == members.size
            assert res.table.column("s")[i] == pytest.approx(members.sum())
            assert res.table.column("mn")[i] == members.min()
            assert res.table.column("mx")[i] == members.max()
            assert res.table.column("av")[i] == pytest.approx(members.mean())
            assert res.table.column("cd")[i] == 1

    def test_backward_partitions_input(self, small_db):
        res = small_db.execute(self._plan(), options=INJECT)
        bw = res.lineage.backward_index("zipf")
        all_rids = np.sort(bw.lookup_many(np.arange(bw.num_keys)))
        assert np.array_equal(all_rids, np.arange(small_db.table("zipf").num_rows))

    def test_forward_inverse_of_backward(self, small_db):
        res = small_db.execute(self._plan(), options=INJECT)
        bw = res.lineage.backward_index("zipf")
        fw = res.lineage.forward_index("zipf")
        for g in range(bw.num_keys):
            assert (fw.values[bw.lookup(g)] == g).all()

    def test_defer_equals_inject(self, small_db):
        inject = small_db.execute(self._plan(), options=INJECT)
        defer = small_db.execute(
            self._plan(), options=ExecOptions(capture=CaptureMode.DEFER)
        )
        for g in range(len(inject.table)):
            assert np.array_equal(
                inject.lineage.backward([g], "zipf"),
                defer.lineage.backward([g], "zipf"),
            )
        assert defer.lineage.finalize_seconds > 0

    def test_emulated_appends_equal_reuse_path(self, small_db):
        config = CaptureConfig.inject()
        config.emulate_tuple_appends = True
        emulated = small_db.execute(self._plan(), options=ExecOptions(capture=config))
        reuse = small_db.execute(self._plan(), options=INJECT)
        for g in range(len(reuse.table)):
            assert np.array_equal(
                emulated.lineage.backward([g], "zipf"),
                reuse.lineage.backward([g], "zipf"),
            )

    def test_inject_backward_index_capacities_stop_resizes(self):
        ids = np.repeat(np.arange(5), 100)
        _, resizes = inject_backward_index(ids, 5, chunk_size=64)
        assert resizes > 0
        counts = np.full(5, 100, dtype=np.int64)
        _, resizes_tc = inject_backward_index(ids, 5, chunk_size=64, capacities=counts)
        assert resizes_tc == 0

    def test_having_filters_and_remaps_lineage(self, small_db):
        plan = GroupBy(
            Scan("zipf"),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
            having=col("c") > 150,
        )
        res = small_db.execute(plan, options=INJECT)
        assert (res.table.column("c") > 150).all()
        table = small_db.table("zipf")
        for i in range(len(res.table)):
            rids = res.lineage.backward([i], "zipf")
            assert (table.column("z")[rids] == res.table.column("z")[i]).all()

    def test_keyless_aggregate_single_group(self, small_db):
        plan = GroupBy(Scan("zipf"), [], [AggCall("count", None, "c")])
        res = small_db.execute(plan, options=INJECT)
        assert len(res.table) == 1
        assert res.lineage.backward([0], "zipf").size == 2000

    def test_keyless_aggregate_empty_input(self, small_db):
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < -1.0), [], [AggCall("count", None, "c")]
        )
        res = small_db.execute(plan)
        assert len(res.table) == 0

    def test_expression_keys(self, small_db):
        plan = GroupBy(
            Scan("zipf"),
            [(col("z") * 2, "z2")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan)
        assert (np.asarray(res.table.column("z2")) % 2 == 0).all()


class TestHavingBackwardFilter:
    """HAVING under capture restricts the backward index to the kept
    groups with one vectorized gather; it must be bit-identical to
    rebuilding it bucket by bucket from the unfiltered index."""

    NUM_GROUPS = 12_000

    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(21)
        db = Database()
        db.create_table(
            "t",
            Table(
                {
                    "z": rng.integers(0, self.NUM_GROUPS, 40_000),
                    "v": rng.random(40_000),
                }
            ),
        )
        return db

    @staticmethod
    def _plan(having):
        return GroupBy(
            Scan("t"), [(col("z"), "z")], [AggCall("count", None, "c")], having=having
        )

    @pytest.mark.parametrize("mode", [CaptureMode.INJECT, CaptureMode.DEFER])
    @pytest.mark.parametrize("backend", ["vector", "compiled"])
    def test_equals_per_bucket_build(self, db, backend, mode):
        options = ExecOptions(capture=mode, backend=backend)
        full = db.execute(self._plan(None), options=options)
        filtered = db.execute(self._plan(col("c") >= 4), options=options)
        assert full.table.num_rows >= 10_000
        whole = full.lineage.backward_index("t")
        kept = np.flatnonzero(full.table.column("c") >= 4)
        assert 0 < kept.size < full.table.num_rows
        expected = RidIndex.from_buckets([whole.lookup(int(g)) for g in kept])
        assert filtered.lineage.backward_index("t") == expected


class TestProjectDistinct:
    def test_distinct_lineage_collects_duplicates(self, small_db):
        plan = Project(Scan("zipf"), [(col("z"), "z")], distinct=True)
        res = small_db.execute(plan, options=INJECT)
        table = small_db.table("zipf")
        for i in range(len(res.table)):
            rids = res.lineage.backward([i], "zipf")
            assert (table.column("z")[rids] == res.table.column("z")[i]).all()
            assert rids.size == (table.column("z") == res.table.column("z")[i]).sum()

    def test_bag_project_has_identity_lineage(self, small_db):
        plan = Project(Scan("zipf"), [(col("v") * 2.0, "v2")])
        res = small_db.execute(plan, options=INJECT)
        assert res.lineage.backward([7], "zipf").tolist() == [7]


class TestHashJoin:
    def test_pkfk_output_matches_bruteforce(self, small_db):
        plan = HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True)
        res = small_db.execute(plan, options=INJECT)
        zipf = small_db.table("zipf")
        assert len(res.table) == zipf.num_rows  # every z has a gid
        # probe-order output: row k corresponds to zipf row k
        assert np.array_equal(res.table.column("z"), zipf.column("z"))

    def test_pkfk_four_local_indexes(self, small_db):
        plan = HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True)
        res = small_db.execute(plan, options=INJECT)
        zipf = small_db.table("zipf")
        bw_r = res.lineage.backward_index("zipf")
        assert isinstance(bw_r, RidArray)
        fw_r = res.lineage.forward_index("zipf")
        assert isinstance(fw_r, RidArray)  # pk-fk: rid array (3.2.4)
        fw_l = res.lineage.forward_index("gids")
        assert isinstance(fw_l, RidIndex)
        assert fw_l.lookup_many(np.arange(20)).size == zipf.num_rows

    def test_pkfk_wrong_uniqueness_raises(self, small_db):
        plan = HashJoin(Scan("zipf"), Scan("gids"), ("z",), ("id",), pkfk=True)
        with pytest.raises(PlanError, match="not unique"):
            small_db.execute(plan)

    def test_mn_join_bruteforce(self, small_db):
        plan = HashJoin(Scan("zipf2"), Scan("zipf"), ("z",), ("z",))
        res = small_db.execute(plan, options=INJECT)
        z2 = small_db.table("zipf2").column("z")
        z1 = small_db.table("zipf").column("z")
        expected = sum(
            int((z2 == k).sum()) * int((z1 == k).sum()) for k in np.unique(z2)
        )
        assert len(res.table) == expected

    def test_mn_lineage_roundtrip(self, small_db):
        plan = HashJoin(Scan("zipf2"), Scan("zipf"), ("z",), ("z",))
        res = small_db.execute(plan, options=INJECT)
        bw = res.lineage.backward_index("zipf2")
        fw = res.lineage.forward_index("zipf2")
        for out in (0, len(res.table) // 2, len(res.table) - 1):
            src = bw.values[out]
            assert out in fw.lookup(int(src)).tolist()

    def test_empty_probe_side(self, small_db):
        plan = HashJoin(
            Scan("gids"),
            Select(Scan("zipf"), col("v") < -1.0),
            ("id",),
            ("z",),
            pkfk=True,
        )
        res = small_db.execute(plan, options=INJECT)
        assert len(res.table) == 0

    def test_join_matches_kernel_direct(self, small_db):
        matches = compute_matches(
            small_db.table("gids"), small_db.table("zipf"), ("id",), ("z",), True
        )
        assert matches.num_out == 2000
        locals_ = join_lineage_locals(matches, CaptureConfig.inject(), pkfk=True)
        assert all(x is not None for x in locals_)


class TestNestedLoop:
    def test_theta_join_bruteforce(self, small_db):
        plan = ThetaJoin(Scan("gids"), Scan("zipf2"), col("id") > col("z"))
        res = small_db.execute(plan, options=INJECT)
        gids = small_db.table("gids")
        z2 = small_db.table("zipf2")
        expected = sum(
            int((z2.column("z") < i).sum()) for i in gids.column("id")
        )
        assert len(res.table) == expected

    def test_theta_lineage_roundtrip(self, small_db):
        plan = ThetaJoin(Scan("gids"), Scan("zipf2"), col("id") > col("z"))
        res = small_db.execute(plan, options=INJECT)
        if len(res.table):
            src = res.lineage.backward([0], "zipf2")
            fwd = res.lineage.forward("zipf2", src)
            assert 0 in fwd.tolist()

    def test_cross_product_closed_form(self, small_db):
        plan = CrossProduct(Scan("gids"), Scan("zipf2"))
        res = small_db.execute(plan, options=INJECT)
        n_l, n_r = 20, 300
        assert len(res.table) == n_l * n_r
        # output k comes from left k // n_r and right k % n_r
        k = 4321
        assert res.lineage.backward([k], "gids").tolist() == [k // n_r]
        assert res.lineage.backward([k], "zipf2").tolist() == [k % n_r]
