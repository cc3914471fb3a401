"""Set/bag operations: vector implementation vs the Appendix F reference."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.exec.compiled.setops_ref import reference_setop
from repro.exec.vector.setops import execute_setop
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.plan.logical import Project, Scan, SetOp, col
from repro.storage import Table


@pytest.fixture
def left():
    return Table({"k": np.array([1, 2, 2, 3, 4, 4, 4], dtype=np.int64)})


@pytest.fixture
def right():
    return Table({"k": np.array([2, 4, 4, 5, 5], dtype=np.int64)})


ALL_OPS = [
    ("union", False),
    ("union", True),
    ("intersect", False),
    ("intersect", True),
    ("except", False),
    ("except", True),
]


class TestAgainstReference:
    @pytest.mark.parametrize("op,all_", ALL_OPS)
    def test_output_and_lineage_match_reference(self, left, right, op, all_):
        config = CaptureConfig.inject()
        out_v, loc_v = execute_setop(op, all_, left, right, config)
        out_r, loc_r = reference_setop(op, all_, left, right, config)
        assert out_v.to_rows() == out_r.to_rows()
        for idx_v, idx_r in zip(loc_v, loc_r, strict=True):
            assert (idx_v is None) == (idx_r is None)
            if idx_v is None:
                continue
            n = (
                idx_v.num_keys
                if hasattr(idx_v, "num_keys")
                else len(idx_v.values)
            )
            for key in range(n):
                assert np.array_equal(
                    np.sort(idx_v.lookup(key)), np.sort(idx_r.lookup(key))
                ), (op, all_, key)

    @pytest.mark.parametrize("op,all_", ALL_OPS)
    def test_empty_inputs(self, left, op, all_):
        empty = Table({"k": np.array([], dtype=np.int64)})
        config = CaptureConfig.inject()
        out1, _ = execute_setop(op, all_, empty, left, config)
        out2, _ = execute_setop(op, all_, left, empty, config)
        ref1, _ = reference_setop(op, all_, empty, left, config)
        ref2, _ = reference_setop(op, all_, left, empty, config)
        assert out1.to_rows() == ref1.to_rows()
        assert out2.to_rows() == ref2.to_rows()


class TestSemantics:
    def test_set_union_distinct_first_occurrence(self, left, right):
        out, _ = execute_setop("union", False, left, right, CaptureConfig.none())
        assert out.column("k").tolist() == [1, 2, 3, 4, 5]

    def test_bag_union_concatenates(self, left, right):
        out, _ = execute_setop("union", True, left, right, CaptureConfig.none())
        assert out.column("k").tolist() == [1, 2, 2, 3, 4, 4, 4, 2, 4, 4, 5, 5]

    def test_set_intersect(self, left, right):
        out, _ = execute_setop("intersect", False, left, right, CaptureConfig.none())
        assert out.column("k").tolist() == [2, 4]

    def test_bag_intersect_product_multiplicity(self, left, right):
        # Paper semantics (F.4): a_matches x b_matches copies per value.
        out, _ = execute_setop("intersect", True, left, right, CaptureConfig.none())
        counts = {k: out.column("k").tolist().count(k) for k in (2, 4)}
        assert counts == {2: 2 * 1, 4: 3 * 2}

    def test_set_except(self, left, right):
        out, _ = execute_setop("except", False, left, right, CaptureConfig.none())
        assert out.column("k").tolist() == [1, 3]

    def test_bag_except_multiplicity(self, left, right):
        out, _ = execute_setop("except", True, left, right, CaptureConfig.none())
        values = out.column("k").tolist()
        assert values.count(2) == 1  # 2 - 1
        assert values.count(4) == 1  # 3 - 2
        assert values.count(1) == 1 and values.count(3) == 1

    def test_set_union_backward_collects_all_duplicates(self, left, right):
        out, (l_bw, _, r_bw, _) = execute_setop(
            "union", False, left, right, CaptureConfig.inject()
        )
        # Output row for k=4 must map to all three left rows and both right.
        pos = out.column("k").tolist().index(4)
        assert np.sort(l_bw.lookup(pos)).tolist() == [4, 5, 6]
        assert np.sort(r_bw.lookup(pos)).tolist() == [1, 2]

    def test_set_except_has_no_right_lineage(self, left, right, small_db):
        plan = SetOp(
            "except",
            Project(Scan("zipf"), [(col("z"), "z")]),
            Project(Scan("zipf2"), [(col("z"), "z")]),
        )
        res = small_db.execute(plan, options=ExecOptions(capture=CaptureMode.INJECT))
        assert res.lineage.relations == ["zipf"]

    def test_multi_column_rows_compared_as_tuples(self):
        a = Table({"x": [1, 1], "y": ["p", "q"]})
        b = Table({"x": [1], "y": ["q"]})
        out, _ = execute_setop("intersect", False, a, b, CaptureConfig.none())
        assert out.to_rows() == [(1, "q")]
