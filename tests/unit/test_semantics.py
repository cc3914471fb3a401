"""Which/why/how provenance semantics (Appendix E)."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.lineage.semantics import (
    how_provenance,
    which_provenance,
    why_provenance,
)
from repro.plan.logical import AggCall, GroupBy, HashJoin, Scan, col
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def appendix_e_db():
    """The exact example of Appendix E: customers A joined with orders B."""
    db = Database()
    db.create_table(
        "A",
        Table({"cid": [1, 2], "cname": ["Bob", "Alice"]}),
    )
    db.create_table(
        "B",
        Table(
            {
                "oid": [1, 2, 3],
                "cid": [1, 1, 2],
                "pname": ["iPhone", "iPhone", "XBox"],
            }
        ),
    )
    return db


@pytest.fixture
def appendix_e_result(appendix_e_db):
    plan = GroupBy(
        HashJoin(Scan("A"), Scan("B"), ("cid",), ("cid",), pkfk=True),
        keys=[(col("cname"), "cname"), (col("pname"), "pname")],
        aggs=[AggCall("count", None, "cnt")],
    )
    return appendix_e_db.execute(plan, options=INJECT)


class TestAppendixEExample:
    def test_output_shape(self, appendix_e_result):
        rows = {
            (r[0], r[1]): r[2] for r in appendix_e_result.table.to_rows()
        }
        assert rows == {("Bob", "iPhone"): 2, ("Alice", "XBox"): 1}

    def test_backward_bag_duplicates_a1(self, appendix_e_result):
        """Appendix E: o1's backward index for A contains a1 *twice*."""
        o1 = _rid_of(appendix_e_result, "Bob")
        bag = appendix_e_result.lineage.backward_bag([o1], "A")
        assert bag.tolist() == [0, 0]

    def test_which_provenance(self, appendix_e_result):
        o1 = _rid_of(appendix_e_result, "Bob")
        which = which_provenance(appendix_e_result.lineage, o1, ["A", "B"])
        assert which["A"].tolist() == [0]
        assert which["B"].tolist() == [0, 1]

    def test_why_provenance(self, appendix_e_result):
        o1 = _rid_of(appendix_e_result, "Bob")
        witnesses = why_provenance(appendix_e_result.lineage, o1, ["A", "B"])
        assert witnesses == [
            (("A", 0), ("B", 0)),
            (("A", 0), ("B", 1)),
        ]

    def test_how_provenance_polynomial(self, appendix_e_result):
        o1 = _rid_of(appendix_e_result, "Bob")
        how = how_provenance(appendix_e_result.lineage, o1, ["A", "B"])
        # a1 · (b1 + b2) distributes to a1·b1 + a1·b2.
        assert how == "a1·b1 + a1·b2"

    def test_how_provenance_single_witness(self, appendix_e_result):
        o2 = _rid_of(appendix_e_result, "Alice")
        how = how_provenance(appendix_e_result.lineage, o2, ["A", "B"])
        assert how == "a2·b3"


class TestGeneral:
    def test_which_over_single_relation(self, small_db):
        plan = GroupBy(
            Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
        )
        res = small_db.execute(plan, options=INJECT)
        which = which_provenance(res.lineage, 0, ["zipf"])
        assert np.array_equal(which["zipf"], res.backward([0], "zipf"))

    def test_why_repeated_witness_collapses(self, appendix_e_db):
        # Duplicate join partners produce multiset lineage but distinct
        # witness sets.
        plan = GroupBy(
            HashJoin(Scan("A"), Scan("B"), ("cid",), ("cid",), pkfk=True),
            keys=[(col("cname"), "cname")],
            aggs=[AggCall("count", None, "cnt")],
        )
        res = appendix_e_db.execute(plan, options=INJECT)
        o = _rid_of(res, "Bob")
        witnesses = why_provenance(res.lineage, o, ["A", "B"])
        assert len(witnesses) == 2


def _rid_of(result, cname: str) -> int:
    names = result.table.column("cname")
    return int(np.nonzero(names == cname)[0][0])
