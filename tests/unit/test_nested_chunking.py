"""θ-join chunking: results must not depend on the chunk boundary."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.exec.vector.nested import theta_matches
from repro.lineage.capture import CaptureMode
from repro.plan.logical import CrossProduct, Scan, ThetaJoin, col
from repro.plan.schema import join_output_fields
from repro.storage import Table


@pytest.fixture
def tables(rng):
    left = Table({"a": rng.integers(0, 50, 137)})
    right = Table({"b": rng.integers(0, 50, 23)})
    return left, right


def _names(left, right):
    fields = join_output_fields(left.schema, right.schema)
    src = left.schema.names + right.schema.names
    return [(n, s) for (n, _, _), s in zip(fields, src, strict=True)]


class TestThetaChunking:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1 << 14])
    def test_matches_invariant_under_chunk_size(self, tables, chunk_rows):
        left, right = tables
        names = _names(left, right)
        predicate = col("a") > col("b")
        reference = theta_matches(left, right, predicate, names, None)
        got = theta_matches(
            left, right, predicate, names, None, chunk_rows=chunk_rows
        )
        assert np.array_equal(got.out_left, reference.out_left)
        assert np.array_equal(got.out_right, reference.out_right)

    def test_left_major_output_order(self, tables):
        left, right = tables
        matches = theta_matches(
            left, right, col("a") > col("b"), _names(left, right), None
        )
        assert (np.diff(matches.out_left) >= 0).all()

    def test_count_against_nested_loops(self, tables):
        left, right = tables
        matches = theta_matches(
            left, right, col("a") > col("b"), _names(left, right), None
        )
        expected = sum(
            1
            for a in left.column("a")
            for b in right.column("b")
            if a > b
        )
        assert matches.num_out == expected

    def test_predicate_touching_both_sides_with_rename(self, small_db):
        # zipf θ-join zipf2 on z < z_r: right-side z is renamed.
        plan = ThetaJoin(Scan("zipf"), Scan("zipf2"), col("z") < col("z_r"))
        res = small_db.execute(plan, options=ExecOptions(capture=CaptureMode.INJECT))
        assert (res.table.column("z") < res.table.column("z_r")).all()

    def test_cross_product_row_count(self, tables, small_db):
        plan = CrossProduct(Scan("gids"), Scan("gids"))
        res = small_db.execute(plan)
        assert len(res) == 400
