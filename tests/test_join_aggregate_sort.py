"""Hash join, grouping, sorting."""

import numpy as np
import pytest

from repro.engine import (
    AggregateSpec,
    Batch,
    ColumnRef,
    Compare,
    GroupByOp,
    HashJoinOp,
    Literal,
    SortKey,
    SortOp,
    VectorSourceOp,
)
from repro.engine.join import NestedLoopJoinOp, join_codes, probe_kernel
from repro.storage.column import ColumnVector
from repro.types import DOUBLE, INTEGER, varchar_type


def source(**cols):
    columns = {}
    for name, values in cols.items():
        non_null = [v for v in values if v is not None]
        if non_null and isinstance(non_null[0], str):
            dt = varchar_type(10)
        elif any(isinstance(v, float) for v in non_null):
            dt = DOUBLE
        else:
            dt = INTEGER
        columns[name] = ColumnVector.from_boundary(values, dt)
    return VectorSourceOp(Batch.from_columns(columns))


class TestHashJoin:
    def test_inner_join(self):
        left = source(k=[1, 2, 3, 4], lv=[10, 20, 30, 40])
        right = source(k=[2, 4, 6], rv=[200, 400, 600])
        op = HashJoinOp(left, right, ["k"], ["k"])
        batch = op.run()
        got = sorted(zip(batch.columns["k"].values.tolist(), batch.columns["rv"].values.tolist()))
        assert got == [(2, 200), (4, 400)]

    def test_duplicate_build_keys_multiply(self):
        left = source(k=[1, 1], lv=[10, 11])
        right = source(k=[1, 1], rv=[100, 101])
        assert HashJoinOp(left, right, ["k"], ["k"]).run().n == 4

    def test_null_keys_never_match(self):
        left = source(k=[None, 1], lv=[0, 1])
        right = source(k=[None, 1], rv=[0, 1])
        batch = HashJoinOp(left, right, ["k"], ["k"]).run()
        assert batch.n == 1

    def test_left_outer(self):
        left = source(k=[1, 2, 3], lv=[10, 20, 30])
        right = source(k=[2], rv=[200])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="left").run()
        rows = sorted(
            zip(
                batch.columns["k"].values.tolist(),
                batch.columns["rv"].to_boundary(),
            )
        )
        assert rows == [(1, None), (2, 200), (3, None)]

    def test_right_outer(self):
        left = source(k=[2], lv=[20])
        right = source(k=[1, 2], rv=[100, 200])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="right").run()
        rows = sorted(
            zip(batch.columns["rv"].values.tolist(), batch.columns["lv"].to_boundary())
        )
        assert rows == [(100, None), (200, 20)]

    def test_full_outer(self):
        left = source(k=[1, 2], lv=[10, 20])
        right = source(k=[2, 3], rv=[200, 300])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="full").run()
        assert batch.n == 3

    def test_semi_and_anti(self):
        left = source(k=[1, 2, 3, 4], lv=[1, 2, 3, 4])
        right = source(k=[2, 4, 4], rv=[0, 0, 0])
        semi = HashJoinOp(left, right, ["k"], ["k"], join_type="semi").run()
        assert sorted(semi.columns["k"].values.tolist()) == [2, 4]
        anti = HashJoinOp(left, right, ["k"], ["k"], join_type="anti").run()
        assert sorted(anti.columns["k"].values.tolist()) == [1, 3]

    def test_multi_key(self):
        left = source(a=[1, 1, 2], b=[1, 2, 1], lv=[11, 12, 21])
        right = source(a=[1, 2], b=[2, 1], rv=[100, 200])
        batch = HashJoinOp(left, right, ["a", "b"], ["a", "b"]).run()
        got = sorted(zip(batch.columns["lv"].values.tolist(), batch.columns["rv"].values.tolist()))
        assert got == [(12, 100), (21, 200)]

    def test_residual_condition(self):
        left = source(k=[1, 1], lv=[5, 15])
        right = source(k=[1], rv=[10])
        residual = Compare(">", ColumnRef("lv", INTEGER), ColumnRef("rv", INTEGER))
        batch = HashJoinOp(left, right, ["k"], ["k"], residual=residual).run()
        assert batch.columns["lv"].values.tolist() == [15]

    def test_validation(self):
        left = source(k=[1])
        right = source(k=[1])
        with pytest.raises(ValueError):
            HashJoinOp(left, right, ["k"], ["k"], join_type="sideways")
        with pytest.raises(ValueError):
            HashJoinOp(left, right, [], [])

    def test_empty_sides(self):
        left = source(k=[], lv=[])
        right = source(k=[1], rv=[1])
        assert HashJoinOp(left, right, ["k"], ["k"]).run().n == 0
        assert HashJoinOp(right, left, ["k"], ["k"], join_type="left").run().n == 1


class TestJoinCodes:
    """The encoder and probe kernel behind every HashJoinOp."""

    def test_offset_codes_cover_the_whole_build_range(self):
        probe = source(k=[9, 5, 4, 10, None, 7]).run()
        build = source(k=[5, 7, 7, 9]).run()
        codes, build_rows, build_codes, k = join_codes(probe, build, ["k"], ["k"])
        # Build span 5..9 codes as the offset from 5; k = 5 is "no match"
        # (below or above the span, or NULL).
        assert k == 5
        assert codes.tolist() == [4, 0, 5, 5, 5, 2]
        assert build_rows.tolist() == [0, 1, 2, 3]
        assert build_codes.tolist() == [0, 2, 2, 4]

    def test_union_codes_share_one_space_and_drop_null_parts(self):
        probe = source(a=["x", "y", None, "z"], b=[1, 2, 3, 1]).run()
        build = source(a=["y", "x", "x", None], b=[2, 1, 1, 1]).run()
        codes, build_rows, build_codes, k = join_codes(
            probe, build, ["a", "b"], ["a", "b"]
        )
        assert build_rows.tolist() == [0, 1, 2]
        assert build_codes[1] == build_codes[2] == codes[0]
        assert build_codes[0] == codes[1]
        assert codes[2] == k  # NULL key part never matches
        assert codes[3] not in set(build_codes.tolist())

    def test_probe_kernel_emits_matches_in_build_row_order(self):
        probe_codes = np.array([2, 0, 3, 1, 2], dtype=np.int64)
        build_rows = np.array([0, 2, 3, 4, 5], dtype=np.int64)
        build_codes = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        probe = probe_kernel(probe_codes, build_rows, build_codes, 3)
        li, ri = probe((0, 5))
        assert li.tolist() == [0, 0, 1, 1, 3, 4, 4]
        assert ri.tolist() == [0, 3, 2, 5, 4, 0, 3]
        # Spans concatenate to the one-span answer.
        parts = [probe(span) for span in [(0, 2), (2, 3), (3, 5)]]
        assert np.concatenate([p[0] for p in parts]).tolist() == li.tolist()
        assert np.concatenate([p[1] for p in parts]).tolist() == ri.tolist()

    def test_probe_kernel_unique_build_reads_one_slot_per_code(self):
        probe_codes = np.array([2, 0, 3, 1, 2], dtype=np.int64)
        build_rows = np.array([0, 4, 7], dtype=np.int64)
        build_codes = np.array([2, 0, 1], dtype=np.int64)
        probe = probe_kernel(probe_codes, build_rows, build_codes, 3)
        li, ri = probe((0, 5))
        assert li.tolist() == [0, 1, 3, 4]
        assert ri.tolist() == [0, 4, 7, 0]
        li, ri = probe((3, 5))
        assert li.tolist() == [3, 4]
        assert ri.tolist() == [7, 0]


class TestNestedLoopJoin:
    def test_cross_join(self):
        left = source(a=[1, 2])
        right = source(b=[10, 20, 30])
        batch = NestedLoopJoinOp(left, right, None, join_type="cross").run()
        assert batch.n == 6

    def test_non_equi_condition(self):
        left = source(a=[1, 5])
        right = source(b=[2, 3, 9])
        cond = Compare("<", ColumnRef("a", INTEGER), ColumnRef("b", INTEGER))
        batch = NestedLoopJoinOp(left, right, cond).run()
        pairs = sorted(zip(batch.columns["a"].values.tolist(), batch.columns["b"].values.tolist()))
        assert pairs == [(1, 2), (1, 3), (1, 9), (5, 9)]

    def test_left_with_condition(self):
        left = source(a=[1, 100])
        right = source(b=[2])
        cond = Compare("<", ColumnRef("a", INTEGER), ColumnRef("b", INTEGER))
        batch = NestedLoopJoinOp(left, right, cond, join_type="left").run()
        rows = sorted(zip(batch.columns["a"].values.tolist(), batch.columns["b"].to_boundary()))
        assert rows == [(1, 2), (100, None)]


class TestGroupBy:
    def agg(self, func, column, alias, distinct=False, dt=INTEGER):
        return AggregateSpec(func, [ColumnRef(column, dt)], alias, distinct)

    def test_sum_count_avg(self):
        src = source(g=["a", "b", "a", "b", "a"], v=[1, 2, 3, 4, 5])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", varchar_type(1)))],
            aggregates=[
                self.agg("SUM", "v", "s"),
                AggregateSpec("COUNT", [], "c"),
                self.agg("AVG", "v", "a"),
            ],
        )
        batch = op.run()
        rows = {
            g: (s, c, a)
            for g, s, c, a in zip(
                batch.columns["g"].values.tolist(),
                batch.columns["s"].values.tolist(),
                batch.columns["c"].values.tolist(),
                batch.columns["a"].values.tolist(),
            )
        }
        assert rows["a"] == (9, 3, 3.0)
        assert rows["b"] == (6, 2, 3.0)

    def test_min_max_strings(self):
        src = source(g=[1, 1, 2], s=["pear", "apple", "fig"])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[
                self.agg("MIN", "s", "lo", dt=varchar_type(5)),
                self.agg("MAX", "s", "hi", dt=varchar_type(5)),
            ],
        )
        batch = op.run()
        rows = dict(zip(batch.columns["g"].values.tolist(),
                        zip(batch.columns["lo"].values.tolist(), batch.columns["hi"].values.tolist())))
        assert rows[1] == ("apple", "pear")
        assert rows[2] == ("fig", "fig")

    def test_nulls_ignored_by_aggregates(self):
        src = source(g=[1, 1, 1], v=[10, None, 20])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[self.agg("SUM", "v", "s"), self.agg("COUNT", "v", "c"),
                        AggregateSpec("COUNT", [], "star")],
        )
        batch = op.run()
        assert batch.columns["s"].values[0] == 30
        assert batch.columns["c"].values[0] == 2
        assert batch.columns["star"].values[0] == 3

    def test_all_null_group_yields_null_sum(self):
        src = source(g=[1], v=[None])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        assert op.run().columns["s"].to_boundary() == [None]

    def test_null_key_forms_group(self):
        src = source(g=[None, None, 1], v=[1, 2, 3])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        batch = op.run()
        assert batch.n == 2
        sums = sorted(batch.columns["s"].values.tolist())
        assert sums == [3, 3]

    def test_count_distinct(self):
        src = source(g=[1, 1, 1, 2], v=[5, 5, 7, 5])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("COUNT", "v", "d", distinct=True)])
        batch = op.run()
        rows = dict(zip(batch.columns["g"].values.tolist(), batch.columns["d"].values.tolist()))
        assert rows == {1: 2, 2: 1}

    def test_grand_total_without_keys(self):
        src = source(v=[1.0, 2.0, 3.0, 4.0])
        op = GroupByOp(src, keys=[], aggregates=[
            self.agg("AVG", "v", "m", dt=DOUBLE),
            self.agg("VAR_POP", "v", "vp", dt=DOUBLE),
            self.agg("STDDEV_SAMP", "v", "sd", dt=DOUBLE),
            self.agg("MEDIAN", "v", "md", dt=DOUBLE),
        ])
        batch = op.run()
        assert batch.n == 1
        assert batch.columns["m"].values[0] == pytest.approx(2.5)
        assert batch.columns["vp"].values[0] == pytest.approx(1.25)
        assert batch.columns["sd"].values[0] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert batch.columns["md"].values[0] == pytest.approx(2.5)

    def test_covariance(self):
        src = source(x=[1.0, 2.0, 3.0], y=[2.0, 4.0, 6.0])
        spec = AggregateSpec("COVAR_POP", [ColumnRef("x", DOUBLE), ColumnRef("y", DOUBLE)], "c")
        batch = GroupByOp(src, keys=[], aggregates=[spec]).run()
        assert batch.columns["c"].values[0] == pytest.approx(np.cov([1, 2, 3], [2, 4, 6], bias=True)[0, 1])

    def test_var_samp_singleton_is_null(self):
        src = source(g=[1], v=[5.0])
        spec = AggregateSpec("VAR_SAMP", [ColumnRef("v", DOUBLE)], "vs")
        batch = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))], aggregates=[spec]).run()
        assert batch.columns["vs"].to_boundary() == [None]

    def test_empty_input_with_keys(self):
        src = source(g=[], v=[])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        assert op.run().n == 0

    def test_empty_input_grand_total(self):
        src = source(v=[])
        op = GroupByOp(src, keys=[], aggregates=[AggregateSpec("COUNT", [], "c")])
        batch = op.run()
        assert batch.columns["c"].values.tolist() == [0]


class TestSort:
    def test_single_key_asc(self):
        src = source(v=[3, 1, 2])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run()
        assert batch.columns["v"].values.tolist() == [1, 2, 3]

    def test_desc(self):
        src = source(v=[3, 1, 2])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), ascending=False)]).run()
        assert batch.columns["v"].values.tolist() == [3, 2, 1]

    def test_nulls_last_on_asc_by_default(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run()
        assert batch.columns["v"].to_boundary() == [1, 3, None]

    def test_nulls_first_on_desc_by_default(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), ascending=False)]).run()
        assert batch.columns["v"].to_boundary() == [None, 3, 1]

    def test_explicit_nulls_first(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), nulls_first=True)]).run()
        assert batch.columns["v"].to_boundary() == [None, 1, 3]

    def test_multi_key(self):
        src = source(a=[1, 2, 1, 2], b=[9, 8, 7, 6])
        batch = SortOp(
            src,
            [SortKey(ColumnRef("a", INTEGER)), SortKey(ColumnRef("b", INTEGER), ascending=False)],
        ).run()
        pairs = list(zip(batch.columns["a"].values.tolist(), batch.columns["b"].values.tolist()))
        assert pairs == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_string_sort(self):
        src = source(s=["pear", "apple", "fig"])
        batch = SortOp(src, [SortKey(ColumnRef("s", varchar_type(5)))]).run()
        assert batch.columns["s"].values.tolist() == ["apple", "fig", "pear"]

    def test_stability_preserves_ties(self):
        src = source(a=[1, 1, 1], b=[30, 10, 20])
        batch = SortOp(src, [SortKey(ColumnRef("a", INTEGER))]).run()
        assert batch.columns["b"].values.tolist() == [30, 10, 20]

    def test_empty_input(self):
        src = source(v=[])
        assert SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run().n == 0

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            SortOp(source(v=[1]), [])
