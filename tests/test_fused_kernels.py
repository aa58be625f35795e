"""Property tests: fused vectorized region kernels == the row engine.

The fused reduce (``repro.engine.fused``) compiles a group-by's
predicate -> project -> aggregate chain into single numpy passes per
span and merges spans with exact arithmetic.  Every parallel-safe
``GroupByOp`` — pooled or pool-less, at any DOP — runs it, so the
independent reference here is the row-at-a-time
:class:`~repro.engine.row_engine.RowGroupBy`.  These tests drive both
over hypothesis-random inputs — including all-NULL key columns, empty
inputs, post-filter empty morsels, and mixed-codec regions — and require
*ordered* equality: the reference rows sort into the group output order
(NULL first, then ascending, per key column).  SQL-level regressions pin
wide multi-column keys (radix re-densification) at DOP 1, 2 and 4.

Floats are deliberately absent: ``parallel_safe()`` sends
float-accumulating aggregates and approximate keys to the one-pass
reduce (NaN ordering and re-association hazards), so the fused kernels
never see them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggregateSpec,
    Batch,
    ColumnRef,
    Compare,
    GroupByOp,
    Literal,
    VectorSourceOp,
)
from repro.engine import fused
from repro.engine.expression import make_arith
from repro.engine.operators import FilterOp, ProjectOp, SimplePredicate, TableScanOp
from repro.engine.row_engine import RowFilter, RowGroupBy, RowProject, RowSource
from repro.parallel import WorkerPool
from repro.simd import factorize
from repro.storage import ColumnTable, TableSchema
from repro.storage.column import ColumnVector
from repro.types import BIGINT, INTEGER, varchar_type

_VARCHAR = varchar_type(4)
_MORSEL_ROWS = 13

_INTS = st.one_of(st.none(), st.integers(-50, 50))
_STRS = st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc", "v1", "v2"]))

_KEY_CHOICES = {
    "none": [],
    "int": [("kg", ColumnRef("g", INTEGER))],
    "str": [("ks", ColumnRef("s", _VARCHAR))],
    "int+str": [("kg", ColumnRef("g", INTEGER)), ("ks", ColumnRef("s", _VARCHAR))],
    "str+int": [("ks", ColumnRef("s", _VARCHAR)), ("kg", ColumnRef("g", INTEGER))],
}

_AGG_CHOICES = {
    "count_star": AggregateSpec("COUNT", [], "a_rows"),
    "count_x": AggregateSpec("COUNT", [ColumnRef("x", INTEGER)], "a_cnt"),
    "sum_x": AggregateSpec("SUM", [ColumnRef("x", INTEGER)], "a_sum"),
    "avg_x": AggregateSpec("AVG", [ColumnRef("x", INTEGER)], "a_avg"),
    "min_x": AggregateSpec("MIN", [ColumnRef("x", INTEGER)], "a_min"),
    "max_x": AggregateSpec("MAX", [ColumnRef("x", INTEGER)], "a_max"),
    "min_s": AggregateSpec("MIN", [ColumnRef("s", _VARCHAR)], "a_smin"),
    "max_s": AggregateSpec("MAX", [ColumnRef("s", _VARCHAR)], "a_smax"),
}


@st.composite
def _cases(draw):
    n = draw(st.integers(0, 120))
    if draw(st.booleans()):  # all-NULL key column case
        g = [None] * n
    else:
        g = draw(st.lists(_INTS, min_size=n, max_size=n))
    s = draw(st.lists(_STRS, min_size=n, max_size=n))
    x = draw(st.lists(_INTS, min_size=n, max_size=n))
    keys = _KEY_CHOICES[draw(st.sampled_from(sorted(_KEY_CHOICES)))]
    agg_names = draw(
        st.lists(st.sampled_from(sorted(_AGG_CHOICES)), min_size=1,
                 max_size=4, unique=True)
    )
    aggregates = [_AGG_CHOICES[name] for name in agg_names]
    # Optional predicate: g/x thresholds; can eliminate every row so the
    # group-by sees an empty (but schema-bearing) batch.
    predicate = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["g", "x"]),
                st.sampled_from(["<", ">=", "="]),
                st.integers(-60, 60),
            ),
        )
    )
    return n, g, s, x, keys, aggregates, predicate


def _source(g, s, x):
    return VectorSourceOp(
        Batch.from_columns(
            {
                "g": ColumnVector.from_boundary(g, INTEGER),
                "s": ColumnVector.from_boundary(s, _VARCHAR),
                "x": ColumnVector.from_boundary(x, INTEGER),
            }
        )
    )


def _predicate_expr(predicate):
    column, cmp_op, value = predicate
    return Compare(cmp_op, ColumnRef(column, INTEGER), Literal(value, INTEGER))


def _child(g, s, x, predicate):
    op = _source(g, s, x)
    if predicate is not None:
        op = FilterOp(op, _predicate_expr(predicate))
    return op


def _rows(batch, aliases):
    columns = [batch.columns[alias].to_boundary() for alias in aliases]
    return list(zip(*columns)) if columns else []


def _group_order(row, n_keys):
    """Group output order: per key column NULL first, then ascending."""
    return tuple((0,) if v is None else (1, v) for v in row[:n_keys])


def _reference(g, s, x, keys, aggregates, predicate=None, outputs=None):
    """Row-engine answer, sorted into the group output order."""
    op = RowSource([{"g": a, "s": b, "x": c} for a, b, c in zip(g, s, x)])
    if predicate is not None:
        op = RowFilter(op, _predicate_expr(predicate))
    if outputs is not None:
        op = RowProject(op, outputs)
    aliases = [alias for alias, _ in keys] + [spec.alias for spec in aggregates]
    rows = [tuple(row[a] for a in aliases) for row in RowGroupBy(op, keys, aggregates).rows()]
    return sorted(rows, key=lambda row: _group_order(row, len(keys)))


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(4, name="fused-test")
    yield p
    p.shutdown()


@given(case=_cases())
@settings(max_examples=120, deadline=None)
def test_fused_reduce_matches_serial(case, pool):
    n, g, s, x, keys, aggregates, predicate = case
    aliases = [alias for alias, _ in keys] + [spec.alias for spec in aggregates]
    expected = _reference(g, s, x, keys, aggregates, predicate)
    for pool_arg in (pool, None):
        op = GroupByOp(
            _child(g, s, x, predicate),
            keys=keys,
            aggregates=aggregates,
            pool=pool_arg,
            morsel_rows=_MORSEL_ROWS,
        )
        assert _rows(op.run(), aliases) == expected
        # Parallel-safe plans take the fused reduce whatever the pool.
        assert op.fused_mode == "batch-agg"


@given(
    values=st.lists(st.integers(-10_000, 10_000), min_size=0, max_size=200),
    null_bits=st.lists(st.booleans(), min_size=0, max_size=200),
)
@settings(max_examples=120, deadline=None)
def test_factorize_contract(values, null_bits):
    """NULL -> code 0; live values -> dense codes 1..k in ascending order."""
    n = min(len(values), len(null_bits))
    array = np.asarray(values[:n], dtype=np.int64)
    nulls = np.asarray(null_bits[:n], dtype=bool)
    codes, uniques = factorize(array, nulls if nulls.any() else None)
    live = array[~nulls] if nulls.any() else array
    assert uniques.tolist() == sorted(set(live.tolist()))
    expected_rank = {v: i + 1 for i, v in enumerate(uniques.tolist())}
    for i in range(n):
        if nulls[i]:
            assert codes[i] == 0
        else:
            assert codes[i] == expected_rank[int(array[i])]


@given(
    n_keys=st.integers(1, 12),
    rows=st.lists(
        st.lists(st.one_of(st.none(), st.integers(-(2**40), 2**40)), min_size=12, max_size=12),
        min_size=0,
        max_size=60,
    ),
)
@settings(max_examples=120, deadline=None)
def test_group_codes_never_overflow(n_keys, rows):
    """``group_codes`` over up to 12 wide columns (radix products far past
    2**64): equal ids iff equal keys, ids ascend in NULL-first key order,
    and each group's key columns hold its key."""
    keys = [tuple(row[:n_keys]) for row in rows]
    pairs = []
    for c in range(n_keys):
        column = [key[c] for key in keys]
        nulls = np.array([v is None for v in column], dtype=bool)
        values = np.array([0 if v is None else v for v in column], dtype=np.int64)
        pairs.append((values, nulls if nulls.any() else None))
    ids, key_cols, k = fused.group_codes(pairs)
    distinct = sorted(set(keys), key=lambda key: _group_order(key, n_keys))
    assert k == len(distinct)
    assert [distinct[g] for g in ids.tolist()] == keys
    for c, (values, nulls) in enumerate(key_cols):
        got = [None if nulls is not None and nulls[g] else int(values[g]) for g in range(k)]
        assert got == [key[c] for key in distinct]


def test_scan_agg_fusion_matches_row_engine(pool):
    """Scan->aggregate fusion over a filter->project chain on a
    multi-region table: compiles, runs fused, matches the row engine —
    also for a COUNT(*)-only plan, whose pruned projection keeps one
    column as the row-count carrier, and with the predicate pushed into
    the scan, where synopsis skipping returns no batch for whole
    regions."""
    g = [None if i % 11 == 0 else i % 4 for i in range(300)]
    s = [None if i % 7 == 0 else ["aa", "bb", "cc"][i % 3] for i in range(300)]
    x = [None if i % 13 == 0 else i - 150 for i in range(300)]
    table = ColumnTable(
        TableSchema(name="f", columns=(("g", INTEGER), ("s", _VARCHAR), ("x", INTEGER))),
        region_rows=64,
    )
    table.insert_rows(list(zip(g, s, x)))
    table.flush()
    outputs = [
        ("g", ColumnRef("g", INTEGER)),
        ("s", ColumnRef("s", _VARCHAR)),
        ("y", make_arith("+", ColumnRef("x", INTEGER), Literal(7, INTEGER))),
    ]
    mixed = [
        _AGG_CHOICES["count_star"],
        AggregateSpec("SUM", [ColumnRef("y", INTEGER)], "a_sum"),
        AggregateSpec("MAX", [ColumnRef("y", INTEGER)], "a_max"),
        _AGG_CHOICES["min_s"],
    ]
    cases = [
        (_KEY_CHOICES["int+str"], mixed, ("x", ">", -100), False),
        ([], [_AGG_CHOICES["count_star"]], ("x", ">", -100), False),
        # x > 60 rules out the first three 64-row regions by synopsis;
        # x > 147 leaves one row in the last region and skips the rest.
        (_KEY_CHOICES["int+str"], mixed, ("x", ">", 60), True),
        (_KEY_CHOICES["int+str"], mixed, ("x", ">", 147), True),
    ]
    for keys, aggregates, predicate, push in cases:
        pushed = [SimplePredicate(*predicate)] if push else None
        scan = TableScanOp(table, ["g", "s", "x"], pushed=pushed, pool=pool)
        op = GroupByOp(
            ProjectOp(FilterOp(scan, _predicate_expr(predicate)), outputs),
            keys=keys,
            aggregates=aggregates,
            pool=pool,
            morsel_rows=_MORSEL_ROWS,
        )
        plan = fused.match_scan_agg(op)
        assert plan is not None
        columns, n_groups, input_rows = fused.execute_scan_agg(op, plan)
        assert op.fused_mode == "scan-agg"
        aliases = [alias for alias, _ in keys] + [spec.alias for spec in aggregates]
        expected = _reference(g, s, x, keys, aggregates, predicate, outputs)
        assert _rows(Batch.from_columns(columns), aliases) == expected
        assert n_groups == len(expected)
        assert input_rows == sum(1 for v in x if v is not None and v > predicate[2])


def test_empty_input_matches_serial(pool):
    keys = _KEY_CHOICES["int+str"]
    aggregates = [_AGG_CHOICES["count_star"], _AGG_CHOICES["sum_x"]]
    par = GroupByOp(
        _source([], [], []), keys=keys, aggregates=aggregates,
        pool=pool, morsel_rows=_MORSEL_ROWS,
    ).run()
    aliases = ["kg", "ks", "a_rows", "a_sum"]
    assert _rows(par, aliases) == _reference([], [], [], keys, aggregates) == []
    total = GroupByOp(
        _source([], [], []), keys=[], aggregates=aggregates,
        pool=pool, morsel_rows=_MORSEL_ROWS,
    ).run()
    assert _rows(total, ["a_rows", "a_sum"]) == _reference(
        [], [], [], [], aggregates
    ) == [(0, None)]


def test_projected_chain_matches_serial(pool):
    """A project step between filter and group-by (computed column)."""
    g = [i % 5 for i in range(90)]
    s = ["aa"] * 90
    x = [i * 3 - 40 for i in range(90)]
    predicate = ("x", ">", -20)
    outputs = [
        ("g", ColumnRef("g", INTEGER)),
        ("y", make_arith("+", ColumnRef("x", INTEGER), Literal(7, INTEGER))),
    ]
    keys = [("kg", ColumnRef("g", INTEGER))]
    aggregates = [
        AggregateSpec("SUM", [ColumnRef("y", INTEGER)], "a_sum"),
        AggregateSpec("AVG", [ColumnRef("y", INTEGER)], "a_avg"),
    ]
    op = GroupByOp(
        ProjectOp(_child(g, s, x, predicate), outputs),
        keys=keys,
        aggregates=aggregates,
        pool=pool,
        morsel_rows=_MORSEL_ROWS,
    )
    expected = _reference(g, s, x, keys, aggregates, predicate, outputs)
    assert _rows(op.run(), ["kg", "a_sum", "a_avg"]) == expected


def test_merge_fused_handles_span_with_no_rows(pool):
    """Spans whose morsels are empty after filtering still merge exactly."""
    # 40 rows, but the predicate keeps only rows in the last morsel.
    g = [1] * 39 + [2]
    s = ["aa"] * 40
    x = list(range(40))
    predicate = ("x", ">=", 39)
    keys = [("kg", ColumnRef("g", INTEGER))]
    aggregates = [_AGG_CHOICES["count_star"]]
    fused_op = GroupByOp(
        _child(g, s, x, predicate),
        keys=keys,
        aggregates=aggregates,
        pool=pool,
        morsel_rows=5,
    )
    expected = _reference(g, s, x, keys, aggregates, predicate)
    assert _rows(fused_op.run(), ["kg", "a_rows"]) == expected == [(2, 1)]


# 20,000 rows: j runs 0..19999 and i runs 0..4999 four times (i == j for
# j < 5000).  625 literal rows, doubled by INSERT ... SELECT.
_NUMBERS = [
    "CREATE TABLE n (i BIGINT, j BIGINT)",
    "INSERT INTO n VALUES " + ", ".join("(%d, %d)" % (i, i) for i in range(625)),
    "INSERT INTO n SELECT i + 625, j + 625 FROM n",
    "INSERT INTO n SELECT i + 1250, j + 1250 FROM n",
    "INSERT INTO n SELECT i + 2500, j + 2500 FROM n",
    "INSERT INTO n SELECT i, j + 5000 FROM n",
    "INSERT INTO n SELECT i, j + 10000 FROM n",
]

_WIDE_DDL = (
    "CREATE TABLE w (a BIGINT, b BIGINT, c BIGINT, d BIGINT, e BIGINT,"
    " f BIGINT, v BIGINT)"
)


def _dop_answers(load, queries):
    """Each query's rows at DOP 1, 2 and 4, plus the RowDatabase answer.

    ``load`` fills table ``w`` from the numbers table ``n``."""
    from repro.baselines.rowdb import RowDatabase
    from repro.database import Database
    from repro.workloads.tpcds import flush_tables

    statements = _NUMBERS + [_WIDE_DDL] + load
    rowdb = RowDatabase()
    for statement in statements:
        rowdb.execute(statement)
    answers = {"row": [rowdb.execute(sql).rows for sql in queries]}
    for dop in (1, 2, 4):
        database = Database(parallelism=dop, morsel_rows=257, region_rows=4096)
        try:
            session = database.connect("db2")
            for statement in statements:
                session.execute(statement)
            flush_tables(database)
            answers[dop] = [session.execute(sql).rows for sql in queries]
        finally:
            database.pool.shutdown()
    return answers


def test_wide_group_keys_never_collide():
    """Six BIGINT keys whose radix product passes 2**64 keep every group.

    Rows (i, i, i, i, i, i) for i < 2047 plus (512, 0, 0, 0, 0, 0): with
    2,047 values (radix 2,048) per column, unchecked int64 packing maps the
    extra row onto (0, 0, 0, 0, 0, 0), as 512 * 2048**5 == 2**64.
    ``group_codes`` re-densifies the packed prefix instead, so the fused
    reduce, the one-pass reduce and DISTINCT all see 2,048 groups.
    """
    load = [
        "INSERT INTO w SELECT j, j, j, j, j, j, j FROM n WHERE j < 2047",
        "INSERT INTO w VALUES (512, 0, 0, 0, 0, 0, 7)",
    ]
    queries = [
        "SELECT a, b, c, d, e, f, COUNT(*), SUM(v) FROM w GROUP BY a, b, c, d, e, f",
        "SELECT a, b, c, d, e, f, COUNT(DISTINCT v) FROM w GROUP BY a, b, c, d, e, f",
        "SELECT DISTINCT a, b, c, d, e, f FROM w",
    ]
    answers = _dop_answers(load, queries)
    for q, sql in enumerate(queries):
        assert len(answers["row"][q]) == 2048, sql
        for dop in (1, 2, 4):
            assert len(answers[dop][q]) == 2048, (dop, sql)
            assert answers[dop][q] == answers[1][q], (dop, sql)
        assert sorted(answers[1][q]) == sorted(answers["row"][q]), sql


def test_six_key_group_order_identical_at_every_dop():
    """A 20k-row six-key SUM(BIGINT) returns identical ordered rows at DOP
    1, 2 and 4, in ascending key order, and agrees with the row engine.

    5,000 groups of four rows; 5,000 values per key column overflow the
    int64 radix product at the sixth column."""
    load = [
        "INSERT INTO w SELECT i * 7919, 5000 - i, i * i, i * 3 - 7000,"
        " 2 - i * 11, i * 101, j * 13 - 130000 FROM n"
    ]
    sql = "SELECT a, b, c, d, e, f, SUM(v) FROM w GROUP BY a, b, c, d, e, f"
    answers = _dop_answers(load, [sql])
    got = answers[1][0]
    assert len(got) == 5000
    assert got == sorted(got)
    assert answers[2][0] == got
    assert answers[4][0] == got
    assert sorted(answers["row"][0]) == got


def test_mixed_codec_regions_agree():
    """Scan->aggregate fusion over regions whose columns compress with
    *different* codecs (constant, low-cardinality dictionary, sequential,
    wide-random) must match the serial engine exactly."""
    from repro.database import Database
    from repro.workloads.tpcds import flush_tables

    ddl = (
        "CREATE TABLE mix (konst INT, tag VARCHAR(4), seq INT, wide INT, val INT)"
    )
    rng = np.random.default_rng(11)
    rows = []
    for i in range(4000):
        tag = "NULL" if i % 37 == 0 else "'t%d'" % (i % 6)
        wide = int(rng.integers(-(10 ** 8), 10 ** 8))
        val = "NULL" if i % 23 == 0 else str(int(rng.integers(-500, 500)))
        rows.append("(7, %s, %d, %d, %s)" % (tag, i, wide, val))
    serial = Database(region_rows=512).connect("db2")
    par_db = Database(parallelism=4, morsel_rows=257, region_rows=512)
    par = par_db.connect("db2")
    for system in (serial, par):
        system.execute(ddl)
        for start in range(0, len(rows), 500):
            system.execute(
                "INSERT INTO mix VALUES " + ", ".join(rows[start : start + 500])
            )
        flush_tables(system.database)
    table = par.database.catalog.get_table("MIX").table
    codecs = {
        name: type(compressed.codec).__name__
        for name, compressed in table.regions[0].columns.items()
    }
    assert len(set(codecs.values())) >= 2, "regions are not mixed-codec: %s" % codecs
    queries = [
        "SELECT tag, COUNT(*), SUM(val), MIN(wide), MAX(seq), AVG(val)"
        " FROM mix GROUP BY tag ORDER BY 1",
        "SELECT konst, COUNT(val) FROM mix GROUP BY konst",
        "SELECT COUNT(*), MIN(tag), MAX(tag) FROM mix WHERE seq >= 1000",
        "SELECT tag, AVG(seq) FROM mix WHERE wide > 0 AND val < 250"
        " GROUP BY tag ORDER BY 1",
    ]
    for sql in queries:
        assert serial.execute(sql).rows == par.execute(sql).rows, sql
    plan = "\n".join(
        row[0] for row in par.execute("EXPLAIN ANALYZE " + queries[0]).rows
    )
    assert "fused=scan-agg" in plan, plan
    par_db.pool.shutdown()
