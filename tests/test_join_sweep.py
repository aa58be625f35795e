"""Hash joins and set operations at DOP 1, 2 and 4 against independent oracles.

Every key shape the join encoder distinguishes — unique, duplicate, sparse
and NULL int64 keys, strings, mixed INT/DOUBLE, and six wide BIGINT keys
whose radix product passes 2**64 — runs through SQL on three columnar
engines (DOP 1, 2, 4) and is checked two ways: the three engines return
identical rows in identical order, and the row multiset matches a Python
dict-join oracle (plus the row-store engine for inner joins).  Probe sides
of the larger cases exceed one 8,192-row morsel, so DOP 2 and 4 really
split the probe into spans.  Semi and anti joins, which no SQL shape plans
today, are swept at the operator level.
"""

from __future__ import annotations

import pytest

from repro.baselines.rowdb import RowDatabase
from repro.database import Database
from repro.engine import Batch, HashJoinOp, VectorSourceOp
from repro.parallel.pool import WorkerPool
from repro.storage.column import ColumnVector
from repro.types import BIGINT, DOUBLE, INTEGER, varchar_type
from repro.util.rng import derive_rng

DOPS = (1, 2, 4)
PROBE_ROWS = 9_000  # > one default morsel: DOP 2/4 probe in two spans


def _maybe_null(rng, value, rate):
    return None if rate and rng.random() < rate else value


def _unique_int(rng):
    right = [(k,) for k in range(-100, 100)]
    left = [(int(rng.integers(-130, 130)),) for _ in range(PROBE_ROWS)]
    return ["BIGINT"], ["BIGINT"], left, right


def _duplicate_int(rng):
    right = [(int(rng.integers(0, 150)),) for _ in range(300)]
    left = [(int(rng.integers(0, 180)),) for _ in range(PROBE_ROWS)]
    return ["BIGINT"], ["BIGINT"], left, right


def _sparse_int(rng):
    keys = [int(rng.integers(-10**15, 10**15)) for _ in range(120)]
    right = [(keys[int(rng.integers(0, len(keys)))],) for _ in range(200)]
    left = [
        (keys[int(rng.integers(0, len(keys)))] if rng.random() < 0.7
         else int(rng.integers(-10**15, 10**15)),)
        for _ in range(PROBE_ROWS)
    ]
    return ["BIGINT"], ["BIGINT"], left, right


def _null_int(rng):
    right = [(_maybe_null(rng, int(rng.integers(0, 150)), 0.1),) for _ in range(200)]
    left = [(_maybe_null(rng, int(rng.integers(0, 200)), 0.1),) for _ in range(PROBE_ROWS)]
    return ["BIGINT"], ["BIGINT"], left, right


def _strings(rng):
    def key(hi):
        return _maybe_null(rng, "s%03d" % rng.integers(0, hi), 0.05)

    right = [(key(150),) for _ in range(200)]
    left = [(key(200),) for _ in range(PROBE_ROWS)]
    return ["VARCHAR(8)"], ["VARCHAR(8)"], left, right


def _mixed_int_double(rng):
    right = [(_maybe_null(rng, int(rng.integers(0, 60)) / 2.0, 0.05),) for _ in range(150)]
    left = [(_maybe_null(rng, int(rng.integers(0, 40)), 0.05),) for _ in range(2_000)]
    return ["INT"], ["DOUBLE"], left, right


def _six_key_wrap(rng):
    # 512 * 2048**5 == 2**64: unchecked int64 radix packing maps
    # (512, 0, 0, 0, 0, 0) onto the code of (0, 0, 0, 0, 0, 0).
    right = [(i,) * 6 for i in range(2048)]
    left = [(512, 0, 0, 0, 0, 0), (2,) * 6, (0,) * 6]
    return ["BIGINT"] * 6, ["BIGINT"] * 6, left, right


CASES = {
    "unique-int": _unique_int,
    "duplicate-int": _duplicate_int,
    "sparse-int": _sparse_int,
    "null-int": _null_int,
    "strings": _strings,
    "mixed-int-double": _mixed_int_double,
    "six-key-wrap": _six_key_wrap,
}

SQL_JOINS = {
    "inner": "JOIN",
    "left": "LEFT JOIN",
    "right": "RIGHT JOIN",
    "full": "FULL JOIN",
}


def _load(databases, sessions, rowdb, name, key_types, keys, payload):
    """Create one table on every engine and bulk-load its rows."""
    columns = ", ".join("k%d %s" % (i, t) for i, t in enumerate(key_types))
    for system in sessions + [rowdb]:
        system.execute("CREATE TABLE %s (%s, %s INT)" % (name, columns, payload))
    rows = [key + (i,) for i, key in enumerate(keys)]
    for db in databases:
        db.catalog.get_table(name.upper()).table.insert_rows(rows)
    rowdb.table(name).insert_rows(rows)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    name = request.param
    left_types, right_types, left, right = CASES[name](derive_rng(0, "join-" + name))
    databases = [Database(parallelism=dop) for dop in DOPS]
    sessions = [db.connect("db2") for db in databases]
    rowdb = RowDatabase()
    _load(databases, sessions, rowdb, "l", left_types, left, "v")
    _load(databases, sessions, rowdb, "r", right_types, right, "w")
    yield name, left, right, sessions, rowdb
    for db in databases:
        db.pool.shutdown()


def _oracle(left, right, kind, residual=False):
    """(v, w) pairs of ``left <kind> JOIN right``: a dict join on key tuples
    where a NULL key part never matches (3 == 3.0 as Python compares)."""
    index: dict = {}
    for w, key in enumerate(right):
        if None not in key:
            index.setdefault(key, []).append(w)
    out = []
    matched = set()
    for v, key in enumerate(left):
        hits = [] if None in key else index.get(key, [])
        if residual:
            hits = [w for w in hits if v > w]
        out.extend((v, w) for w in hits)
        matched.update(hits)
        if not hits and kind in ("left", "full"):
            out.append((v, None))
    if kind in ("right", "full"):
        out.extend((None, w) for w in range(len(right)) if w not in matched)
    return out


def _sorted(rows):
    return sorted(rows, key=lambda r: tuple((x is None, x or 0) for x in r))


def _on(n_keys, residual):
    terms = ["l.k%d = r.k%d" % (i, i) for i in range(n_keys)]
    if residual:
        terms.append("l.v > r.w")
    return " AND ".join(terms)


@pytest.mark.parametrize("residual", [False, True], ids=["equi", "residual"])
@pytest.mark.parametrize("kind", sorted(SQL_JOINS))
def test_sql_join_sweep(case, kind, residual):
    name, left, right, sessions, rowdb = case
    sql = "SELECT l.v, r.w FROM l %s r ON %s" % (
        SQL_JOINS[kind], _on(len(left[0]), residual)
    )
    runs = [s.execute(sql).rows for s in sessions]
    assert runs[1] == runs[0], "DOP 2 differs from DOP 1: " + sql
    assert runs[2] == runs[0], "DOP 4 differs from DOP 1: " + sql
    expected = _sorted(_oracle(left, right, kind, residual))
    assert _sorted(runs[0]) == expected, sql
    if kind == "inner":
        assert _sorted(rowdb.execute(sql).rows) == expected, sql


def _vector(values, sql_type):
    dtype = {
        "BIGINT": BIGINT, "INT": INTEGER, "DOUBLE": DOUBLE,
    }.get(sql_type) or varchar_type(8)
    return ColumnVector.from_boundary(list(values), dtype)


def _batch(rows, key_types, payload):
    columns = {
        "%s%d" % (payload, i): _vector([row[i] for row in rows], t)
        for i, t in enumerate(key_types)
    }
    columns[payload] = _vector(range(len(rows)), "BIGINT")
    return Batch.from_columns(columns)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("kind", ["semi", "anti"])
def test_operator_semi_anti_sweep(name, kind):
    left_types, right_types, left, right = CASES[name](derive_rng(0, "join-" + name))
    probe = _batch(left, left_types, "v")
    build = _batch(right, right_types, "w")
    n_keys = len(left_types)
    matched = {v for v, _ in _oracle(left, right, "inner")}
    keep = (lambda v: v in matched) if kind == "semi" else (lambda v: v not in matched)
    expected = [v for v in range(len(left)) if keep(v)]
    for dop in DOPS:
        pool = WorkerPool(dop)
        op = HashJoinOp(
            VectorSourceOp(probe), VectorSourceOp(build),
            ["v%d" % i for i in range(n_keys)], ["w%d" % i for i in range(n_keys)],
            join_type=kind, pool=pool,
        )
        out = op.run()
        pool.shutdown()
        got = out.columns["v"].values.tolist() if out.n else []
        assert got == expected, (name, kind, dop)


# -- set operations: NULLs are not distinct -------------------------------------

_SET_ROWS = "(1, NULL), (2, 2), (NULL, NULL)"


@pytest.fixture(scope="module")
def set_sessions():
    databases = [Database(parallelism=dop) for dop in DOPS]
    sessions = [db.connect("db2") for db in databases]
    keys = ", ".join("k%d BIGINT" % i for i in range(6))
    for s in sessions:
        for table in ("s", "u"):
            s.execute("CREATE TABLE %s (x INT, y INT)" % table)
            s.execute("INSERT INTO %s VALUES %s" % (table, _SET_ROWS))
        s.execute("CREATE TABLE e (x INT, y INT)")
        s.execute("INSERT INTO e VALUES (2, 2)")
        s.execute("CREATE TABLE wa (%s)" % keys)
        s.execute("INSERT INTO wa VALUES (512, 0, 0, 0, 0, 0), (2, 2, 2, 2, 2, 2)")
        s.execute("CREATE TABLE wb (%s)" % keys)
    for db in databases:
        db.catalog.get_table("WB").table.insert_rows([(i,) * 6 for i in range(2048)])
    yield sessions
    for db in databases:
        db.pool.shutdown()


_WIDE = "SELECT k0, k1, k2, k3, k4, k5 FROM "


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT x, y FROM s INTERSECT SELECT x, y FROM u",
         [(None, None), (1, None), (2, 2)]),
        ("SELECT x, y FROM s EXCEPT SELECT x, y FROM u", []),
        ("SELECT x, y FROM s EXCEPT SELECT x, y FROM e",
         [(None, None), (1, None)]),
        ("SELECT x, y FROM s INTERSECT SELECT x, y FROM e", [(2, 2)]),
        (_WIDE + "wa INTERSECT " + _WIDE + "wb", [(2,) * 6]),
        (_WIDE + "wa EXCEPT " + _WIDE + "wb", [(512, 0, 0, 0, 0, 0)]),
    ],
    ids=["intersect-nulls", "except-nulls", "except-keeps-nulls",
         "intersect-drops-nulls", "intersect-wide", "except-wide"],
)
def test_set_operations_treat_nulls_as_equal(set_sessions, sql, expected):
    for s in set_sessions:
        assert s.execute(sql).rows == expected, sql
