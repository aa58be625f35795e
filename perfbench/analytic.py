"""``analytic``: the Test-1 long-tail pool, closed loop, one client.

A read-only single-node ``Database`` at DOP = nproc (thread backend)
answers the customer workload's long-tail pool (star joins, rollups, a
CTE and selective scan windows) over and over.  Nearly all the work is
in ``sql``, ``engine``, ``parallel``, the scan stack and ``bufferpool``;
``serving``, ``durability``, ``cluster`` and version churn do none, so
this is the control for write-path, cluster and cache changes.

Oracle: the row engine ``repro.baselines.rowdb.RowDatabase`` loaded with
the same generated rows answers every distinct query after the window.
"""

from __future__ import annotations

import gc
import time

import harness

N_TRADES = 80_000
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5


def make_inputs(seed: int, n_trades: int = N_TRADES) -> dict:
    from repro.workloads import CustomerWorkload

    wl = CustomerWorkload(n_trades=n_trades, seed=harness.seed_int(seed, "analytic"))
    return {
        "sizes": {"accounts": wl.n_accounts, "instruments": wl.n_instruments,
                  "trades": wl.n_trades, "positions": wl.n_trades // 4},
        "ddl": wl.base_ddl(),
        "rows": wl.base_rows(),
        # Each call draws fresh literals (date cutoffs, windows), so two
        # calls average the selectivity over more than one draw.
        "pool": wl.long_tail_pool() + wl.long_tail_pool(),
    }


def digests(inputs: dict, sql_key: str = "pool") -> dict:
    return {"rows": harness.digest(inputs["rows"]),
            "sql": harness.digest(inputs[sql_key])}


def load_single(inputs: dict, tracer=None):
    """Engine construction to ready: DDL, base load, flush (compression)."""
    from repro.database import Database
    from repro.workloads.tpcds import bulk_insert, flush_tables

    db = Database(parallelism=harness.nproc(), pool_backend="thread", tracer=tracer)
    session = db.connect()
    for ddl in inputs["ddl"]:
        session.execute(ddl)
    for table, rows in inputs["rows"].items():
        bulk_insert(session, table, rows)
    flush_tables(db)
    return db, session


def timed_setups(inputs: dict, n: int, tracer=None):
    """Set up ``n`` times; return the last engine and every set-up time."""
    times = []
    db = session = None
    for _ in range(n):
        db = session = None
        gc.collect()
        start = time.perf_counter()
        db, session = load_single(inputs, tracer)
        times.append(time.perf_counter() - start)
    return db, session, times


def closed_loop(session, pool, seconds: float, spans=None) -> list:
    """One client cycling through ``pool`` until ``seconds`` have passed."""
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        sql = pool[i % len(pool)]
        start = time.perf_counter()
        rows = session.execute(sql).rows
        end = time.perf_counter()
        records.append((sql, start, end, rows))
        if spans is not None:
            spans.add(i, "Session.execute", sql.split(None, 1)[0].upper(), start, end)
        i += 1
    return records


def row_oracle(inputs: dict):
    from repro.baselines.rowdb import RowDatabase

    rdb = RowDatabase()
    for ddl in inputs["ddl"]:
        rdb.execute(ddl)
    for table, rows in inputs["rows"].items():
        rdb.table(table).insert_rows(rows)
    return rdb


def check_answers(records, oracle) -> int:
    """Every answer must equal the oracle's; returns distinct queries checked."""
    expected = {}
    for sql, _, _, rows in records:
        if sql not in expected:
            expected[sql] = oracle.execute(sql).rows
        harness.check_same("analytic: " + sql[:60], rows, expected[sql])
    return len(expected)


def _mean_wall(records, n):
    return sum(end - start for _, start, end, _ in records[:n]) / n


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    inputs = make_inputs(seed)
    facts = {"dop": harness.nproc(), "pool_backend": "thread", "clients": 1,
             "loop": "closed", "sizes": inputs["sizes"],
             "pool_statements": len(inputs["pool"]),
             "digests": digests(inputs)}
    pool = inputs["pool"]
    if not trace:
        db, session, setups = timed_setups(inputs, SETUPS)
        start = time.perf_counter()
        records = closed_loop(session, pool, seconds)
        window = records[-1][2] - start
        peak = harness.peak_rss_mb()
        ratio = harness.stored_bytes_ratio(db)
        db = session = None
        checked = check_answers(records, row_oracle(inputs))
        lat = [end - start for _, start, end, _ in records]
        metrics = {
            "setup_s": harness.median(setups),
            "qph": len(records) * 3600.0 / window,
            "query_s.p50": harness.percentile(lat, 50),
            "query_s.p90": harness.percentile(lat, 90),
            "stored_bytes_ratio": ratio,
            "peak_rss_mb": peak,
        }
        info = {"setup_s.all": setups, "samples": len(lat), "oracle_queries": checked,
                "query_s.tail": harness.tail(lat)}
        return {"attempted": len(records), "failed": 0, "metrics": metrics,
                "facts": facts, "info": info}

    from repro.monitor import Tracer

    half = seconds / 2.0
    db, session, _ = timed_setups(inputs, 1)
    plain = closed_loop(session, pool, half)
    db = session = None
    tracer = Tracer()
    db, session, _ = timed_setups(inputs, 1, tracer)
    tracer.reset()
    spans = harness.SpanLog()
    before = harness.counters(db)
    traced = closed_loop(session, pool, half, spans)
    after = harness.counters(db)
    layers = harness.tracer_layers(tracer, len(traced))
    layers.update(harness.counter_layers(before, after))
    layers.update(harness.storage_layers(db))
    n = min(len(plain), len(traced))
    layers["driver.requests"] = len(traced)
    layers["trace.overhead"] = _mean_wall(traced, n) / _mean_wall(plain, n)
    spans.dump(out_dir / ("analytic-%d-spans.jsonl" % seed))
    db = session = tracer = None
    oracle = row_oracle(inputs)
    checked = check_answers(plain + traced, oracle)
    return {"attempted": len(plain) + len(traced), "failed": 0,
            "metrics": layers, "facts": facts,
            "info": {"oracle_queries": checked}}

