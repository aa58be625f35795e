"""Morsel-driven parallelism on the Table-1 customer workload.

Serial vs DOP-4 execution of the long-tail scan/aggregate pool on the
thread worker pool.  Two timing surfaces are reported:

* **wall clock** — best-of-3 totals over the query pool.  Grouping and
  hash joins pick their kernels from the plan alone, so DOP 1 and DOP 4
  run the same fused region kernels (single-pass scan->filter->reduce
  per region batch, no intermediate materialisation) and the same join
  probe kernel, and do the same work; the headline ``wall_ratio``
  (DOP-1 wall / DOP-4 wall) measures parallelism net of its dispatch
  overhead, which a 2-core host caps well below DOP and leaves close to
  1.0 and noisy.  It is asserted >= 1.0 (DOP 4 must not lose to DOP 1)
  plus a regression gate against the committed ``BENCH_parallel.json``.
* **simulated speedup** — from the pool's own accounting: serial-
  equivalent cost is the sum of task CPU spans (``busy_seconds``), the
  parallel cost is the list-scheduled makespan of those spans over the
  configured workers.  Independent of host oversubscription; asserted
  >= 1.5x as before.

The summary lands in ``BENCH_parallel.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.database import Database
from repro.workloads.tpcds import flush_tables

from conftest import banner, record

POOL_SIZE = 24
DOP = 4
WALL_ROUNDS = 3  # best-of-3 wall timings

#: Deliberately small morsels so the scaled-down fact table still splits
#: into enough tasks per operator to load every worker.
MORSEL_ROWS = 4_096

#: Wall-clock tolerance for the regression gate: the refreshed ratio may
#: not drop more than this below the committed one (timer noise on shared
#: CI runners, not a license for real regressions).
WALL_RATIO_TOLERANCE = 0.35

_RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _best_wall(session, pool):
    """Best-of-N total wall seconds over the whole query pool."""
    totals = []
    for _ in range(WALL_ROUNDS):
        t0 = time.perf_counter()
        for sql in pool:
            session.execute(sql)
        totals.append(time.perf_counter() - t0)
    return min(totals)


def _committed_gate():
    """The committed wall_ratio to gate against, or None if none is committed."""
    try:
        committed = json.loads(_RESULT_PATH.read_text())
    except (OSError, ValueError):
        return None
    return committed.get("wall_ratio")


def test_parallel_speedup_customer_workload(
    dashdb_customer, customer_workload, benchmark
):
    thread_db = Database(parallelism=DOP, morsel_rows=MORSEL_ROWS)
    thread = thread_db.connect("db2")
    customer_workload.load_base(thread)
    flush_tables(thread_db)

    pool = customer_workload.long_tail_pool(POOL_SIZE)

    # Correctness before speed: both executions answer identically.
    for sql in pool:
        assert dashdb_customer.execute(sql).rows == thread.execute(sql).rows, sql

    serial_wall = _best_wall(dashdb_customer, pool)

    # Measure DOP 4 over a clean accounting window.
    busy0 = thread_db.pool.busy_seconds_total
    span0 = thread_db.pool.makespan_seconds_total
    runs0 = thread_db.pool.runs_total
    thread_wall = _best_wall(thread, pool)
    busy = thread_db.pool.busy_seconds_total - busy0
    makespan = thread_db.pool.makespan_seconds_total - span0
    runs = thread_db.pool.runs_total - runs0

    assert runs > 0 and busy > 0.0, "workload never reached the worker pool"
    sim_speedup = busy / makespan if makespan > 0 else float(DOP)
    wall_ratio = serial_wall / thread_wall if thread_wall > 0 else 1.0

    benchmark.pedantic(
        lambda: [thread.execute(sql) for sql in pool[:6]],
        rounds=2,
        iterations=1,
    )

    from repro.engine.fused import PIPELINE_CACHE

    cache = PIPELINE_CACHE.stats()
    banner(
        "Parallel execution — customer long-tail pool, serial vs DOP %d" % DOP,
        [
            "wall: serial %.3fs  DOP %d %.3fs (%.2fx)"
            % (serial_wall, DOP, thread_wall, wall_ratio),
            "sim:  busy %.3fs -> makespan %.3fs  speedup %.2fx (assert >= 1.5x)"
            % (busy, makespan, sim_speedup),
            "pool: %d runs, %d tasks at DOP %d"
            % (runs, thread_db.pool.tasks_total, DOP),
            "fused pipeline cache: %(hits)d hits, %(misses)d misses" % cache,
        ],
    )
    record(
        "parallel-speedup",
        sim_speedup=sim_speedup,
        wall_ratio=wall_ratio,
        dop=DOP,
    )
    committed_ratio = _committed_gate()
    _RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": "table1-customer-long-tail",
                "queries": len(pool),
                "dop": DOP,
                "morsel_rows": MORSEL_ROWS,
                "wall_rounds": WALL_ROUNDS,
                "serial_wall_seconds": round(serial_wall, 6),
                "parallel_wall_seconds": round(thread_wall, 6),
                "wall_ratio": round(wall_ratio, 4),
                "busy_seconds": round(busy, 6),
                "makespan_seconds": round(makespan, 6),
                "sim_speedup": round(sim_speedup, 4),
                "pool_runs": runs,
                "pipeline_cache": {
                    "hits": cache["hits"],
                    "misses": cache["misses"],
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert wall_ratio >= 1.0, (
        "DOP-%d execution should not lose to DOP 1 in wall time, got %.2fx"
        % (DOP, wall_ratio)
    )
    assert sim_speedup >= 1.5, (
        "morsel parallelism should cut simulated elapsed time by >= 1.5x,"
        " got %.2fx" % sim_speedup
    )
    if committed_ratio is not None:
        assert wall_ratio >= committed_ratio - WALL_RATIO_TOLERANCE, (
            "wall_ratio regressed: %.2fx vs committed %.2fx (tolerance %.2f)"
            % (wall_ratio, committed_ratio, WALL_RATIO_TOLERANCE)
        )
    thread_db.pool.shutdown()
