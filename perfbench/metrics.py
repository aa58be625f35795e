"""The benchmark's metric catalogue: name -> (unit, better).

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree.
"""

#: Reported by every workload with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "qph": ("statements/h", "higher"),
    "query_s.p50": ("s", "lower"),
    "query_s.p90": ("s", "lower"),
    "stored_bytes_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Reported by every workload's traced run; 0 where a workload does not
#: reach the layer (README.md maps each one to the end-to-end metric it
#: should move and the workload it moves on).
PER_LAYER = {
    "sql.parse_s": ("s", "lower"),
    "sql.plan_s": ("s", "lower"),
    "engine.execute_s": ("s", "lower"),
    "engine.scan_s": ("s", "lower"),
    "engine.join_s": ("s", "lower"),
    "engine.groupby_s": ("s", "lower"),
    "engine.sort_s": ("s", "lower"),
    "engine.fused_runs": ("count", "higher"),
    "engine.fused_cache_hit_ratio": ("ratio", "higher"),
    "engine.rows_scanned_per_row_returned": ("ratio", "lower"),
    "engine.extents_skipped_ratio": ("ratio", "higher"),
    "parallel.tasks": ("count", "lower"),
    "parallel.busy_s": ("s", "lower"),
    "parallel.makespan_s": ("s", "lower"),
    "parallel.utilisation": ("ratio", "higher"),
    "parallel.process_fallbacks": ("count", "lower"),
    "bufferpool.hit_ratio": ("ratio", "higher"),
    "bufferpool.evictions": ("count", "lower"),
    "storage.dead_row_ratio": ("ratio", "lower"),
    "storage.tail_rows": ("count", "lower"),
    "mvcc.commits": ("count", "higher"),
    "mvcc.aborts": ("count", "lower"),
    "mvcc.conflicts": ("count", "lower"),
    "durability.wal_bytes": ("bytes", "lower"),
    "durability.wal_flushes": ("count", "lower"),
    "durability.commits_per_flush": ("ratio", "higher"),
    "durability.records_replayed": ("count", "lower"),
    "cluster.shard_s": ("s", "lower"),
    "cluster.gather_s": ("s", "lower"),
    "cluster.rows_gathered": ("count", "lower"),
    "cluster.skew_ratio": ("ratio", "lower"),
    "cluster.gather_fallbacks": ("count", "lower"),
    "cluster.recover_s": ("s", "lower"),
    "catalog.ddl_s": ("s", "lower"),
    "serving.hit_ratio": ("ratio", "higher"),
    "serving.evictions": ("count", "lower"),
    "serving.invalidations": ("count", "lower"),
    "serving.stale_drops": ("count", "lower"),
    "serving.shed": ("count", "lower"),
    "serving.hit_s.p50": ("s", "lower"),
    "serving.miss_s.p50": ("s", "lower"),
    "driver.requests": ("count", "higher"),
    "driver.late_s.max": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
