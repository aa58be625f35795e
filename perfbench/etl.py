"""``etl``: the Test-2 statement mix, closed loop, two clients, MPP.

Each client replays its own seeded ``CustomerWorkload.statements()``
streams (INSERT/UPDATE/DELETE/CREATE/DROP/TRUNCATE/SELECT/WITH/EXPLAIN in
the paper's mix) through ``ClusterSession.execute`` against a durable
2-node cluster with scatter parallelism = nproc.  Each client owns a
staging-table prefix.  After the window ``repro.cluster.ha.fail_node``
fails a node, which replays the orphaned shards' WALs.

Most of the work is in ``cluster``, ``durability``, ``mvcc`` version
churn (``UPDATE accounts`` piles up dead versions), ``catalog`` DDL and
the DOP-1 shard engines, so a change that helps reads and costs writes
(or the reverse) shows here.

Oracle: the mix commutes (additive UPDATEs, inserts, deletes of one
table that is never inserted into, disjoint staging tables), so a
single-node ``Database`` that replays every acknowledged write, client by
client, must hold the same per-table COUNT/SUM as the cluster after the
failover.  A lost acknowledged write fails the run.
"""

from __future__ import annotations

import gc
import threading
import time

import harness

N_TRADES = 8_000
SCALE = 1 / 1000
CLIENTS = 2
NODES = 2
SHARD_FACTOR = 4
#: Pre-generated statement streams per client; a client that finishes
#: them starts over from the first.
STREAMS = 6
SETUPS = 3

CHECKS = {
    "ACCOUNTS": "COUNT(*), SUM(acct_id), SUM(balance)",
    "INSTRUMENTS": "COUNT(*), SUM(coupon)",
    "TRADES": "COUNT(*), SUM(trade_id), SUM(qty), SUM(price), SUM(fee)",
    "POSITIONS": "COUNT(*), SUM(qty), SUM(market_value)",
}
STAGING_CHECK = "COUNT(*), SUM(k), SUM(v)"


def make_inputs(seed: int, n_trades: int = N_TRADES, streams: int = STREAMS) -> dict:
    from repro.workloads import CustomerWorkload

    base = CustomerWorkload(n_trades=n_trades, scale=SCALE,
                            seed=harness.seed_int(seed, "etl"))
    clients = []
    for c in range(CLIENTS):
        prefix = "c%d_stg_" % c
        stmts = []
        for k in range(streams):
            wl = CustomerWorkload(n_trades=n_trades, scale=SCALE,
                                  seed=harness.seed_int(seed, "etl", c, k))
            stmts.extend((s.kind, s.sql.replace("stg_", prefix))
                         for s in wl.statements())
        clients.append(stmts)
    return {
        "sizes": {"accounts": base.n_accounts, "instruments": base.n_instruments,
                  "trades": base.n_trades, "positions": base.n_trades // 4,
                  "statements_per_client": len(clients[0])},
        "ddl": base.base_ddl(),
        "rows": base.base_rows(),
        "clients": clients,
    }


def load_cluster(inputs: dict):
    """Cluster construction to ready: DDL, base load, flush (compression)."""
    from repro.cluster import Cluster, HardwareSpec
    from repro.workloads.tpcds import bulk_insert, flush_tables

    hw = HardwareSpec(cores=4, ram_gb=16, storage_tb=1)
    cluster = Cluster([hw] * NODES, parallelism=harness.nproc(),
                      shard_factor=SHARD_FACTOR)
    session = cluster.connect()
    for ddl in inputs["ddl"]:
        session.execute(ddl)
    for table, rows in inputs["rows"].items():
        bulk_insert(session, table, rows)
    flush_tables(session)
    return cluster


class Client:
    """One closed-loop client; keeps its place across windows."""

    def __init__(self, cluster, index: int, stmts: list):
        self.cluster = cluster
        self.index = index
        self.session = cluster.connect()
        self.stmts = stmts
        self.pos = 0
        self.records = []  # (kind, sql, start, end, error)
        self.acked_writes = []

    def run(self, deadline: float, barrier, spans=None, cluster_stats=None):
        barrier.wait()
        while time.perf_counter() < deadline:
            kind, sql = self.stmts[self.pos % len(self.stmts)]
            self.pos += 1
            error = None
            start = time.perf_counter()
            try:
                self.session.execute(sql)
            except Exception as exc:  # counted as failed, never replayed
                error = "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            self.records.append((kind, sql, start, end, error))
            if error is None and kind not in harness.READ_KINDS:
                self.acked_writes.append(sql)
            if spans is not None:
                rid = self.index * 10_000_000 + self.pos
                spans.add(rid, "ClusterSession.execute", kind, start, end,
                          client=self.index, error=error)
                # Cluster.last_stats is one slot shared by both clients.
                cluster_stats.append((kind, self.cluster.last_stats))


def window(clients, seconds: float, spans=None, cluster_stats=None):
    """Run every client until ``seconds`` pass; returns (start, new records)."""
    barrier = threading.Barrier(len(clients) + 1)
    deadline = time.perf_counter() + seconds
    marks = [len(c.records) for c in clients]
    threads = [threading.Thread(target=c.run,
                                args=(deadline, barrier, spans, cluster_stats))
               for c in clients]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    new = [r for c, m in zip(clients, marks) for r in c.records[m:]]
    return start, new


def table_checks(execute, tables) -> dict:
    out = {}
    for name in sorted(tables):
        cols = CHECKS.get(name, STAGING_CHECK)
        out[name] = execute("SELECT %s FROM %s" % (cols, name)).rows
    return out


def compare_checks(got: dict, want: dict) -> None:
    if sorted(got) != sorted(want):
        raise harness.OracleMismatch(
            "etl: cluster tables %s != oracle tables %s" % (sorted(got), sorted(want)))
    wrong = [name for name in sorted(want) if not harness.same_rows(got[name], want[name])]
    if wrong:
        raise harness.OracleMismatch("etl: " + "; ".join(
            "%s program %s != oracle %s" % (name, got[name], want[name])
            for name in wrong))


def replay_oracle(inputs: dict, clients) -> dict:
    """Single-node replay of every acknowledged write; returns its checks."""
    from repro.database import Database
    from repro.workloads.tpcds import bulk_insert

    db = Database(parallelism=1, pool_backend="thread")
    session = db.connect()
    for ddl in inputs["ddl"]:
        session.execute(ddl)
    for table, rows in inputs["rows"].items():
        bulk_insert(session, table, rows)
    for client in clients:
        for sql in client.acked_writes:
            session.execute(sql)
    return table_checks(session.execute, db.table_names())


def fail_and_check(cluster, inputs, clients) -> tuple[float, int]:
    from repro.cluster.ha import fail_node

    start = time.perf_counter()
    fail_node(cluster, "node1")
    recover_s = time.perf_counter() - start
    replayed = sum(r.records_replayed
                   for r in cluster.last_failover_recoveries.values())
    session = cluster.connect()
    got = table_checks(session.execute, cluster.tables)
    compare_checks(got, replay_oracle(inputs, clients))
    return recover_s, replayed


def _lat(records, kinds=None, exclude=None):
    return [end - start for kind, _, start, end, err in records
            if err is None and (kinds is None or kind in kinds)
            and (exclude is None or kind not in exclude)]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    inputs = make_inputs(seed)
    facts = {"clients": CLIENTS, "loop": "closed", "nodes": NODES,
             "scatter_dop": harness.nproc(), "shard_dop": 1,
             "sizes": inputs["sizes"],
             "digests": {"rows": harness.digest(inputs["rows"]),
                         "sql": harness.digest(inputs["clients"])}}
    setups = []
    cluster = None
    for _ in range(1 if trace else SETUPS):
        cluster = None
        gc.collect()
        start = time.perf_counter()
        cluster = load_cluster(inputs)
        setups.append(time.perf_counter() - start)
    facts["shards"] = cluster.n_shards
    clients = [Client(cluster, c, inputs["clients"][c]) for c in range(CLIENTS)]

    if not trace:
        start, records = window(clients, seconds)
        end = max(r[3] for r in records)
        peak = harness.peak_rss_mb()
        ratio = harness.stored_bytes_ratio(cluster)
        recover_s, replayed = fail_and_check(cluster, inputs, clients)
        failed = sum(1 for r in records if r[4] is not None)
        reads = _lat(records, kinds=harness.READ_KINDS)
        writes = _lat(records, exclude=harness.READ_KINDS)
        metrics = {
            "setup_s": harness.median(setups),
            "qph": (len(records) - failed) * 3600.0 / (end - start),
            "query_s.p50": harness.percentile(reads, 50),
            "query_s.p90": harness.percentile(reads, 90),
            "stored_bytes_ratio": ratio,
            "peak_rss_mb": peak,
        }
        info = {"setup_s.all": setups, "reads": len(reads), "writes": len(writes),
                "write_s.p50": harness.percentile(writes, 50),
                "write_s.tail": harness.tail(writes),
                "recover_s": recover_s, "records_replayed": replayed,
                "error_rate": failed / len(records),
                "errors": sorted({r[4] for r in records if r[4]})[:5]}
        return {"attempted": len(records), "failed": failed, "metrics": metrics,
                "facts": facts, "info": info}

    half = seconds / 2.0
    _, plain = window(clients, half)
    spans = harness.SpanLog()
    cluster_stats = []
    before = harness.counters(cluster)
    _, traced = window(clients, half, spans, cluster_stats)
    after = harness.counters(cluster)
    layers = harness.counter_layers(before, after)
    layers.update(harness.storage_layers(cluster))
    scatter = [s for kind, s in cluster_stats if kind in harness.READ_KINDS]
    n = max(1, len(traced))
    layers.update({
        "cluster.shard_s": sum(sum(s.elapsed_by_shard.values()) for s in scatter) / n,
        "cluster.gather_s": sum(s.gather_seconds for s in scatter) / n,
        "cluster.rows_gathered": sum(s.rows_gathered for s in scatter),
        "cluster.skew_ratio": _mean([s.skew_ratio for s in scatter if s.skew_ratio]),
        "cluster.gather_fallbacks": sum(
            1 for s in scatter if s.mode == "gather-fallback"),
        "catalog.ddl_s": _mean(_lat(traced, kinds=harness.DDL_KINDS)),
        "driver.requests": len(traced),
        "trace.overhead": _mean(_lat(traced)) / _mean(_lat(plain)),
    })
    spans.dump(out_dir / ("etl-%d-spans.jsonl" % seed))
    recover_s, replayed = fail_and_check(cluster, inputs, clients)
    layers["cluster.recover_s"] = recover_s
    layers["durability.records_replayed"] = replayed
    records = plain + traced
    failed = sum(1 for r in records if r[4] is not None)
    return {"attempted": len(records), "failed": failed, "metrics": layers,
            "facts": facts, "info": {"recover_s": recover_s}}
