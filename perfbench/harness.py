"""Shared pieces of the repository benchmark.

Everything here runs outside the program: percentiles, answer
canonicalisation, input digests, host facts, bench-owned spans and the
readers that turn the program's public counters and its shipped
``repro.monitor.Tracer`` spans into per-layer metrics.
"""

from __future__ import annotations

import datetime
import decimal
import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A percentile is reported only when at least this many samples lie
#: above it, so one outlier cannot decide it.
MIN_ABOVE = 10

READ_KINDS = frozenset({"SELECT", "WITH", "EXPLAIN"})
DDL_KINDS = frozenset({"CREATE", "DROP", "TRUNCATE"})


class BenchError(Exception):
    """A run that cannot produce a trustworthy result."""


class OracleMismatch(BenchError):
    """The program's answer differs from the independent oracle's."""


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("no program source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise BenchError("repro imported from %s, not %s" % (location, SRC))
    return repro


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def seed_int(seed: int, *scope) -> int:
    """A 31-bit seed derived from the run seed and a scope path."""
    text = "|".join([str(seed), *map(str, scope)]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") >> 1


# -- percentiles --------------------------------------------------------------


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the ``q``-th percentile of ``n``."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def samples_above(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def highest_supported(n: int, candidates=(50, 90, 99, 99.9)) -> float | None:
    """The highest candidate percentile with ``MIN_ABOVE`` samples above it."""
    ok = [q for q in candidates if n and samples_above(n, q) >= MIN_ABOVE]
    return max(ok) if ok else None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    n = len(values)
    if n == 0:
        raise BenchError("no samples")
    if q > 50 and samples_above(n, q) < MIN_ABOVE:
        raise BenchError(
            "p%g needs %d samples above it, %d samples give %d"
            % (q, MIN_ABOVE, n, samples_above(n, q))
        )
    return sorted(values)[_rank(n, q) - 1]


def tail(values) -> dict:
    """``{"p<q>": value}`` at the highest percentile the sample supports."""
    q = highest_supported(len(values))
    return {} if q is None else {"p%g" % q: percentile(values, q)}


def median(values) -> float:
    return percentile(values, 50) if values else 0.0


# -- answers --------------------------------------------------------------------


def _canon_value(value):
    if isinstance(value, (float, decimal.Decimal)):
        return float(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def canon_rows(rows) -> list[tuple]:
    """Rows as plain values in a fixed order (ties in ORDER BY may differ)."""
    out = [tuple(_canon_value(v) for v in row) for row in rows]
    return sorted(
        out,
        key=lambda r: tuple(
            ("%.6g" % v) if isinstance(v, float) else repr(v) for v in r
        ),
    )


def _value_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def same_rows(a, b) -> bool:
    ca, cb = canon_rows(a), canon_rows(b)
    return len(ca) == len(cb) and all(
        len(x) == len(y) and all(_value_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(ca, cb)
    )


def check_same(label: str, got, want) -> None:
    if not same_rows(got, want):
        raise OracleMismatch(
            "%s: program %r != oracle %r"
            % (label, canon_rows(got)[:3], canon_rows(want)[:3])
        )


# -- inputs and host facts ------------------------------------------------------


def digest(obj) -> str:
    """sha256 of a deterministic text rendering of generated inputs."""
    h = hashlib.sha256()
    h.update(repr(obj).encode())
    return h.hexdigest()[:16]


def host_facts() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- bench-owned spans ----------------------------------------------------------


class SpanLog:
    """Spans the benchmark records around each public call it makes.

    Kept in memory; :meth:`dump` writes them out when the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, request_id: int, name: str, kind: str, start: float,
            end: float, **attrs) -> dict:
        span = {"id": request_id, "name": name, "kind": kind,
                "start": start, "end": end, **attrs}
        self.spans.append(span)
        return span

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


# -- readers over the program's public surfaces -----------------------------------

#: Operator classes of the columnar engine, grouped into the layer
#: metrics ``engine.<group>_s`` (self time).
OPERATOR_GROUPS = {
    "TableScanOp": "scan",
    "VectorSourceOp": "scan",
    "HashJoinOp": "join",
    "NestedLoopJoinOp": "join",
    "GroupByOp": "groupby",
    "SortOp": "sort",
}


def tracer_layers(tracer, requests: int) -> dict:
    """Per-request parse/plan/execute time and operator self time.

    A span's self time is its duration minus its children's; the
    children of one operator run one after another on its thread.
    """
    totals = {"parse": 0.0, "plan": 0.0, "execute": 0.0,
              "scan": 0.0, "join": 0.0, "groupby": 0.0, "sort": 0.0}
    rows_scanned = rows_returned = extents = skipped = 0
    for span in tracer.finished:
        name = span.name
        if name in ("parse", "plan", "execute"):
            totals[name] += span.wall_elapsed
            if name == "execute":
                for top in span.children:
                    rows_returned += top.attrs.get("rows", 0)
            continue
        if not name.startswith("operator:"):
            continue
        group = OPERATOR_GROUPS.get(name.split(":", 1)[1])
        if group is not None:
            child = sum(c.wall_elapsed for c in span.children)
            totals[group] += max(0.0, span.wall_elapsed - child)
        stats = span.attrs.get("stats")
        if stats is not None and hasattr(stats, "extents_skipped"):
            rows_scanned += stats.rows_scanned
            extents += stats.extents_total
            skipped += stats.extents_skipped
    per = 1.0 / max(1, requests)
    return {
        "sql.parse_s": totals["parse"] * per,
        "sql.plan_s": totals["plan"] * per,
        "engine.execute_s": totals["execute"] * per,
        "engine.scan_s": totals["scan"] * per,
        "engine.join_s": totals["join"] * per,
        "engine.groupby_s": totals["groupby"] * per,
        "engine.sort_s": totals["sort"] * per,
        "engine.rows_scanned_per_row_returned":
            rows_scanned / rows_returned if rows_returned else 0.0,
        "engine.extents_skipped_ratio": skipped / extents if extents else 0.0,
    }


def engines_of(system) -> list:
    """The single-node engines behind a Database or a Cluster."""
    shards = getattr(system, "shards", None)
    if shards is None:
        return [system]
    return [s.engine for _, s in sorted(shards.items())] + [system.coordinator]


def pools_of(system) -> list:
    pools = [e.pool for e in engines_of(system)]
    if hasattr(system, "shards"):
        pools.append(system.pool)
    return pools


def tables_of(system):
    for engine in engines_of(system):
        for name in engine.table_names():
            yield engine.catalog.get_table(name).table


def counters(system, serving=None) -> dict:
    """Snapshot of the public counters the per-layer metrics are deltas of."""
    from repro.engine.fused import PIPELINE_CACHE

    out = {"fused": PIPELINE_CACHE.stats()}
    pools = pools_of(system)
    out["parallel"] = {
        "tasks": sum(p.tasks_total for p in pools),
        "busy": sum(p.busy_seconds_total for p in pools),
        "capacity": sum(p.makespan_seconds_total * p.parallelism for p in pools),
        "makespan": sum(p.makespan_seconds_total for p in pools),
        "fallbacks": sum(p.process_fallbacks_total for p in pools),
    }
    engines = engines_of(system)
    out["bufferpool"] = {
        "hits": sum(e.bufferpool.stats.hits for e in engines),
        "misses": sum(e.bufferpool.stats.misses for e in engines),
        "evictions": sum(e.bufferpool.stats.evictions for e in engines),
    }
    out["mvcc"] = {k: 0 for k in ("committed", "aborted", "conflicts")}
    out["durability"] = {k: 0 for k in ("wal_flushed_bytes", "wal_flushes", "commits")}
    for engine in engines:
        txn = engine.txn.report()
        for key in out["mvcc"]:
            out["mvcc"][key] += txn[key]
        if engine.durability is not None:
            report = engine.durability.report()
            for key in out["durability"]:
                out["durability"][key] += report[key]
    if serving is not None:
        cache = serving.result_cache.report()
        out["serving"] = {k: cache[k] for k in (
            "hits", "misses", "evictions", "invalidations", "stale_drops")}
        out["serving"]["shed"] = sum(
            t["shed"] for t in serving.admission.report().values()
        )
    return out


def counter_layers(before: dict, after: dict) -> dict:
    def delta(section, key):
        return after[section][key] - before[section][key]

    fused_hits = delta("fused", "hits")
    fused_runs = fused_hits + delta("fused", "misses")
    bp_hits = delta("bufferpool", "hits")
    bp_access = bp_hits + delta("bufferpool", "misses")
    capacity = delta("parallel", "capacity")
    flushes = delta("durability", "wal_flushes")
    out = {
        "engine.fused_runs": fused_runs,
        "engine.fused_cache_hit_ratio": fused_hits / fused_runs if fused_runs else 0.0,
        "parallel.tasks": delta("parallel", "tasks"),
        "parallel.busy_s": delta("parallel", "busy"),
        "parallel.makespan_s": delta("parallel", "makespan"),
        "parallel.utilisation": delta("parallel", "busy") / capacity if capacity else 0.0,
        "parallel.process_fallbacks": delta("parallel", "fallbacks"),
        "bufferpool.hit_ratio": bp_hits / bp_access if bp_access else 0.0,
        "bufferpool.evictions": delta("bufferpool", "evictions"),
        "mvcc.commits": delta("mvcc", "committed"),
        "mvcc.aborts": delta("mvcc", "aborted"),
        "mvcc.conflicts": delta("mvcc", "conflicts"),
        "durability.wal_bytes": delta("durability", "wal_flushed_bytes"),
        "durability.wal_flushes": flushes,
        "durability.commits_per_flush":
            delta("durability", "commits") / flushes if flushes else 0.0,
    }
    if "serving" in after:
        hits = delta("serving", "hits")
        asked = hits + delta("serving", "misses")
        out.update({
            "serving.hit_ratio": hits / asked if asked else 0.0,
            "serving.evictions": delta("serving", "evictions"),
            "serving.invalidations": delta("serving", "invalidations"),
            "serving.stale_drops": delta("serving", "stale_drops"),
            "serving.shed": delta("serving", "shed"),
        })
    return out


def storage_layers(system) -> dict:
    physical = live = tail = 0
    for table in tables_of(system):
        physical += table.n_rows_physical()
        live += table.n_rows
        tail += table.tail_rows
    return {
        "storage.dead_row_ratio": (physical - live) / physical if physical else 0.0,
        "storage.tail_rows": tail,
    }


def stored_bytes_ratio(system) -> float:
    compressed = raw = 0
    for table in tables_of(system):
        compressed += table.compressed_nbytes()
        raw += table.raw_nbytes()
    if raw == 0:
        raise BenchError("no sealed regions to measure")
    return compressed / raw
