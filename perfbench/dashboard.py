"""``dashboard``: open-loop reports through the serving gateway.

One driver thread sends requests on a lognormal arrival schedule at a
fixed offered rate into ``ServingGateway.execute`` over a single-node
``Database``.  Reads are a Zipf mix of the customer workload's
``heavy_selects`` and ``short_selects`` templates whose literals are also
Zipf-drawn, so there are more distinct statements than the
``ResultCache`` holds (2048 entries); about 2% of requests are additive
``UPDATE positions`` writes that invalidate cached entries.  ``serving``
does most of the work (normalisation, cache lookup, commit-clock
invalidation); misses and invalidations send the rest to the engine.

The schedule and mix are generated here with numpy from the seed, not
by ``repro.serving.arrivals``, so a change to the serving module cannot
change the load.  Each request is timed from when it was due, so a
stall also counts against the requests queued behind it.

Oracle: every ``CHECK_EVERY``-th read is answered again by a direct,
uncached ``Session.execute`` at the same moment and must match; the
schedule is shifted by the time the check takes.
"""

from __future__ import annotations

import time

import numpy as np

import analytic
import harness

N_TRADES = 80_000
RATE_QPS = 40.0
#: Requests served back to back before the window so the result cache
#: starts it full (past its 2048 entries) rather than cold.
WARMUP = 7_000
#: Literal variants drawn per template (distinct ones are kept).
VARIANT_DRAWS = 3_000
TEMPLATE_ZIPF = 1.1
LITERAL_ZIPF = 0.6
WRITE_SHARE = 0.02
ARRIVAL_SIGMA = 1.0
CHECK_EVERY = 25
SETUPS = 5


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = np.cumsum(1.0 / np.arange(1, n + 1) ** s)
    return weights / weights[-1]


def _zipf_pick(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def make_inputs(seed: int, seconds: float, n_trades: int = N_TRADES,
                warmup: int = WARMUP) -> dict:
    from repro.workloads import CustomerWorkload

    wl = CustomerWorkload(n_trades=n_trades, seed=harness.seed_int(seed, "dashboard"))
    # Operational lookups first: they are the bulk of the paper's SELECTs
    # and, with many literals each, what makes the working set outgrow
    # the result cache; the heavy reports follow in the Zipf tail.
    draws = [wl.short_selects() + wl.heavy_selects() for _ in range(VARIANT_DRAWS)]
    # Rank each template's literals by their text, not by draw order: the
    # draws cover the small literal domains (date cutoffs) on every seed,
    # so the popular heavy variants, and their cost, do not change with
    # the seed.
    templates = [sorted({d[t] for d in draws}) for t in range(len(draws[0]))]
    rng = np.random.default_rng(harness.seed_int(seed, "dashboard", "mix"))
    n_timed = int(round(RATE_QPS * seconds))
    total = warmup + n_timed
    is_write = rng.random(total) < WRITE_SHARE
    template_cdf = _zipf_cdf(len(templates), TEMPLATE_ZIPF)
    literal_cdfs = [_zipf_cdf(len(t), LITERAL_ZIPF) for t in templates]
    template = rng.random(total)
    literal = rng.random(total)
    accounts = rng.integers(0, wl.n_accounts, total)
    deltas = rng.integers(-50_000, 50_000, total)
    requests = []
    for i in range(total):
        if is_write[i]:
            requests.append(("UPDATE", "UPDATE positions SET market_value ="
                             " market_value + %.2f WHERE acct_id = %d"
                             % (deltas[i] / 100, accounts[i])))
            continue
        t = _zipf_pick(template_cdf, template[i])
        requests.append(("SELECT", templates[t][_zipf_pick(literal_cdfs[t], literal[i])]))
    gaps = rng.lognormal(0.0, ARRIVAL_SIGMA, n_timed)
    due = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) * (seconds / gaps.sum())
    return {
        "sizes": {"accounts": wl.n_accounts, "instruments": wl.n_instruments,
                  "trades": wl.n_trades, "positions": wl.n_trades // 4,
                  "templates": len(templates),
                  "distinct_statements": sum(len(t) for t in templates),
                  "warmup_requests": warmup, "timed_requests": n_timed},
        "ddl": wl.base_ddl(),
        "rows": wl.base_rows(),
        "warmup": requests[:warmup],
        "timed": requests[warmup:],
        "due": due.tolist(),
    }


class Checker:
    """Re-answers every ``CHECK_EVERY``-th read directly on the engine."""

    def __init__(self, session):
        self.session = session
        self.reads = 0
        self.checked = 0

    def __call__(self, kind: str, sql: str, rows) -> float:
        """Check if due; returns the seconds the check took."""
        if kind != "SELECT":
            return 0.0
        self.reads += 1
        if self.reads % CHECK_EVERY:
            return 0.0
        start = time.perf_counter()
        harness.check_same("dashboard: " + sql[:60], rows,
                           self.session.execute(sql).rows)
        self.checked += 1
        return time.perf_counter() - start


def warm(gateway, session, requests, check) -> None:
    for kind, sql in requests:
        check(kind, sql, gateway.execute(sql, session=session).rows)


def spin(seconds: float) -> None:
    """Busy-wait.  On a shared VM a timed sleep wakes up to several ms
    late, many times what a cache hit takes, and the generator's own
    lateness would count as latency."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def open_loop(execute, requests, due, check=None, clock=time.perf_counter,
              sleep=spin) -> list:
    """Send each request at its due time; one driver thread.

    Returns ``(kind, due, start, end)`` per request, all relative to the
    window start.  A request is timed from ``due``: when the driver runs
    late, the lateness counts against the request.  Time spent in
    ``check`` is taken out of the schedule.
    """
    out = []
    origin = clock()
    for (kind, sql), at in zip(requests, due):
        now = clock() - origin
        if now < at:
            sleep(at - now)
        start = clock() - origin
        rows = execute(kind, sql)
        end = clock() - origin
        out.append((kind, at, start, end))
        if check is not None:
            origin += check(kind, sql, rows)
    return out


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    inputs = make_inputs(seed, seconds)
    facts = {"loop": "open", "driver_threads": 1, "rate_qps": RATE_QPS,
             "dop": harness.nproc(), "pool_backend": "thread",
             "result_cache_entries": 2048, "sizes": inputs["sizes"],
             "digests": {"rows": harness.digest(inputs["rows"]),
                         "sql": harness.digest((inputs["warmup"], inputs["timed"])),
                         "schedule": harness.digest(inputs["due"])}}
    if not trace:
        db, session, setups = analytic.timed_setups(inputs, SETUPS)
        return _untraced(inputs, facts, db, session, setups)

    from repro.monitor import Tracer
    from repro.serving import ServingGateway

    half = [(r, at) for r, at in zip(inputs["timed"], inputs["due"]) if at < seconds / 2]
    requests, due = [r for r, _ in half], [at for _, at in half]

    def serve_half(tracer=None, spans=None):
        db, session, _ = analytic.timed_setups(inputs, 1, tracer)
        gateway = ServingGateway(db)
        check = Checker(session)
        warm(gateway, session, inputs["warmup"], check)
        if tracer is None:
            return _records(gateway, session, requests, due, check), None
        tracer.reset()
        before = harness.counters(db, gateway)
        records = _records(gateway, session, requests, due, check, spans)
        layers = harness.tracer_layers(tracer, len(records))
        layers.update(harness.counter_layers(before, harness.counters(db, gateway)))
        layers.update(harness.storage_layers(db))
        return records, layers

    plain, _ = serve_half()
    spans = harness.SpanLog()
    traced, layers = serve_half(Tracer(), spans)
    hits = [s["end"] - s["start"] for s in spans.spans if s.get("cache") == "hit"]
    misses = [s["end"] - s["start"] for s in spans.spans if s.get("cache") == "miss"]
    layers.update({
        "serving.hit_s.p50": harness.median(hits),
        "serving.miss_s.p50": harness.median(misses),
        "driver.requests": len(traced),
        "driver.late_s.max": max(start - at for _, at, start, _ in traced),
        "trace.overhead": _service(traced) / _service(plain),
    })
    spans.dump(out_dir / ("dashboard-%d-spans.jsonl" % seed))
    return {"attempted": len(plain) + len(traced), "failed": 0, "metrics": layers,
            "facts": facts, "info": {"hits": len(hits), "misses": len(misses)}}


def _records(gateway, session, requests, due, check, spans=None):
    stats = gateway.result_cache.stats
    ids = iter(range(len(requests)))

    def execute(kind, sql):
        if spans is None:
            return gateway.execute(sql, session=session).rows
        hits, misses = stats.hits, stats.misses
        start = time.perf_counter()
        rows = gateway.execute(sql, session=session).rows
        end = time.perf_counter()
        cache = ("hit" if stats.hits > hits else
                 "miss" if stats.misses > misses else "bypass")
        spans.add(next(ids), "ServingGateway.execute", kind, start, end, cache=cache)
        return rows

    return open_loop(execute, requests, due, check)


def _service(records):
    return sum(end - start for _, _, start, end in records) / len(records)


def _untraced(inputs, facts, db, session, setups) -> dict:
    from repro.serving import ServingGateway

    gateway = ServingGateway(db)
    check = Checker(session)
    warm(gateway, session, inputs["warmup"], check)
    before = gateway.result_cache.report()
    records = _records(gateway, session, inputs["timed"], inputs["due"], check)
    after = gateway.result_cache.report()
    peak = harness.peak_rss_mb()
    reads = [end - at for kind, at, _, end in records if kind == "SELECT"]
    writes = [end - at for kind, at, _, end in records if kind != "SELECT"]
    serve = [end - at for _, at, _, end in records]
    window = max(end for _, _, _, end in records)
    metrics = {
        "setup_s": harness.median(setups),
        "qph": len(records) * 3600.0 / window,
        "query_s.p50": harness.percentile(reads, 50),
        "query_s.p90": harness.percentile(reads, 90),
        "stored_bytes_ratio": harness.stored_bytes_ratio(db),
        "peak_rss_mb": peak,
    }
    asked = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    info = {"setup_s.all": setups, "reads": len(reads), "writes": len(writes),
            "serve_s.p50": harness.percentile(serve, 50),
            "serve_s.tail": harness.tail(serve),
            "driver.late_s.max": max(start - at for _, at, start, _ in records),
            "driver.late_s.p90": harness.percentile(
                [start - at for _, at, start, _ in records], 90),
            "service_s.p50": harness.percentile(
                [end - start for _, _, start, end in records], 50),
            "cache_entries_at_start": before["entries"],
            "hit_ratio": (after["hits"] - before["hits"]) / asked if asked else 0.0,
            "evictions": after["evictions"] - before["evictions"],
            "oracle_checks": check.checked}
    return {"attempted": len(records), "failed": 0, "metrics": metrics,
            "facts": facts, "info": info}
