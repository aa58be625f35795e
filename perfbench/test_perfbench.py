"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json

import pytest

import harness

harness.import_program()

import analytic  # noqa: E402
import dashboard  # noqa: E402
import etl  # noqa: E402
import metrics  # noqa: E402


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: analytic.make_inputs(seed, n_trades=2_000),
    lambda seed: etl.make_inputs(seed, n_trades=1_000, streams=1),
    lambda seed: dashboard.make_inputs(seed, 2.0, n_trades=2_000, warmup=200),
])
def test_same_seed_same_inputs(make):
    first, again, other = make(5), make(5), make(6)
    assert repr(first).encode() == repr(again).encode()
    assert harness.digest(first) == harness.digest(again)
    assert harness.digest(first) != harness.digest(other)


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1_000, 99),
    (9_999, 99), (10_000, 99.9),
])
def test_highest_percentile_has_ten_samples_above(n, expected):
    assert harness.highest_supported(n) == expected
    if expected is not None:
        assert harness.samples_above(n, expected) >= harness.MIN_ABOVE


def test_percentile_refuses_unsupported_tail():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.tail(values) == {"p90": 90}
    assert harness.tail(values[:19]) == {}
    with pytest.raises(harness.BenchError):
        harness.percentile(values, 99)


# -- open loop ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_counts_latency_from_due_time():
    clock = FakeClock()
    service = {"stall": 0.5}

    def execute(kind, sql):
        clock.now += service.get(sql, 0.001)
        return []

    requests = [("SELECT", "q%d" % i) for i in range(6)]
    requests[1] = ("SELECT", "stall")
    due = [0.1 * i for i in range(6)]
    out = dashboard.open_loop(execute, requests, due, clock=clock, sleep=clock.sleep)
    latency = [end - at for _, at, _, end in out]
    assert latency[0] == pytest.approx(0.001)
    assert latency[1] == pytest.approx(0.5)
    # Requests queued behind the stall wait for it, though their own
    # service time is 1 ms.
    assert latency[2] == pytest.approx(0.401)
    assert latency[3] == pytest.approx(0.302)
    assert latency[5] == pytest.approx(0.104)


def test_open_loop_takes_check_time_out_of_schedule():
    clock = FakeClock()

    def execute(kind, sql):
        clock.now += 0.001
        return []

    def check(kind, sql, rows):
        clock.now += 0.2
        return 0.2

    out = dashboard.open_loop(execute, [("SELECT", "a"), ("SELECT", "b")],
                              [0.0, 0.1], check=check, clock=clock, sleep=clock.sleep)
    assert [end - at for _, at, _, end in out] == pytest.approx([0.001, 0.001])


# -- oracles reject planted wrong answers -------------------------------------------


def _plant(rows):
    first = list(rows[0])
    first[-1] = first[-1] + 1
    return [tuple(first)] + list(rows[1:])


@pytest.fixture(scope="module")
def small_analytic():
    inputs = analytic.make_inputs(3, n_trades=2_000)
    db, session = analytic.load_single(inputs)
    return inputs, session


def test_analytic_oracle(small_analytic):
    inputs, session = small_analytic
    oracle = analytic.row_oracle(inputs)
    records = [(sql, 0.0, 0.0, session.execute(sql).rows)
               for sql in dict.fromkeys(inputs["pool"])]
    assert analytic.check_answers(records, oracle) == len(records)
    sql, _, _, rows = records[0]
    with pytest.raises(harness.OracleMismatch):
        analytic.check_answers([(sql, 0.0, 0.0, _plant(rows))], oracle)


def test_dashboard_oracle(small_analytic):
    _, session = small_analytic
    check = dashboard.Checker(session)
    sql = "SELECT COUNT(*), SUM(qty) FROM trades"
    rows = session.execute(sql).rows
    for _ in range(dashboard.CHECK_EVERY):
        check("SELECT", sql, rows)
    assert check.checked == 1
    for _ in range(dashboard.CHECK_EVERY - 1):
        check("SELECT", sql, _plant(rows))
    with pytest.raises(harness.OracleMismatch):
        check("SELECT", sql, _plant(rows))


def test_etl_oracle():
    inputs = etl.make_inputs(3, n_trades=1_000, streams=1)

    class Acked:
        acked_writes = [sql for kind, sql in inputs["clients"][0][:40]
                        if kind not in harness.READ_KINDS]

    want = etl.replay_oracle(inputs, [Acked])
    etl.compare_checks(dict(want), want)
    planted = dict(want, TRADES=_plant(want["TRADES"]))
    with pytest.raises(harness.OracleMismatch):
        etl.compare_checks(planted, want)
    lost = {k: v for k, v in want.items() if k != "ACCOUNTS"}
    with pytest.raises(harness.OracleMismatch):
        etl.compare_checks(lost, want)


# -- the benchmark description ---------------------------------------------------------


def test_benchmark_json_matches_catalogue():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        metrics.PER_LAYER
    assert {m["name"]: m["better"] for m in spec["end_to_end"]} == {
        name: better for name, (_, better) in metrics.END_TO_END.items()}
    assert all(w["name"] in ("analytic", "etl", "dashboard") for w in spec["workloads"])
