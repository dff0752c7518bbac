"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/perf -q`` from the repository
root; they are outside tier-1's ``testpaths`` on purpose (the smoke run
alone takes most of half a minute).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
for _path in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf import compare, measure  # noqa: E402
from benchmarks.perf.instrument import SHARE_OF  # noqa: E402
from benchmarks.perf.spans import SpanRecorder, aggregate  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402
from repro.fl.executor import ClientExecutionError  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARATION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- spans -------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 60, 0],
        ["b", 20, 30, 1],
        ["b", 35, 55, 1],
        ["a", 70, 90, 0],
    ]
    buckets, wall = aggregate(spans)
    assert wall == 100
    assert buckets["root"].self_ns == 100 - 50 - 20
    assert buckets["a"].self_ns == (50 - 10 - 20) + 20
    assert buckets["a"].total_ns == 70 and buckets["a"].calls == 2
    assert buckets["b"].self_ns == 30
    assert sum(b.self_ns for b in buckets.values()) == wall


def test_aggregate_rejects_an_open_span():
    rec = SpanRecorder()
    rec.open("left-open")
    with pytest.raises(ValueError):
        aggregate(rec.spans)


class _Target:
    def __init__(self):
        self.calls = []

    def add(self, a, b=0):
        self.calls.append((a, b))
        return a + b

    def boom(self):
        raise KeyError("boom")

    def outer(self):
        return self.add(1, b=2) * 2

    def items(self, n):
        for i in range(n):
            time.sleep(0.002)
            yield i


def test_wrapper_passes_values_and_counts_at_the_boundary():
    rec, target = SpanRecorder(), _Target()
    seen = []
    rec.wrap(target, "add", "t.add",
             on_return=lambda result, args, kwargs: seen.append((result, args, kwargs)))
    rec.wrap(target, "outer", "t.outer")
    assert target.outer() == 6
    assert target.calls == [(1, 2)]
    assert seen == [(3, (1,), {"b": 2})]
    (outer, inner) = rec.spans
    assert (outer[0], outer[3]) == ("t.outer", -1)
    assert (inner[0], inner[3]) == ("t.add", 0)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_wrapper_reraises_and_closes_its_span():
    rec, target = SpanRecorder(), _Target()
    rec.wrap(target, "boom", "t.boom")
    with pytest.raises(KeyError):
        target.boom()
    assert rec._stack == []
    buckets, _ = aggregate(rec.spans)
    assert buckets["t.boom"].calls == 1
    # The next span is a root again, not a child of the failed one.
    rec.wrap(target, "add", "t.add")
    target.add(1)
    assert rec.spans[-1][3] == -1


def test_generator_wrap_times_production_not_consumption():
    rec, target = SpanRecorder(), _Target()
    rec.wrap_generator(target, "items", "t.items")
    got = []
    start = time.perf_counter_ns()
    for item in target.items(3):
        got.append(item)
        time.sleep(0.01)  # the consumer's time must not be counted
    elapsed = time.perf_counter_ns() - start
    assert got == [0, 1, 2]
    buckets, _ = aggregate(rec.spans)
    stats = buckets["t.items"]
    assert stats.calls == 4  # three items and the final StopIteration
    assert 3 * 2e6 <= stats.total_ns < elapsed - 3 * 9e6


def test_bucket_can_depend_on_the_call_and_pause_mutes():
    rec, target = SpanRecorder(), _Target()
    rec.wrap(target, "add", lambda args, kwargs: "t.kw" if kwargs else "t.pos")
    target.add(1, 2)
    target.add(1, b=2)
    rec.pause()
    assert target.add(2) == 2 and len(rec.spans) == 2
    rec.resume()
    target.add(2)
    assert [s[0] for s in rec.spans] == ["t.pos", "t.kw", "t.pos"]


# -- failures are recorded, the run goes on ---------------------------------------


def test_a_round_that_raises_is_recorded_with_its_context():
    error = ClientExecutionError(
        7, "client 7 failed", iteration=3, backend="serial",
        elapsed_s=0.1, cause_type="ZeroDivisionError",
    )
    calls = []

    def run(n):
        calls.append(n)
        if len(calls) in (2, 3):
            raise error

    fed = SimpleNamespace(
        driver=SimpleNamespace(run=run), trainer=SimpleNamespace(history=[])
    )
    log = measure.RunLog()
    samples = measure._run_chunks(fed, WORKLOADS["digits_serial"], 3, log)
    assert len(samples) == 3 and len(calls) == 5
    assert (log.attempted, log.failed) == (5, 2)
    assert log.failures[0]["context"]["client_id"] == 7
    assert log.failures[0]["error"] == "ClientExecutionError"


def test_a_run_that_keeps_raising_still_returns():
    def run(n):
        raise RuntimeError("always")

    fed = SimpleNamespace(
        driver=SimpleNamespace(run=run), trainer=SimpleNamespace(history=[])
    )
    log = measure.RunLog()
    assert measure._run_chunks(fed, WORKLOADS["digits_serial"], 10, log) == []
    assert log.failed == log.attempted == 3


# -- small pure helpers ---------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(list(range(39))) is None
    assert measure.tail_percentile(list(range(40)))[0] == 75.0
    assert measure.tail_percentile(list(range(100)))[0] == 90.0
    assert measure.tail_percentile(list(range(1000)))[0] == 99.0


def test_judge_applies_direction_bound_and_spread():
    assert compare.judge([10.0], [10.5], "lower", 0.1) == "ok"
    assert compare.judge([10.0], [11.5], "lower", 0.1) == "regressed"
    assert compare.judge([10.0], [8.0], "higher", 0.1) == "regressed"
    assert compare.judge([10.0], [12.0], "higher", 0.1) == "ok"
    noisy = [8.0, 10.0, 12.0]
    assert compare.judge(noisy, [9.0, 10.5, 12.5], "lower", 0.1) == "unresolved"
    # Every run of B better than every run of A: resolved whatever the spread.
    assert compare.judge(noisy, [5.0, 6.0, 7.0], "lower", 0.1) == "ok"
    # Inside the absolute floor nothing regresses.
    assert compare.judge([0.010], [0.015], "lower", 0.1, floor=0.02) == "ok"


# -- the declaration ------------------------------------------------------------


def test_benchmark_json_is_well_formed():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARATION["paths"] == ["benchmarks/perf"]
    workloads = [w["name"] for w in DECLARATION["workloads"]]
    assert workloads == list(WORKLOADS) and len(workloads) == 4
    end_to_end = [m["name"] for m in DECLARATION["end_to_end"]]
    per_layer = [m["name"] for m in DECLARATION["per_layer"]]
    assert len(end_to_end) == 8 and "setup_s" in end_to_end
    assert len(per_layer) < 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    assert set(SHARE_OF.values()) <= set(per_layer)


def test_same_seed_same_federation(tmp_path):
    for name in ("digits_batched", "population_soak"):
        build = WORKLOADS[name].build
        feds = [build(5, tmp_path / f"{name}-a"), build(5, tmp_path / f"{name}-b"),
                build(6, tmp_path / f"{name}-c")]
        for fed in feds:
            fed.close()
        assert feds[0].digest == feds[1].digest != feds[2].digest


# -- the whole thing, small -------------------------------------------------------


def test_smoke_set_runs_everything_in_under_30_s(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2",
         "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30, f"smoke took {elapsed:.1f} s"
    result = json.loads(out.read_text())
    assert result["manifest"]["seed"] == 2
    assert set(result["manifest"]["thread_env"].values()) == {"1"}
    declared = {
        section: {m["name"] for m in DECLARATION[section]}
        for section in ("end_to_end", "per_layer")
    }
    assert set(result["workloads"]) == set(WORKLOADS)
    share_names = set(SHARE_OF.values())
    for name, entry in result["workloads"].items():
        assert NAME.fullmatch(name) and len(entry["config_digest"]) == 64
        for section, names in declared.items():
            assert set(entry[section]) == names
        assert all(run["failed_share"] == 0 for run in entry["runs"])
        total = sum(entry["per_layer"][m]["values"][0] for m in share_names)
        assert total == pytest.approx(1.0, abs=0.02)
    lstm = {n: e["per_layer"]["nn.lstm.share"]["values"][0]
            for n, e in result["workloads"].items()}
    assert lstm["nwp_batched"] > 0.5 and lstm["digits_serial"] == 0
