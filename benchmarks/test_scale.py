"""Bench: peak RSS and throughput vs population size — sweep and gate.

A fixed 100-client cohort federates over 1k / 10k / 100k / 1M-client
store-backed populations; peak RSS must stay nearly flat, and turning
head-sampled tracing on must not change that.  Each point and its
traced twin run in a fresh subprocess because peak RSS is a
process-lifetime high-water mark — measured in this process it would
report whatever the heaviest earlier benchmark touched.  The points
read ``VmHWM`` (``repro.experiments.scale.peak_rss_kib``), which
``exec`` resets; ``ru_maxrss`` would carry this launcher's peak into
every subprocess and flatten the growth ratio the gate reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.reports import emit_report
from repro.experiments.scale import format_point

POPULATIONS = (1_000, 10_000, 100_000, 1_000_000)
COHORT = 100
ROUNDS = 2
TRACE_SAMPLE = 0.01


def _measure(population: int, traced: bool = False) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable,
        "-m",
        "repro.experiments.scale",
        "--population",
        str(population),
        "--cohort",
        str(COHORT),
        "--rounds",
        str(ROUNDS),
        "--json",
    ]
    if traced:
        argv += ["--trace", "--trace-sample", str(TRACE_SAMPLE)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _sweep():
    return [(_measure(p), _measure(p, traced=True)) for p in POPULATIONS]


def test_scale(benchmark):
    pairs = benchmark.pedantic(
        _sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    points = [point for point, _ in pairs]
    base = points[0]
    growth = max(p["peak_rss_kib"] / base["peak_rss_kib"] for p in points)
    traced = max(
        twin["peak_rss_kib"] / point["peak_rss_kib"] for point, twin in pairs
    )
    lines = [format_point(p) for p in points]
    lines.append(
        f"peak-RSS growth vs {base['population']:,}-client base: "
        f"worst {growth:.2f}x"
    )
    lines.append(
        f"traced-RSS ratio (sample {TRACE_SAMPLE}): "
        f"worst {traced:.2f}x tracing off"
    )
    emit_report("scale", "\n".join(lines))
    for point, twin in pairs:
        assert point["clients_per_sec"] > 0.0, point
        assert point["history_digest"], point
        # Laziness contract: the cohorts' draws bound the touched
        # shards; the population size must not.
        assert point["materialized_shards"] <= COHORT * ROUNDS + 1, point
        # The twin is the same run, observed.
        assert twin["trace"] == {"enabled": True, "sample": TRACE_SAMPLE}
        assert twin["history_digest"] == point["history_digest"], twin
    # The store promise: resident memory follows touched state, not
    # pool size.
    assert growth <= 10.0, (
        f"peak RSS grew {growth:.2f}x from "
        f"{base['population']:,} to {points[-1]['population']:,} clients"
    )
    # Tracing stays constant-memory at scale (sampled spans + rollups).
    assert traced <= 2.0, (
        f"sampled tracing raised peak RSS {traced:.2f}x over tracing off"
    )
