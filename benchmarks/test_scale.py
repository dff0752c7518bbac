"""Bench: peak RSS and throughput vs population size (trimmed sweep).

A trimmed version of ``tools/bench_scale.py``: a fixed 100-client
cohort federates over 1k / 10k / 100k-client store-backed populations
and peak RSS must stay nearly flat.  Each point runs in a fresh
subprocess because ``ru_maxrss`` is a process-lifetime high-water mark
— measured in this process it would report whatever the heaviest
earlier benchmark touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.reports import emit_report
from repro.experiments.scale import format_point

POPULATIONS = (1_000, 10_000, 100_000)
COHORT = 100
ROUNDS = 2


def _measure(population: int) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
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
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _sweep():
    return [_measure(p) for p in POPULATIONS]


def test_scale(benchmark):
    points = benchmark.pedantic(
        _sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    base = points[0]
    worst = max(
        p["peak_rss_kib"] / base["peak_rss_kib"] for p in points
    )
    lines = [format_point(p) for p in points]
    lines.append(
        f"peak-RSS growth vs {base['population']:,}-client base: "
        f"worst {worst:.2f}x"
    )
    emit_report("scale", "\n".join(lines))
    for point in points:
        assert point["clients_per_sec"] > 0.0, point
        assert point["history_digest"], point
        # Laziness contract: the cohorts' draws bound the touched
        # shards; the population size must not.
        assert point["materialized_shards"] <= COHORT * ROUNDS + 1, point
    # The store promise (and the bench_compare --max-rss-growth gate):
    # resident memory follows touched state, not pool size.
    assert worst <= 10.0, (
        f"peak RSS grew {worst:.2f}x from "
        f"{base['population']:,} to {points[-1]['population']:,} clients"
    )
