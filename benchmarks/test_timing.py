"""Bench: round throughput per execution backend + im2col micro-timing.

Writes the same sweep as ``tools/bench_timing.py`` (fewer rounds) and
asserts the engine's core contract: every backend produces a
bitwise-identical run history.
"""

from repro.experiments import timing
from repro.experiments.reports import emit_report


def test_timing(benchmark):
    payload = benchmark.pedantic(
        timing.run_timing,
        kwargs={"rounds": 2, "warmup": 1},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    emit_report("timing", timing.format_report(payload))
    for workload, data in payload["workloads"].items():
        # The engine contract: backends differ only in wall-clock time.
        assert data["identical_histories"], (
            f"{workload}: backends diverged: "
            f"{ {b: e['history_digest'] for b, e in data['backends'].items()} }"
        )
        for backend, entry in data["backends"].items():
            assert entry["sec_per_round"] > 0.0, (workload, backend)
            assert entry["clients_per_sec"] > 0.0, (workload, backend)
    micro = payload["micro"]["im2col"]
    # The measurement behind dropping the unconditional
    # ascontiguousarray in im2col: the unfold already lands contiguous.
    assert micro["result_is_contiguous"]
    assert micro["strided_view_ms"] > 0.0
