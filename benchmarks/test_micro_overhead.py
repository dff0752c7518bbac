"""Bench: Sec. V-C -- relevance-check computational overhead."""

from repro.experiments import micro_overhead
from repro.experiments.reports import emit_report


def test_micro_overhead(benchmark):
    result = benchmark.pedantic(
        micro_overhead.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("micro_overhead", result.report())
    # The paper's claim: checking relevance costs <0.13% of one local
    # training iteration.
    assert result.overhead_fraction < 0.0013
