"""Bench: Fig. 2 -- Gaia significance decays, CMFL relevance is stable."""

from repro.experiments import fig2_measures
from repro.experiments.reports import emit_report


def test_fig2_measures(benchmark):
    result = benchmark.pedantic(
        fig2_measures.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("fig2_measures", result.report())
    # Fig 2a: the magnitude measure decays substantially over training.
    assert result.significance_decay_factor() > 2.0
    # Fig 2b: the relevance measure stays within a narrow band.
    assert result.relevance_drift() < 0.15
