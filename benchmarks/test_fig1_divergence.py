"""Bench: Fig. 1 -- Normalized Model Divergence CDFs."""

from repro.experiments import fig1_divergence
from repro.experiments.reports import emit_report


def test_fig1_divergence(benchmark):
    result = benchmark.pedantic(
        fig1_divergence.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("fig1_divergence", result.report())
    for model in ("digits_cnn", "nwp_lstm"):
        stats = result.stats(model)
        # The paper's core finding: a non-trivial mass of parameters
        # diverges by more than 100% between client and global models
        # (our smaller/shorter federations show less mass than the
        # paper's >50%, but the heavy tail is unmistakable).
        assert stats["fraction_above_100pct"] > 0.02
        assert stats["max"] > 2.0
