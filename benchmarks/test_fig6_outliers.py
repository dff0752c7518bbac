"""Bench: Fig. 6 -- eliminations concentrate on divergent outlier clients."""

from repro.experiments import fig6_outliers
from repro.experiments.reports import emit_report


def test_fig6_outliers(benchmark):
    result = benchmark.pedantic(
        fig6_outliers.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("fig6_outliers", result.report())
    # The paper's 37/142 clients own 84.5% of eliminations; our top-26%
    # cut should own a clear majority too.
    assert result.elimination_share_of_outliers > 0.5
    # Frequent elimination is an effective outlier detector against the
    # generator's ground truth.
    precision, recall = result.detection_precision_recall()
    assert precision > 0.6
    assert recall > 0.6
