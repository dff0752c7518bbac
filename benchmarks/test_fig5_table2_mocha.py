"""Bench: Fig. 5 + Table II -- CMFL applied to federated MTL (MOCHA)."""

from repro.experiments import fig5_table2
from repro.experiments.reports import emit_report


def test_fig5_har(benchmark):
    comparison = benchmark.pedantic(
        fig5_table2.run_dataset,
        args=("har", "bench"),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    emit_report("fig5_table2_har", comparison.report())
    # Communication shrinks...
    assert (comparison.cmfl.final.accumulated_rounds
            < comparison.vanilla.final.accumulated_rounds)
    # ... without hurting accuracy (the paper even sees a small gain).
    assert comparison.accuracy_ratio() > 0.97
    # Eliminations concentrate on the corrupted clients.
    assert comparison.skips_outliers > 2 * comparison.skips_clean


def test_fig5_semeion(benchmark):
    comparison = benchmark.pedantic(
        fig5_table2.run_dataset,
        args=("semeion", "bench"),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    emit_report("fig5_table2_semeion", comparison.report())
    assert (comparison.cmfl.final.accumulated_rounds
            <= comparison.vanilla.final.accumulated_rounds)
    assert comparison.accuracy_ratio() > 0.95
