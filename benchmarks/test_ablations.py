"""Bench: design-choice ablations (threshold schedule, staleness,
Gaia granularity, per-layer relevance)."""

from repro.experiments import ablations
from repro.experiments.reports import emit_report


def test_ablations(benchmark):
    result = benchmark.pedantic(
        ablations.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("ablations", result.report())
    by_name = {r.name: r for r in result.schedule_runs}
    constant = by_name["constant(0.57)"].history
    inv_sqrt = by_name["inv-sqrt(0.8) [paper]"].history
    # The 1/sqrt(t) schedule drops under the relevance distribution
    # within a few rounds, after which it filters (almost) nothing --
    # its total uploads approach vanilla's; the constant schedule keeps
    # filtering.
    assert constant.final.accumulated_rounds < inv_sqrt.final.accumulated_rounds
    # Staleness: a 3-round-old feedback estimate still produces a
    # functioning run (Eq. 8 says global updates change slowly).
    for run in result.staleness_runs:
        assert len(run.history) > 0
    # Per-layer relevance was actually measured.
    assert len(result.layer_relevance) >= 4
