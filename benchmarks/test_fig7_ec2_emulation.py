"""Bench: Fig. 7 -- cluster emulation and uploaded-byte accounting."""

from repro.experiments import fig7_ec2
from repro.experiments.reports import emit_report


def test_fig7_ec2(benchmark):
    result = benchmark.pedantic(
        fig7_ec2.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("fig7_ec2", result.report())
    vanilla = result.reports["vanilla"]
    cmfl = result.reports["cmfl"]
    # Fig 7b: CMFL ships substantially fewer full-update bytes overall.
    assert cmfl.uploaded_megabytes < vanilla.uploaded_megabytes
    # Data reduction at the levels both runs reached.
    reductions = [result.data_reduction(a) for a in result.levels]
    reached = [r for r in reductions if r is not None]
    assert reached and all(r > 1.0 for r in reached)
    # Sec V-C: the relevance check is a negligible slice of compute.
    assert cmfl.relevance_overhead_fraction() < 0.0013
