"""Bench: Fig. 7 -- the EC2 cluster footprint, read off the run's ledger."""

from repro.experiments import fig7_ec2
from repro.experiments.reports import emit_report


def test_fig7_ec2(benchmark):
    result = benchmark.pedantic(
        fig7_ec2.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("fig7_ec2", result.report())
    # Fig 7b: CMFL ships substantially fewer full-update bytes overall.
    assert result.uploaded_bytes["cmfl"] < result.uploaded_bytes["vanilla"]
    # Data reduction at the levels both runs reached.
    reductions = [result.data_reduction(a) for a in result.levels]
    reached = [r for r in reductions if r is not None]
    assert reached and all(r > 1.0 for r in reached)
