"""Bench: Theorem 1 -- empirical convergence of CMFL on a convex problem."""

from repro.experiments import convergence_check
from repro.experiments.reports import emit_report


def test_convergence_guarantee(benchmark):
    result = benchmark.pedantic(
        convergence_check.run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit_report("convergence_check", result.report())
    # Eq. (5): the time-average regret must decay.
    assert result.is_decaying
    # The Theorem-1 bound shape for 1/sqrt(t) schedules decays too.
    assert result.bound_shape[-1] < result.bound_shape[0]
