"""Bench: Fig. 4 + Table I -- vanilla FL vs Gaia vs CMFL on both workloads.

The paper's headline result.  Assertions encode the *shape* of Table I:
CMFL beats Gaia and vanilla in communication rounds to target accuracy,
and Gaia's best configuration is close to vanilla at the high-accuracy
target (its magnitude threshold either stalls or filters nothing).
"""

from repro.experiments import fig4_table1
from repro.experiments.reports import emit_report


def test_fig4_digits(benchmark):
    result = benchmark.pedantic(
        fig4_table1.run,
        kwargs={"workloads": ["digits_cnn"]},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    comparison = result.comparisons["digits_cnn"]
    emit_report("fig4_table1_digits", comparison.report())
    low, high = comparison.targets
    cmfl_low = comparison.best_saving("cmfl", low)
    assert cmfl_low is not None and cmfl_low > 1.0
    cmfl_high = comparison.best_saving("cmfl", high)
    gaia_high = comparison.best_saving("gaia", high)
    # CMFL reaches the high target with fewer rounds than vanilla; and
    # whenever Gaia also reaches it, CMFL's saving is at least as good.
    assert cmfl_high is not None and cmfl_high > 1.0
    if gaia_high is not None:
        assert cmfl_high >= gaia_high * 0.95


def test_fig4_nwp(benchmark):
    result = benchmark.pedantic(
        fig4_table1.run,
        kwargs={"workloads": ["nwp_lstm"]},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    comparison = result.comparisons["nwp_lstm"]
    emit_report("fig4_table1_nwp", comparison.report())
    low, high = comparison.targets
    cmfl_high = comparison.best_saving("cmfl", high)
    gaia_high = comparison.best_saving("gaia", high)
    # The paper's NWP row: CMFL yields the largest saving; Gaia's best
    # threshold either stalls before the high-accuracy target or saves
    # far less than CMFL.  (cmfl_high may be inf when vanilla itself
    # never reaches the target within the bench budget but CMFL does.)
    assert cmfl_high is not None and cmfl_high > 1.2
    if gaia_high is not None:
        assert cmfl_high > gaia_high
