"""Smoke tests: every paper experiment runs end-to-end at test scale."""

import numpy as np
import pytest

from repro.experiments import resolve_scale
from repro.experiments import workloads as wl


def test_resolve_scale_priority(monkeypatch):
    monkeypatch.delenv(wl.SCALE_ENV_VAR, raising=False)
    assert resolve_scale(None) == "bench"
    monkeypatch.setenv(wl.SCALE_ENV_VAR, "test")
    assert resolve_scale(None) == "test"
    assert resolve_scale("paper") == "paper"
    with pytest.raises(ValueError):
        resolve_scale("huge")


def test_fig1_divergence_smoke():
    from repro.experiments import fig1_divergence

    result = fig1_divergence.run("test")
    for model in ("digits_cnn", "nwp_lstm"):
        d = result.divergences[model]
        assert d.size > 100
        assert np.all(d >= 0)
        stats = result.stats(model)
        assert 0.0 <= stats["fraction_above_100pct"] <= 1.0
    assert "Fig 1" in result.report()


def test_fig2_measures_smoke():
    from repro.experiments import fig2_measures

    result = fig2_measures.run("test")
    assert result.significance.size == 4
    assert result.relevance.size == 4
    assert np.all(result.relevance >= 0) and np.all(result.relevance <= 1)
    assert np.all(result.significance > 0)
    assert "Fig 2" in result.report()


def test_fig3_delta_update_smoke():
    from repro.experiments import fig3_delta_update

    result = fig3_delta_update.run("test")
    for model in ("digits_cnn", "nwp_lstm"):
        assert result.deltas[model].size >= 1
        assert np.all(result.deltas[model] >= 0)
    assert "Fig 3" in result.report()


def test_fig4_digits_only_smoke():
    from repro.experiments import fig4_table1

    result = fig4_table1.run("test", workloads=["digits_cnn"])
    comparison = result.comparisons["digits_cnn"]
    assert "vanilla" in comparison.histories
    assert any(name.startswith("cmfl") for name in comparison.histories)
    comm, acc = comparison.curve("vanilla")
    assert comm.size == acc.size > 0
    assert "Table I" in comparison.report()


def test_fig5_table2_smoke():
    from repro.experiments import fig5_table2

    result = fig5_table2.run("test")
    for name in ("har", "semeion"):
        comparison = result.comparisons[name]
        assert comparison.accuracy_ratio() > 0
        assert comparison.cmfl.final.accumulated_rounds <= (
            comparison.vanilla.final.accumulated_rounds
        )
    assert "Table II" in result.report()


def test_fig6_outliers_smoke():
    from repro.experiments import fig6_outliers

    result = fig6_outliers.run("test")
    assert result.elimination_counts.size == result.truth_outlier.size
    assert 0.0 <= result.elimination_share_of_outliers <= 1.0
    precision, recall = result.detection_precision_recall()
    assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0
    assert "Fig 6" in result.report()


def test_fig7_ec2_smoke():
    from repro.baselines.vanilla import VanillaPolicy
    from repro.experiments import fig7_ec2
    from repro.nn.serialization import update_nbytes

    result = fig7_ec2.run("test")
    assert set(result.histories) == {"vanilla", "gaia", "cmfl"}
    n_params = wl.NWPWorkload(scale="test").make_trainer(
        VanillaPolicy(), rounds=1
    ).server.n_params
    report = result.report()
    for name, history in result.histories.items():
        # The uploaded MB column is the run's own ledger: Φ full updates.
        uploaded_mb = result.uploaded_bytes[name] / 1e6
        assert uploaded_mb == (
            history.final.accumulated_rounds * update_nbytes(n_params) / 1e6
        )
        assert f"{uploaded_mb:.2f}" in report
    assert result.uploaded_bytes["cmfl"] <= result.uploaded_bytes["vanilla"]
    assert "Fig 7" in report
    assert "sim seconds" not in report


def test_micro_overhead_smoke():
    from repro.experiments import micro_overhead

    result = micro_overhead.run("test")
    assert result.relevance_check_seconds > 0
    assert result.local_iteration_seconds > 0
    # the headline claim, generously bounded for slow CI machines
    assert result.overhead_fraction < 0.05
    assert "overhead" in result.report()


def test_convergence_check_smoke():
    from repro.experiments import convergence_check

    result = convergence_check.run("test")
    assert result.time_average_regret.size == 12
    assert np.all(np.isfinite(result.time_average_regret))
    assert "Theorem 1" in result.report()


def test_ablations_smoke():
    from repro.experiments import ablations

    result = ablations.run("test")
    assert len(result.schedule_runs) == 3
    assert len(result.staleness_runs) == 2
    assert len(result.gaia_runs) == 2
    assert result.layer_relevance
    assert "Ablation" in result.report()
