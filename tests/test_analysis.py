"""Divergence, CDFs, saving and regret analysis."""

import numpy as np
import pytest

from repro.analysis.cdf import fraction_below, quantile
from repro.analysis.convergence import RegretTracker, theoretical_bound
from repro.analysis.divergence import normalized_model_divergence
from repro.analysis.saving import (
    best_reached_accuracy,
    bytes_to_accuracy,
    rounds_to_accuracy,
    saving,
)
from repro.fl.history import RoundRecord, RunHistory


class TestDivergence:
    def test_identical_models_zero_divergence(self):
        g = np.array([1.0, -2.0, 3.0])
        d = normalized_model_divergence([g.copy(), g.copy()], g)
        np.testing.assert_allclose(d, np.zeros(3))

    def test_known_value(self):
        g = np.array([2.0])
        d = normalized_model_divergence([np.array([3.0]), np.array([1.0])], g)
        # (|3-2| + |1-2|) / 2 / |2| = 0.5
        assert d[0] == pytest.approx(0.5)

    def test_eq7_per_client_average(self):
        g = np.array([1.0, 1.0])
        clients = [np.array([2.0, 1.0]), np.array([0.0, 1.0]),
                   np.array([1.0, 3.0])]
        d = normalized_model_divergence(clients, g)
        assert d[0] == pytest.approx(2 / 3)
        assert d[1] == pytest.approx(2 / 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_model_divergence([np.ones(2)], np.ones(3))


class TestCDF:
    def test_fraction_below(self):
        assert fraction_below(np.array([1, 2, 3, 4]), 2.5) == 0.5

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            quantile(np.array([1.0]), 1.5)


def _history(metrics, uploads_per_round=5, bytes_per_round=1000):
    history = RunHistory("x")
    for t, metric in enumerate(metrics, start=1):
        history.append(
            RoundRecord(
                iteration=t, n_clients=uploads_per_round,
                n_uploaded=uploads_per_round,
                accumulated_rounds=uploads_per_round * t,
                total_bytes=bytes_per_round * t, lr=0.1,
                mean_train_loss=1.0, mean_score=0.5, threshold=0.5,
                test_metric=metric,
            )
        )
    return history


class TestSaving:
    def test_rounds_to_accuracy_first_crossing(self):
        history = _history([0.1, 0.5, 0.7, 0.9], uploads_per_round=2)
        # smoothing window 1 -> raw curve
        assert rounds_to_accuracy(history, 0.7, smooth_window=1) == 6

    def test_unreached_target_returns_none(self):
        history = _history([0.1, 0.2])
        assert rounds_to_accuracy(history, 0.9) is None

    def test_smoothing_suppresses_spikes(self):
        history = _history([0.1, 0.95, 0.1, 0.1, 0.1])
        assert rounds_to_accuracy(history, 0.9, smooth_window=3) is None

    def test_saving_ratio(self):
        base = _history([0.2, 0.4, 0.6, 0.8], uploads_per_round=10)
        comp = _history([0.4, 0.8, 0.9, 0.9], uploads_per_round=5)
        s = saving(base, comp, 0.75, smooth_window=1)
        # base reaches at phi=40, comp at phi=10
        assert s == pytest.approx(4.0)

    def test_bytes_to_accuracy(self):
        history = _history([0.1, 0.9], bytes_per_round=500)
        assert bytes_to_accuracy(history, 0.8, smooth_window=1) == 1000

    def test_best_reached(self):
        history = _history([0.3, 0.9, 0.5])
        assert best_reached_accuracy(history, smooth_window=1) == pytest.approx(0.9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            rounds_to_accuracy(_history([0.5]), 1.5)


class TestRegret:
    def test_time_average_regret(self):
        tracker = RegretTracker(optimal_loss=1.0)
        for loss in (3.0, 2.0, 1.0, 1.0):
            tracker.observe(loss)
        avg = tracker.time_average_regret()
        np.testing.assert_allclose(avg, [2.0, 1.5, 1.0, 0.75])

    def test_is_decaying_on_converging_run(self):
        tracker = RegretTracker(0.0)
        for t in range(1, 50):
            tracker.observe(1.0 / t)
        assert tracker.is_decaying()

    def test_nonfinite_rejected(self):
        tracker = RegretTracker(0.0)
        with pytest.raises(ValueError):
            tracker.observe(float("nan"))

    def test_theoretical_bound_decays_for_sqrt_schedules(self):
        t = np.arange(1, 200)
        etas = 1.0 / np.sqrt(t)
        bound = theoretical_bound(etas, etas)
        assert bound[-1] < bound[10] < bound[0] * 2
        # ~ 1/sqrt(T) shape: quadrupling T should roughly halve it
        assert bound[160] / bound[40] == pytest.approx(0.5, rel=0.25)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            theoretical_bound(np.array([0.1]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            theoretical_bound(np.array([-0.1]), np.array([0.1]))
