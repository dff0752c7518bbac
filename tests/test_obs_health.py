"""The run health monitor: finding logic, injection end-to-end, and
the ASCII dashboard."""

import time

import pytest

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.fl.accounting import CommunicationLedger
from repro.fl.client import FLClient
from repro.obs import (
    HealthMonitor,
    deterministic_view,
    health_events,
    health_summary,
    render_dashboard,
)
from repro.obs.health import sparkline
from tests.strategies import federation


def _round_attrs(iteration=1, participants=4, uploaded=2, forced=0):
    return {
        "iteration": iteration,
        "n_participants": participants,
        "n_uploaded": uploaded,
        "n_forced": forced,
        "uploaded_bytes": 40 * uploaded,
        "status_bytes": 8 * (participants - uploaded),
    }


def _straggler_rt(count=10, p50=0.01, worst=0.2):
    return {
        "compute_s": {"count": count, "p50": p50, "max": worst},
        "slowest": [[3, worst]],
    }


def _monitor(**thresholds):
    """A monitor with some of its class-level thresholds replaced."""
    monitor = HealthMonitor()
    for name, value in thresholds.items():
        assert hasattr(HealthMonitor, name), name
        setattr(monitor, name, value)
    return monitor


class TestHealthMonitor:
    def test_healthy_round_yields_nothing(self):
        monitor = HealthMonitor()
        assert monitor.observe_round(
            _round_attrs(),
            test_metric=0.8,
            ledger_round_bytes=40 * 2 + 8 * 2,
        ) == []

    def test_dead_cohort_counts_only_organic_uploads(self):
        monitor = HealthMonitor()
        findings = monitor.observe_round(
            _round_attrs(uploaded=1, forced=1)
        )
        assert [name for name, _, _ in findings] == ["health.dead_cohort"]
        name, attrs, rt = findings[0]
        assert attrs["n_forced"] == 1 and rt is None
        # One organic upload keeps the cohort alive.
        assert monitor.observe_round(_round_attrs(uploaded=2, forced=1)) == []
        # An empty round (no participants) is not a dead cohort.
        assert monitor.observe_round(
            _round_attrs(participants=0, uploaded=0)
        ) == []

    def test_non_finite_fields_are_named(self):
        findings = HealthMonitor().observe_round(
            _round_attrs(),
            test_loss=float("nan"),
            mean_train_loss=float("inf"),
            test_metric=0.5,
        )
        assert [name for name, _, _ in findings] == ["health.non_finite"]
        fields = findings[0][1]["fields"]
        assert set(fields) == {"test_loss", "mean_train_loss"}

    def test_stall_fires_after_patience_and_resets_on_improvement(self):
        monitor = _monitor(STALL_PATIENCE=2, STALL_MIN_DELTA=0.01)
        assert monitor.observe_round(_round_attrs(1), test_metric=0.5) == []
        assert monitor.observe_round(_round_attrs(2), test_metric=0.5) == []
        findings = monitor.observe_round(_round_attrs(3), test_metric=0.505)
        assert [name for name, _, _ in findings] == ["health.stall"]
        assert findings[0][1]["rounds_since_improvement"] == 2
        # A real improvement resets the cursor.
        assert monitor.observe_round(_round_attrs(4), test_metric=0.6) == []
        assert monitor.rounds_since_improvement == 0
        # Rounds without an eval leave the cursor untouched.
        assert monitor.observe_round(_round_attrs(5)) == []
        assert monitor.evals_seen == 4

    def test_comm_drift_requires_both_totals(self):
        monitor = HealthMonitor()
        findings = monitor.observe_round(
            _round_attrs(), ledger_round_bytes=97
        )
        assert [name for name, _, _ in findings] == ["health.comm_drift"]
        assert findings[0][1] == {
            "iteration": 1, "ledger_bytes": 97, "rollup_bytes": 96,
        }
        assert monitor.observe_round(
            _round_attrs(), ledger_round_bytes=None
        ) == []

    def test_straggler_is_a_runtime_finding(self):
        monitor = HealthMonitor()
        findings = monitor.observe_round(_round_attrs(), _straggler_rt())
        assert [name for name, _, _ in findings] == [
            "runtime.health.straggler"
        ]
        name, attrs, rt = findings[0]
        # The wall-clock payload lives in rt; attrs only anchor a round.
        assert set(attrs) == {"iteration"}
        assert rt["factor"] == pytest.approx(20.0)
        assert rt["slowest"] == [[3, 0.2]]
        # Small cohorts are never straggler-flagged (too noisy).
        assert monitor.observe_round(
            _round_attrs(), _straggler_rt(count=4)
        ) == []
        assert monitor.observe_round(
            _round_attrs(), _straggler_rt(worst=0.03)
        ) == []

    def test_findings_come_in_fixed_order(self):
        monitor = _monitor(STALL_PATIENCE=1, STRAGGLER_MIN_CLIENTS=1)
        monitor.observe_round(_round_attrs(1), test_metric=0.5)
        findings = monitor.observe_round(
            _round_attrs(2, uploaded=0),
            _straggler_rt(count=9),
            test_metric=0.5,
            test_loss=float("nan"),
            ledger_round_bytes=1,
        )
        assert [name for name, _, _ in findings] == [
            "health.dead_cohort",
            "health.non_finite",
            "health.stall",
            "health.comm_drift",
            "runtime.health.straggler",
        ]

    def test_stall_cursor_roundtrips_through_state(self):
        monitor = _monitor(STALL_PATIENCE=3)
        monitor.observe_round(_round_attrs(1), test_metric=0.7)
        monitor.observe_round(_round_attrs(2), test_metric=0.7)
        resumed = _monitor(STALL_PATIENCE=3)
        resumed.load_state_dict(monitor.state_dict())
        assert resumed.best_metric == 0.7
        assert resumed.rounds_since_improvement == 1
        # Two more flat evals trip the same verdict the uninterrupted
        # monitor would reach.
        assert resumed.observe_round(_round_attrs(3), test_metric=0.7) == []
        findings = resumed.observe_round(_round_attrs(4), test_metric=0.7)
        assert [name for name, _, _ in findings] == ["health.stall"]


class _SleepyClient(FLClient):
    """Client 0 stalls long enough to dominate the round's compute."""

    def compute_update(self, *args, **kwargs):
        if self.client_id == 0:
            time.sleep(0.05)
        return super().compute_update(*args, **kwargs)


class _LeakyLedger(CommunicationLedger):
    """Books one phantom status byte in its second round only."""

    def record_round(self, uploaded_ids, skipped_ids, staleness=0):
        super().record_round(uploaded_ids, skipped_ids, staleness)
        if len(self.rounds_per_iteration) == 2:
            self.status_bytes += 1


class TestInjectedFaults:
    def _traced_run(self, monitor, client_cls=FLClient, rounds=3, ledger=None):
        trainer, _ = federation(
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            rounds=rounds,
            trace=True,
            client_cls=client_cls,
        )
        trainer.health = monitor
        if ledger is not None:
            trainer.ledger = ledger(n_params=trainer.server.n_params)
        with trainer:
            trainer.run()
        trainer.tracer.close()
        return trainer, list(trainer.tracer.memory_events())

    def test_injected_straggler_fires_and_stays_runtime(self):
        monitor = _monitor(
            STRAGGLER_FACTOR=2.0, STRAGGLER_MIN_CLIENTS=4
        )
        _, events = self._traced_run(monitor, client_cls=_SleepyClient)
        stragglers = [
            e for e in events if e["name"] == "runtime.health.straggler"
        ]
        assert stragglers
        slowest = stragglers[0]["rt"]["slowest"]
        assert slowest[0][0] == 0  # client 0 is the injected straggler
        # Wall-clock findings are masked from the deterministic view.
        assert health_events(deterministic_view(events)) == []

    def test_injected_ledger_drift_fires_in_its_round_only(self):
        _, clean = self._traced_run(HealthMonitor())
        assert "health.comm_drift" not in health_summary(clean)
        _, events = self._traced_run(HealthMonitor(), ledger=_LeakyLedger)
        drifts = [e for e in events if e["name"] == "health.comm_drift"]
        # The check compares per-round deltas, so one bad round is
        # flagged once, not in every round after it.
        assert [e["attrs"]["iteration"] for e in drifts] == [2]
        attrs = drifts[0]["attrs"]
        assert attrs["ledger_bytes"] == attrs["rollup_bytes"] + 1

    def test_injected_stall_fires_deterministically(self):
        # min_delta so large no improvement ever counts: the second
        # eval starts the stall and it fires every round after.
        monitor = _monitor(STALL_PATIENCE=1, STALL_MIN_DELTA=100.0)
        _, events = self._traced_run(monitor, rounds=4)
        stalls = [e for e in events if e["name"] == "health.stall"]
        assert len(stalls) == 3
        # Deterministic findings survive the deterministic view.
        assert health_events(deterministic_view(events))
        assert health_summary(events)["health.stall"] == 3


class TestDashboard:
    def test_sparkline_handles_gaps_and_flats(self):
        assert sparkline([]) == ""
        assert sparkline([None, 1.0, None]) == "?=?"
        assert sparkline([2.0, 2.0, 2.0]) == "==="
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == " " and line[-1] == "@"

    def test_dashboard_renders_rollups_and_findings(self):
        monitor = _monitor(STALL_PATIENCE=1, STALL_MIN_DELTA=100.0)
        trainer, _ = federation(
            CMFLPolicy(InverseSqrtThreshold(0.8)), rounds=3, trace=True
        )
        trainer.health = monitor
        with trainer:
            trainer.run()
        trainer.tracer.close()
        screen = render_dashboard(trainer.tracer.memory_events())
        assert "round rollups" in screen
        assert "health findings" in screen
        assert "health.stall" in screen
        assert "trend  loss_p50" in screen

    def test_dashboard_survives_an_empty_trace(self):
        screen = render_dashboard([])
        assert "no round_rollup events yet" in screen
        assert "health: no findings" in screen
