"""Run health as a fold over the trace: the finding logic on crafted
event lists, the findings of real traced runs (none of which writes a
``health.*`` event), and the ASCII dashboard."""

import time

import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.experiments.ckpt_smoke import die_in_round
from repro.fl.client import FLClient
from repro.fl.trainer import FederatedTrainer
from repro.obs import (
    deterministic_view,
    health_events,
    health_summary,
    load_trace,
    render_dashboard,
)
from repro.obs.health import STALL_MIN_DELTA, STALL_PATIENCE
from repro.obs.report import sparkline
from tests.strategies import FederationSpec, federation


def _rollup(iteration=1, participants=4, uploaded=2, forced=0, rt=None):
    event = {
        "kind": "point",
        "name": "round_rollup",
        "attrs": {
            "iteration": iteration,
            "n_participants": participants,
            "n_uploaded": uploaded,
            "n_forced": forced,
            "uploaded_bytes": 40 * uploaded,
            "status_bytes": 8 * (participants - uploaded),
        },
    }
    if rt is not None:
        event["rt"] = rt
    return event


def _evaluate(iteration, metric, loss=0.1):
    return {
        "kind": "span",
        "name": "evaluate",
        "attrs": {"iteration": iteration, "test_loss": loss, "test_metric": metric},
    }


def _round(iteration, metric=None, loss=0.1, **rollup):
    """One round's events in trace order: its evaluate span (when it
    evaluates), then its rollup."""
    evaluate = [] if metric is None else [_evaluate(iteration, metric, loss)]
    return evaluate + [_rollup(iteration, **rollup)]


def _straggler_rt(count=10, p50=0.01, worst=0.2):
    return {
        "compute_s": {"count": count, "p50": p50, "max": worst},
        "slowest": [[3, worst]],
    }


def _names(events):
    return [finding["name"] for finding in health_events(events)]


def _flat_rounds(first, n, metric=0.5):
    """``n`` evaluating rounds from ``first`` that never improve."""
    return [e for t in range(first, first + n) for e in _round(t, metric)]


class TestHealthFold:
    def test_healthy_round_yields_nothing(self):
        assert health_events(_round(1, 0.8)) == []
        # Findings an older trace recorded are not read back: the fold
        # answers from the rollups alone.
        recorded = {"kind": "point", "name": "health.stall",
                    "attrs": {"iteration": 1}}
        assert health_events([recorded] + _round(1, 0.8)) == []

    def test_dead_cohort_counts_only_organic_uploads(self):
        (finding,) = health_events(_round(1, uploaded=1, forced=1))
        assert finding["name"] == "health.dead_cohort"
        assert finding["attrs"] == {
            "iteration": 1, "n_participants": 4, "n_forced": 1,
        }
        assert finding["rt"] == {}
        # One organic upload keeps the cohort alive.
        assert health_events(_round(1, uploaded=2, forced=1)) == []
        # An empty round (no participants) is not a dead cohort.
        assert health_events(_round(1, participants=0, uploaded=0)) == []

    def test_non_finite_fields_are_named(self):
        (finding,) = health_events(
            _round(1, metric=float("inf"), loss=float("nan"))
        )
        assert finding["name"] == "health.non_finite"
        assert finding["attrs"]["fields"] == {
            "test_loss": "nan", "test_metric": "inf",
        }
        # An evaluation belongs to its own round only.
        stray = [_evaluate(1, 0.5, float("nan")), _rollup(2)]
        assert health_events(stray) == []

    def test_stall_fires_after_patience_and_resets_on_improvement(self):
        assert STALL_PATIENCE == 5 and STALL_MIN_DELTA == 1e-4
        # A gain below the minimum delta is no improvement.
        events = _round(1, 0.5) + _round(2, 0.5 + STALL_MIN_DELTA / 2)
        events += _flat_rounds(3, STALL_PATIENCE - 2)
        assert health_events(events) == []
        events += _round(STALL_PATIENCE + 1, 0.5)
        (stall,) = health_events(events)
        assert stall == {
            "name": "health.stall",
            "attrs": {
                "iteration": STALL_PATIENCE + 1,
                "rounds_since_improvement": STALL_PATIENCE,
                "best_metric": 0.5,
            },
            "rt": {},
        }
        # A real improvement resets the cursor; rounds without an eval
        # leave it untouched.
        t = STALL_PATIENCE + 2
        events += _round(t, 0.6) + _round(t + 1) + _round(t + 2)
        events += _flat_rounds(t + 3, STALL_PATIENCE - 1, metric=0.6)
        assert _names(events) == ["health.stall"]
        events += _round(t + 2 + STALL_PATIENCE, 0.6)
        last = health_events(events)[-1]["attrs"]
        assert last["iteration"] == t + 2 + STALL_PATIENCE
        assert last["best_metric"] == 0.6

    def test_straggler_is_a_runtime_finding(self):
        events = _round(1, rt=_straggler_rt())
        (finding,) = health_events(events)
        assert finding["name"] == "runtime.health.straggler"
        # The wall-clock payload lives in rt; attrs only anchor a round.
        assert finding["attrs"] == {"iteration": 1}
        assert finding["rt"]["factor"] == pytest.approx(20.0)
        assert finding["rt"]["slowest"] == [[3, 0.2]]
        # The deterministic view strips rt, so it never yields one.
        assert health_events(deterministic_view(events)) == []
        # Small cohorts are never straggler-flagged (too noisy), and a
        # slowest task under 4x the median is no straggler.
        assert health_events(_round(1, rt=_straggler_rt(count=7))) == []
        assert health_events(_round(1, rt=_straggler_rt(worst=0.039))) == []

    def test_findings_come_in_fixed_order(self):
        events = _flat_rounds(1, STALL_PATIENCE)
        events += _round(
            STALL_PATIENCE + 1, 0.5, loss=float("nan"), participants=9,
            uploaded=0, rt=_straggler_rt(count=9),
        )
        assert _names(events) == [
            "health.dead_cohort",
            "health.non_finite",
            "health.stall",
            "runtime.health.straggler",
        ]


class _SleepyClient(FLClient):
    """Client 0 stalls long enough to dominate the round's compute."""

    def compute_update(self, *args, **kwargs):
        if self.client_id == 0:
            time.sleep(0.05)
        return super().compute_update(*args, **kwargs)


def _flat_eval(workspace):
    """An evaluation that never improves: every run stalls in round
    ``STALL_PATIENCE + 1``."""
    del workspace
    return 0.25, 0.5


def _traced_run(rounds=3, flat=False, **kwargs):
    trainer, _ = federation(
        CMFLPolicy(InverseSqrtThreshold(0.8)), rounds=rounds, trace=True,
        **kwargs,
    )
    if flat:
        trainer.eval_fn = _flat_eval
    with trainer:
        trainer.run()
    return trainer, list(trainer.tracer.memory_events())


def _written_findings(events):
    return [e["name"] for e in events if "health." in e["name"]]


class TestInjectedFaults:
    def test_injected_straggler_fires_and_stays_runtime(self):
        _, events = _traced_run(
            rounds=2, n_clients=8, client_cls=_SleepyClient
        )
        assert _written_findings(events) == []
        stragglers = [
            f for f in health_events(events)
            if f["name"] == "runtime.health.straggler"
        ]
        assert stragglers
        # Client 0 is the injected straggler.
        assert {f["rt"]["slowest"][0][0] for f in stragglers} == {0}
        # Wall-clock findings are masked from the deterministic view.
        assert health_events(deterministic_view(events)) == []

    def test_injected_stall_fires_deterministically(self):
        _, events = _traced_run(rounds=STALL_PATIENCE + 2, flat=True)
        assert _written_findings(events) == []
        stalls = [
            f["attrs"]["iteration"] for f in health_events(events)
            if f["name"] == "health.stall"
        ]
        assert stalls == [STALL_PATIENCE + 1, STALL_PATIENCE + 2]
        # Deterministic findings are read off the deterministic view.
        assert health_events(deterministic_view(events)) == [
            f for f in health_events(events)
            if not f["name"].startswith("runtime.")
        ]
        assert health_summary(events)["health.stall"] == 2

    def test_dead_cohort_is_folded_not_written(self):
        # Round 1 uploads everything; under a threshold clipped to 1 an
        # update uploads only if every one of its 257 signs agrees, which
        # no client of this CNN federation's does after it, so only
        # force_best keeps rounds 2 and 3 alive.
        spec = FederationSpec(
            model="cnn", sizes=(6,) * 4, threshold=5.0, trace_sample=1.0
        )
        trainer = FederatedTrainer(**spec.parts("serial"))
        with trainer:
            trainer.run()
        events = list(trainer.tracer.memory_events())
        assert _written_findings(events) == []
        assert [r.n_uploaded for r in trainer.history] == [4, 1, 1]
        assert health_events(events) == [
            {
                "name": "health.dead_cohort",
                "attrs": {"iteration": t, "n_participants": 4, "n_forced": 1},
                "rt": {},
            }
            for t in (2, 3)
        ]


#: A journaled federation whose flat evaluation stalls in round 6.
RESUMED = FederationSpec(
    sizes=(6,) * 4, rounds=STALL_PATIENCE + 3, trace_sample=1.0
)


class _Kill(RuntimeError):
    """A crash raised from inside the decide phase."""


def _crash():
    raise _Kill("simulated crash")


def _journaled(directory, kill_round=None):
    """The ``RESUMED`` run journaled under ``directory``; with
    ``kill_round``, crashed in that round's decide phase and resumed
    from the latest checkpoint."""
    parts = RESUMED.parts("serial", directory=directory)
    parts["eval_fn"] = _flat_eval
    trainer = FederatedTrainer(**parts)
    if kill_round is not None:
        die_in_round(trainer, kill_round, _crash)
        with pytest.raises(_Kill), trainer:
            trainer.run()
        parts = RESUMED.parts("serial", directory=directory)
        parts["eval_fn"] = _flat_eval
        path = latest_checkpoint(directory / "ckpt")
        trainer = FederatedTrainer.restore(path, **parts)
        assert len(trainer.history) == kill_round - 1
    with trainer:
        trainer.run(RESUMED.rounds - len(trainer.history))
    return load_trace(directory / "trace.jsonl")


class TestFindingsAcrossCheckpoints:
    def test_manifest_has_no_health_cursor(self, tmp_path):
        trainer, _ = federation(
            CMFLPolicy(InverseSqrtThreshold(0.8)), rounds=2, trace=True,
            checkpoint_dir=str(tmp_path), checkpoint_every=1,
        )
        with trainer:
            trainer.run()
        paths = [str(p) for p in checkpoint_paths(tmp_path)]
        assert len(paths) == 2
        for path in paths:
            assert "health" not in read_checkpoint(path).manifest
        assert ckpt_cli(["verify", *paths]) == 0

    def test_resumed_run_folds_the_uninterrupted_findings(self, tmp_path):
        kill_round = STALL_PATIENCE - 1
        whole = _journaled(tmp_path / "whole")
        resumed = _journaled(tmp_path / "killed", kill_round=kill_round)
        assert _written_findings(resumed) == []
        findings = health_events(deterministic_view(whole))
        stalls = [f["attrs"]["iteration"] for f in findings
                  if f["name"] == "health.stall"]
        # Every stall comes after the kill, so the stall cursor had to
        # cross the checkpoint.
        assert stalls == list(range(STALL_PATIENCE + 1, RESUMED.rounds + 1))
        assert min(stalls) > kill_round
        assert health_events(deterministic_view(resumed)) == findings
        assert health_summary(resumed) == health_summary(whole)


class TestDashboard:
    def test_sparkline_handles_gaps_and_flats(self):
        assert sparkline([]) == ""
        assert sparkline([None, 1.0, None]) == "?=?"
        assert sparkline([2.0, 2.0, 2.0]) == "==="
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == " " and line[-1] == "@"

    def test_dashboard_renders_rollups_and_findings(self):
        _, events = _traced_run(rounds=STALL_PATIENCE + 1, flat=True)
        screen = render_dashboard(events)
        assert "round rollups (last 6 of 6)" in screen
        assert "train_loss_p50" in screen
        assert "health findings (1 total)" in screen
        assert "health.stall" in screen
        assert "trend  loss_p50" in screen

    def test_dashboard_survives_an_empty_trace(self):
        screen = render_dashboard([])
        assert "no round_rollup events yet" in screen
        assert "health: no findings" in screen
