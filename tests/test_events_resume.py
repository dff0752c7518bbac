"""Checkpoint/resume of the async engine: a run killed mid-timeline
(in-flight rounds, queued events, advanced virtual clock) and resumed
from its last checkpoint is bitwise-identical to an uninterrupted one —
history, parameters and trace digest."""

import dataclasses
import gc
import os
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.experiments.ckpt_smoke import federation_parts
from repro.experiments.events_smoke import async_config
from repro.fl.events import AsyncFederatedTrainer
from repro.fl.trainer import FederatedTrainer
from repro.obs import load_trace, trace_digest

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 6
CRASH_ROUND = 5


class _Abort(RuntimeError):
    """Simulated crash raised from inside the decide phase."""


def _kwargs(tmp_path, tag):
    return dict(
        rounds=ROUNDS,
        ckpt_dir=str(tmp_path / f"{tag}-ckpt"),
        trace_path=str(tmp_path / f"{tag}-trace.jsonl"),
    )


def _build_engine(kwargs):
    return AsyncFederatedTrainer(
        FederatedTrainer(**federation_parts(**kwargs)),
        async_config=async_config(),
    )


def _run_uninterrupted(kwargs):
    engine = _build_engine(kwargs)
    with engine:
        engine.run(ROUNDS)
    return engine


def _run_crashed_then_resumed(kwargs):
    engine = _build_engine(kwargs)
    trainer = engine.trainer
    seen = {"count": 0}

    def hook(result, decision):
        del result, decision
        # Crash mid-decide of CRASH_ROUND's close — later rounds are
        # already dispatched and in flight, the clock has advanced, and
        # arrival events sit in the queue.
        if len(trainer.history) + 1 == CRASH_ROUND:
            seen["count"] += 1
            if seen["count"] >= 2:
                raise _Abort("simulated crash")

    trainer.on_decision = hook
    with pytest.raises(_Abort):
        with engine:
            engine.run(ROUNDS)

    path = latest_checkpoint(kwargs["ckpt_dir"])
    assert path is not None
    # Several rounds can close inside one arrival event (checkpoints
    # fire between events), so the last saved round may trail the
    # crashed one by more than 1.
    resumed = AsyncFederatedTrainer.restore(
        path, async_config=async_config(), **federation_parts(**kwargs)
    )
    assert 0 < len(resumed.history) < CRASH_ROUND
    with resumed:
        resumed.run(ROUNDS - len(resumed.history))
    return resumed


def _assert_verify_ok(*directories):
    paths = [str(p) for d in directories for p in checkpoint_paths(d)]
    assert paths
    assert ckpt_cli(["verify", *paths]) == 0


def test_crash_resume_is_bitwise_identical(tmp_path):
    full_kw = _kwargs(tmp_path, "full")
    part_kw = _kwargs(tmp_path, "part")
    full = _run_uninterrupted(full_kw)
    resumed = _run_crashed_then_resumed(part_kw)

    assert len(resumed.history) == ROUNDS
    assert resumed.history.to_jsonl() == full.history.to_jsonl()
    assert (
        resumed.trainer.server.global_params.tobytes()
        == full.trainer.server.global_params.tobytes()
    )
    assert trace_digest(load_trace(part_kw["trace_path"])) == trace_digest(
        load_trace(full_kw["trace_path"])
    )
    _assert_verify_ok(full_kw["ckpt_dir"], part_kw["ckpt_dir"])


def test_checkpoint_captures_inflight_rounds(tmp_path):
    """A mid-timeline checkpoint carries the clock, queue and the
    in-flight rounds' computed results."""
    kw = _kwargs(tmp_path, "cap")
    _run_uninterrupted(kw)
    seen_inflight = 0
    for path in checkpoint_paths(kw["ckpt_dir"]):
        ckpt = read_checkpoint(path)
        async_state = ckpt.manifest["async"]
        assert async_state["clock"]["now"] > 0.0
        assert async_state["closes_done"] == len(
            [l for l in ckpt.texts["history.jsonl"].splitlines() if l] ) - 1
        for entry in async_state["inflight"]:
            seen_inflight += 1
            t = entry["iteration"]
            assert t > async_state["closes_done"]
            assert f"async/{t}/global_params" in ckpt.arrays
            assert f"async/{t}/feedback" in ckpt.arrays
            for cid in entry["participants"]:
                assert f"async/{t}/update/{cid}" in ckpt.arrays
    # The smoke config spaces dispatches so rounds overlap checkpoint
    # boundaries: at least one snapshot must carry an in-flight round.
    assert seen_inflight > 0


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One uninterrupted smoke run's kwargs, shared by the refusals."""
    kw = _kwargs(tmp_path_factory.mktemp("finished"), "mis")
    _run_uninterrupted(kw)
    return kw


#: One changed value per AsyncConfig field (the smoke run uses S=2,
#: dispatch 0.4 s, drop 0.1, sigma 1.0).
MISMATCHES = {
    "staleness_bound": 7,
    "dispatch_interval_s": 0.5,
    "drop_rate": 0.0,
    "speed_sigma": 0.5,
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_restore_rejects_async_config_mismatch(finished_run, name):
    path = latest_checkpoint(finished_run["ckpt_dir"])
    ours = MISMATCHES[name]
    theirs = getattr(async_config(), name)
    with pytest.raises(ValueError, match=rf"{name}={theirs}.*{name}={ours}"):
        AsyncFederatedTrainer.restore(
            path,
            async_config=dataclasses.replace(async_config(), **{name: ours}),
            **federation_parts(**finished_run),
        )


def test_restore_rejects_a_snapshot_missing_a_knob(finished_run):
    """A checkpoint that does not record a knob cannot prove it matches."""
    ckpt = read_checkpoint(latest_checkpoint(finished_run["ckpt_dir"]))
    state = dict(ckpt.manifest["async"])
    del state["drop_rate"]
    engine = _build_engine(dict(finished_run, ckpt_dir=None, trace_path=None))
    with pytest.raises(ValueError, match="drop_rate=<missing>"):
        engine.restore_state(state, ckpt.arrays)


def test_sync_checkpoint_refused_by_async_restore(tmp_path):
    kw = dict(rounds=2, ckpt_dir=str(tmp_path / "ckpt"))
    trainer = FederatedTrainer(**federation_parts(**kw))
    with trainer:
        trainer.run(2)
    path = latest_checkpoint(kw["ckpt_dir"])
    with pytest.raises(ValueError, match="no async-engine state"):
        AsyncFederatedTrainer.restore(
            path, async_config=async_config(), **federation_parts(**kw)
        )


def test_sigkill_resume_matches_uninterrupted(tmp_path):
    """A process killed with SIGKILL mid-timeline resumes to the same run."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    kill_kw = _kwargs(tmp_path, "kill")
    cmd = [
        sys.executable, "-m", "repro.experiments.events_smoke",
        "--rounds", str(ROUNDS),
        "--ckpt-dir", kill_kw["ckpt_dir"],
        "--trace", kill_kw["trace_path"],
    ]
    killed = subprocess.run(
        cmd + ["--kill-at", "4"], env=env, cwd=REPO_ROOT, capture_output=True
    )
    assert killed.returncode == -signal.SIGKILL
    latest = latest_checkpoint(kill_kw["ckpt_dir"])
    assert latest is not None and latest.name < "ckpt-00000004.ckpt"

    resumed = subprocess.run(
        cmd + ["--resume"], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming from" in resumed.stdout

    full_kw = _kwargs(tmp_path, "full")
    full = _run_uninterrupted(full_kw)

    final = read_checkpoint(
        Path(kill_kw["ckpt_dir"]) / f"ckpt-{ROUNDS:08d}.ckpt"
    )
    assert final.texts["history.jsonl"] == full.history.to_jsonl()
    np.testing.assert_array_equal(
        final.arrays["global_params"], full.trainer.server.global_params
    )
    assert trace_digest(load_trace(kill_kw["trace_path"])) == trace_digest(
        load_trace(full_kw["trace_path"])
    )
    _assert_verify_ok(kill_kw["ckpt_dir"], full_kw["ckpt_dir"])


@pytest.mark.parametrize("restored", [False, True])
def test_a_closed_engine_is_freed_without_the_cyclic_gc(tmp_path, restored):
    """``close()`` clears ``trainer.async_engine``: once the caller
    drops a closed engine, reference counting frees its trainer."""
    kw = _kwargs(tmp_path, "gc")
    if restored:
        _run_uninterrupted(kw)
        first = checkpoint_paths(kw["ckpt_dir"])[0]

    def build():
        if restored:
            return AsyncFederatedTrainer.restore(
                first, async_config=async_config(), **federation_parts(**kw)
            )
        return _build_engine(kw)

    gc.disable()
    try:
        engine = build()
        engine.run(ROUNDS - len(engine.history))
        trainer = weakref.ref(engine.trainer)
        engine.close()
        del engine
        assert trainer() is None

        # Twin: closing only the trainer leaves the back-reference, and
        # the pair waits for the cyclic GC.
        twin = build()
        twin.run(ROUNDS - len(twin.history))
        kept = weakref.ref(twin.trainer)
        twin.trainer.close()
        del twin
        assert kept() is not None
    finally:
        gc.enable()
        gc.collect()


def test_a_closed_engine_refuses_to_run(tmp_path):
    engine = _build_engine(_kwargs(tmp_path, "closed"))
    with engine:
        engine.run(2)
    with pytest.raises(RuntimeError, match="closed"):
        engine.run(2)
    assert len(engine.history) == 2
