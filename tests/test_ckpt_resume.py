"""The headline checkpoint guarantee: a run killed at any round and
resumed from its last checkpoint is bitwise-identical to an
uninterrupted run — history, parameters and trace digest — on every
executor backend.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.experiments.ckpt_smoke import federation_parts
from repro.fl.trainer import FederatedTrainer
from repro.obs import load_trace, trace_digest

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 6
CRASH_ROUND = 5

MATRIX = [
    ("serial", "momentum"),
    ("serial", "sgd"),
    ("batched", "sgd"),
]


class _Abort(RuntimeError):
    """Simulated crash raised from inside the decide phase."""


def _kwargs(tmp_path, tag, backend, optimizer):
    return dict(
        rounds=ROUNDS,
        backend=backend,
        optimizer=optimizer,
        ckpt_dir=str(tmp_path / f"{tag}-ckpt"),
        trace_path=str(tmp_path / f"{tag}-trace.jsonl"),
    )


def _run_uninterrupted(kwargs):
    trainer = FederatedTrainer(**federation_parts(**kwargs))
    with trainer:
        trainer.run(ROUNDS)
    return trainer


def _run_crashed_then_resumed(kwargs):
    trainer = FederatedTrainer(**federation_parts(**kwargs))
    seen = {"count": 0}

    def hook(result, decision):
        del result, decision
        # Crash mid-decide of CRASH_ROUND, after its predecessor's
        # checkpoint exists but with the round span still open.
        if len(trainer.history) + 1 == CRASH_ROUND:
            seen["count"] += 1
            if seen["count"] >= 2:
                raise _Abort("simulated crash")

    trainer.on_decision = hook
    with pytest.raises(_Abort):
        with trainer:
            trainer.run(ROUNDS)

    path = latest_checkpoint(kwargs["ckpt_dir"])
    assert path is not None
    assert path.name == f"ckpt-{CRASH_ROUND - 1:08d}.ckpt"
    resumed = FederatedTrainer.restore(path, **federation_parts(**kwargs))
    assert len(resumed.history) == CRASH_ROUND - 1
    with resumed:
        resumed.run(ROUNDS - len(resumed.history))
    return resumed


def _assert_verify_ok(*directories):
    paths = [str(p) for d in directories for p in checkpoint_paths(d)]
    assert paths
    assert ckpt_cli(["verify", *paths]) == 0


@pytest.mark.parametrize("backend,optimizer", MATRIX)
def test_crash_resume_is_bitwise_identical(tmp_path, backend, optimizer):
    full_kw = _kwargs(tmp_path, "full", backend, optimizer)
    part_kw = _kwargs(tmp_path, "part", backend, optimizer)
    full = _run_uninterrupted(full_kw)
    resumed = _run_crashed_then_resumed(part_kw)

    assert len(resumed.history) == ROUNDS
    assert resumed.history.to_jsonl() == full.history.to_jsonl()
    assert (
        resumed.server.global_params.tobytes()
        == full.server.global_params.tobytes()
    )
    assert trace_digest(load_trace(part_kw["trace_path"])) == trace_digest(
        load_trace(full_kw["trace_path"])
    )
    _assert_verify_ok(full_kw["ckpt_dir"], part_kw["ckpt_dir"])


def test_sigkill_resume_matches_uninterrupted(tmp_path):
    """A process killed with SIGKILL mid-round resumes to the same run."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    kill_kw = _kwargs(tmp_path, "kill", "serial", "momentum")
    cmd = [
        sys.executable, "-m", "repro.experiments.ckpt_smoke",
        "--rounds", str(ROUNDS),
        "--ckpt-dir", kill_kw["ckpt_dir"],
        "--trace", kill_kw["trace_path"],
    ]
    killed = subprocess.run(
        cmd + ["--kill-at", "4"], env=env, cwd=REPO_ROOT, capture_output=True
    )
    assert killed.returncode == -signal.SIGKILL
    assert latest_checkpoint(kill_kw["ckpt_dir"]).name == "ckpt-00000003.ckpt"

    resumed = subprocess.run(
        cmd + ["--resume"], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming from" in resumed.stdout

    full_kw = _kwargs(tmp_path, "full", "serial", "momentum")
    full = _run_uninterrupted(full_kw)

    final = read_checkpoint(
        Path(kill_kw["ckpt_dir"]) / f"ckpt-{ROUNDS:08d}.ckpt"
    )
    assert final.texts["history.jsonl"] == full.history.to_jsonl()
    np.testing.assert_array_equal(
        final.arrays["global_params"], full.server.global_params
    )
    assert trace_digest(load_trace(kill_kw["trace_path"])) == trace_digest(
        load_trace(full_kw["trace_path"])
    )
    _assert_verify_ok(kill_kw["ckpt_dir"], full_kw["ckpt_dir"])


def test_resume_without_trace(tmp_path):
    """Checkpointing works with tracing off; restore matches the full run."""
    kw = dict(
        rounds=ROUNDS, backend="serial", optimizer="momentum",
        ckpt_dir=str(tmp_path / "ckpt"),
    )
    full = _run_uninterrupted(kw)
    mid = Path(kw["ckpt_dir"]) / "ckpt-00000003.ckpt"
    resumed = FederatedTrainer.restore(mid, **federation_parts(**kw))
    assert not resumed.tracer.enabled
    with resumed:
        resumed.run(ROUNDS - 3)
    assert resumed.history.to_jsonl() == full.history.to_jsonl()
    assert (
        resumed.server.global_params.tobytes()
        == full.server.global_params.tobytes()
    )


def test_restore_rejects_mismatched_federation(tmp_path):
    from repro.ckpt import CheckpointError

    kw = dict(
        rounds=2, backend="serial", optimizer="momentum",
        ckpt_dir=str(tmp_path / "ckpt"),
    )
    trainer = FederatedTrainer(**federation_parts(**kw))
    with trainer:
        trainer.run(2)
    path = latest_checkpoint(kw["ckpt_dir"])
    wrong = federation_parts(**{**kw, "optimizer": "sgd"})
    with pytest.raises(CheckpointError, match="does not match"):
        FederatedTrainer.restore(path, **wrong)


def test_checkpoint_every_and_retention_in_run(tmp_path):
    kw = dict(
        rounds=ROUNDS, backend="serial", optimizer="sgd",
        ckpt_dir=str(tmp_path / "ckpt"), ckpt_every=2, ckpt_keep=2,
    )
    trainer = FederatedTrainer(**federation_parts(**kw))
    with trainer:
        trainer.run(ROUNDS)
    names = [p.name for p in checkpoint_paths(kw["ckpt_dir"])]
    assert names == ["ckpt-00000004.ckpt", "ckpt-00000006.ckpt"]
    _assert_verify_ok(kw["ckpt_dir"])
