"""The headline checkpoint guarantee across processes: a run SIGKILLed
mid-round and resumed from its last checkpoint by
``python -m repro.experiments.ckpt_smoke`` is bitwise-identical to an
uninterrupted run — history, parameters and trace digest — through the
synchronous trainer and through the async engine.  The in-process
kill/resume edge over drawn federations is ``tests/test_lattice.py``.
"""

import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.experiments.ckpt_smoke import async_config, federation_parts
from repro.fl.events import AsyncFederatedTrainer
from repro.fl.trainer import FederatedTrainer
from repro.nn.schedules import ConstantLR, LRSchedule
from repro.obs import load_trace, trace_digest
from tests.strategies import SMOKE, FederationSpec, assert_lattice

REPO_ROOT = Path(__file__).resolve().parent.parent

ROUNDS = 6

MATRIX = [
    ("serial", "momentum"),
    ("serial", "sgd"),
    ("batched", "sgd"),
]


def _kwargs(tmp_path, tag):
    return dict(
        rounds=ROUNDS,
        ckpt_dir=str(tmp_path / f"{tag}-ckpt"),
        trace_path=str(tmp_path / f"{tag}-trace.jsonl"),
    )


def _assert_verify_ok(*directories):
    paths = [str(p) for d in directories for p in checkpoint_paths(d)]
    assert paths
    assert ckpt_cli(["verify", *paths]) == 0


@pytest.mark.parametrize("backend,optimizer", MATRIX)
def test_crash_resume_is_bitwise_identical(backend, optimizer):
    """The smoke federation killed in round 5 and resumed on
    ``backend`` from round 4's checkpoint: lattice edge (d)."""
    assert assert_lattice(replace(
        SMOKE, optimizer=optimizer, kill_backend=backend,
        resume_backend=backend,
    ), "d") == 4


def test_resume_without_trace():
    """Checkpointing works with tracing off; restore matches the full run."""
    assert assert_lattice(replace(
        SMOKE, optimizer="momentum", trace_sample=None, kill_round=4
    ), "d") == 3


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_sigkill_resume_matches_uninterrupted(tmp_path, mode):
    """A process killed with SIGKILL mid-round resumes to the same run."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    kill_kw = _kwargs(tmp_path, "kill")
    cmd = [
        sys.executable, "-m", "repro.experiments.ckpt_smoke",
        "--rounds", str(ROUNDS),
        "--ckpt-dir", kill_kw["ckpt_dir"],
        "--trace", kill_kw["trace_path"],
    ]
    if mode == "async":
        cmd += ["--staleness-bound", "2"]
    killed = subprocess.run(
        cmd + ["--kill-at", "4"], env=env, cwd=REPO_ROOT, capture_output=True
    )
    assert killed.returncode == -signal.SIGKILL
    latest = latest_checkpoint(kill_kw["ckpt_dir"])
    if mode == "sync":
        assert latest.name == "ckpt-00000003.ckpt"
    else:
        # Several rounds can close inside one arrival event, and the
        # checkpoint fires after the event: it may trail round 3.
        assert latest is not None and latest.name < "ckpt-00000004.ckpt"

    resumed = subprocess.run(
        cmd + ["--resume"], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming from" in resumed.stdout

    full_kw = _kwargs(tmp_path, "full")
    full = FederatedTrainer(**federation_parts(**full_kw))
    if mode == "async":
        full = AsyncFederatedTrainer(full, async_config=async_config(2))
    with full:
        full.run(ROUNDS)

    final = read_checkpoint(
        Path(kill_kw["ckpt_dir"]) / f"ckpt-{ROUNDS:08d}.ckpt"
    )
    assert final.texts["history.jsonl"] == full.history.to_jsonl()
    params = getattr(full, "trainer", full).server.global_params
    np.testing.assert_array_equal(final.arrays["global_params"], params)
    assert trace_digest(load_trace(kill_kw["trace_path"])) == trace_digest(
        load_trace(full_kw["trace_path"])
    )
    _assert_verify_ok(kill_kw["ckpt_dir"], full_kw["ckpt_dir"])


def test_restore_rejects_mismatched_federation(tmp_path):
    from repro.ckpt import CheckpointError

    spec = FederationSpec(optimizer="momentum", rounds=2)
    with FederatedTrainer(**spec.parts("serial", directory=tmp_path)) as trainer:
        trainer.run(2)
    path = latest_checkpoint(tmp_path / "ckpt")
    wrong = FederationSpec(optimizer="sgd", rounds=2).parts("serial")
    with pytest.raises(CheckpointError, match="does not match"):
        FederatedTrainer.restore(path, **wrong)


def test_checkpoint_every_and_retention_in_run(tmp_path):
    parts = FederationSpec(rounds=ROUNDS).parts(
        "serial", directory=tmp_path, checkpoint_every=2, checkpoint_keep=2
    )
    with FederatedTrainer(**parts) as trainer:
        trainer.run(ROUNDS)
    names = [p.name for p in checkpoint_paths(tmp_path / "ckpt")]
    assert names == ["ckpt-00000004.ckpt", "ckpt-00000006.ckpt"]
    _assert_verify_ok(tmp_path / "ckpt")


#: One changed value per run setting a checkpoint records (the spec runs
#: E=1, B=4, ConstantLR(0.1), eval_every=1, force_best, seed 0).
CHANGED_SETTINGS = {
    "local_epochs": 2,
    "batch_size": 3,
    "lr": ConstantLR(0.5),
    "eval_every": 2,
    "on_empty_round": "keep",
    "seed": 1,
}


@pytest.fixture(scope="module")
def two_rounds(tmp_path_factory):
    """A checkpointed two-round run and the spec that built it."""
    directory = tmp_path_factory.mktemp("two-rounds")
    spec = FederationSpec(rounds=2)
    with FederatedTrainer(**spec.parts("serial", directory=directory)) as run:
        run.run(2)
    return spec, latest_checkpoint(directory / "ckpt")


@pytest.mark.parametrize("name", sorted(CHANGED_SETTINGS))
def test_restore_refuses_a_changed_run_setting(two_rounds, name):
    from repro.ckpt import CheckpointError

    spec, path = two_rounds
    changed = spec.parts("serial", **{name: CHANGED_SETTINGS[name]})
    with pytest.raises(CheckpointError, match=f"{name}="):
        FederatedTrainer.restore(path, **changed)


def test_restore_accepts_what_may_change_on_a_resume(two_rounds, tmp_path):
    spec, path = two_rounds
    parts = spec.parts(
        "batched", directory=tmp_path, rounds=4, trace=True, trace_sample=0.5,
        checkpoint_every=2,
    )
    with FederatedTrainer.restore(path, **parts) as resumed:
        resumed.run(2)
    assert len(resumed.history) == 4


class _HarmonicLR(LRSchedule):
    """eta_t = eta_0 / t, with no ``__repr__`` of its own."""

    def __init__(self, lr0):
        self.lr0 = lr0

    def value(self, t):
        return self.lr0 / t


def test_a_schedule_without_its_own_repr_resumes(tmp_path):
    """The recorded ``lr`` is the base class's repr of the schedule's
    fields, never an object address: the same schedule resumes and
    another value is refused."""
    from repro.ckpt import CheckpointError

    spec = FederationSpec(rounds=2)
    parts = spec.parts("serial", directory=tmp_path, lr=_HarmonicLR(0.1))
    with FederatedTrainer(**parts) as run:
        run.run(2)
    path = latest_checkpoint(tmp_path / "ckpt")
    resumed = FederatedTrainer.restore(
        path, **spec.parts("serial", lr=_HarmonicLR(0.1))
    )
    assert len(resumed.history) == 2
    with pytest.raises(CheckpointError, match="lr="):
        FederatedTrainer.restore(
            path, **spec.parts("serial", lr=_HarmonicLR(0.2))
        )
