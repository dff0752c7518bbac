"""The headline checkpoint guarantee across processes: a run SIGKILLed
mid-round by ``python -m repro.experiments.ckpt_smoke --kill`` and
resumed from its last checkpoint by ``--resume`` is bitwise-identical
to an uninterrupted run — history, parameters and trace digest — on
named specs through the synchronous trainer, the async engine and the
client store; the CLI refuses a bad ``--spec`` by name.  The
in-process kill/resume edge over drawn federations is
``tests/test_lattice.py``.
"""

from dataclasses import replace

import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.experiments.ckpt_smoke import main as ckpt_smoke_main, parse_spec
from repro.fl.events import AsyncConfig
from repro.fl.trainer import FederatedTrainer
from repro.nn.schedules import ConstantLR, LRSchedule
from repro.obs import load_trace, trace_digest, validate_trace
from tests.strategies import SMOKE, FederationSpec, assert_lattice

@pytest.mark.parametrize("backend", ["serial", "batched"])
def test_crash_resume_is_bitwise_identical(backend):
    """The smoke federation killed in round 5 and resumed on
    ``backend`` from round 4's checkpoint: lattice edge (d)."""
    assert assert_lattice(replace(
        SMOKE, kill_backend=backend, resume_backend=backend,
    ), "d") == 4


def test_resume_without_trace():
    """Checkpointing works with tracing off; restore matches the full run."""
    assert assert_lattice(replace(
        SMOKE, trace_sample=None, kill_round=4
    ), "d") == 3


#: The federations the CLI is SIGKILLed on: the smoke run; the store
#: through the async engine (four clients of 24 rows, each its own
#: window of 96), killed on the batched executor; a seeded stored
#: population, half its rounds traced, under a cohort of 3 and, through
#: the async engine, of 1 (one decision in the kill round).
SIGKILLED = {
    "smoke": SMOKE,
    "async-stored-batched": replace(
        SMOKE, sizes=(96,) + (24,) * 3, stored=True, seeded=True,
        kill_backend="batched",
        async_config=AsyncConfig(staleness_bound=2, drop_rate=0.1),
    ),
    "seeded-sampled": replace(
        SMOKE, stored=True, seeded=True, cohort=3, trace_sample=0.5
    ),
    "seeded-sampled-async-cohort-1": replace(
        SMOKE, stored=True, seeded=True, cohort=1, trace_sample=0.5,
        async_config=AsyncConfig(staleness_bound=1),
    ),
}


@pytest.mark.parametrize("name", list(SIGKILLED))
def test_sigkill_resume_matches_uninterrupted(name):
    """A ``ckpt_smoke`` process killed with SIGKILL in round 5 resumes,
    in a second process, to the uninterrupted run: lattice edge (d)
    across a real process death."""
    assert 0 < assert_lattice(SIGKILLED[name], "d", sigkill=True) < 5


#: One bad ``--spec`` per cause, and the message that names it.
BAD_SPECS = {
    "not-json": ("{rounds: 6}", "--spec is not JSON"),
    "not-an-object": ("[6]", "--spec must be a JSON object"),
    "unknown-field": (
        '{"rounds": 6, "kil_round": 3}', "unknown FederationSpec field(s): kil_round"
    ),
    "async-not-an-object": ('{"async_config": 2}', "async_config must be null or an object"),
    "async-unknown-knob": (
        '{"async_config": {"staleness": 2}}', "unexpected keyword argument 'staleness'"
    ),
    "async-bad-value": (
        '{"async_config": {"drop_rate": 1.5}}', "drop_rate must be in [0, 1), got 1.5"
    ),
    "kill-after-last-round": ('{"kill_round": 7}', "kill_round must be in 1..rounds=6, got 7"),
    "kill-round-zero": ('{"kill_round": 0}', "kill_round must be in 1..rounds=6, got 0"),
    "stored-unseeded": ('{"stored": true}', "stored=True needs seeded=True"),
}


@pytest.mark.parametrize("case", list(BAD_SPECS))
def test_cli_refuses_a_bad_spec_by_name(tmp_path, capsys, case):
    """Each refusal exits 2 before a round runs or a file is written."""
    spec, cause = BAD_SPECS[case]
    with pytest.raises(SystemExit) as refused:
        ckpt_smoke_main(["--spec", spec, "--dir", str(tmp_path), "--kill"])
    assert refused.value.code == 2
    assert cause in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parse_spec_refuses_the_removed_optimizer_field():
    """SGD is the one optimizer: a spec that still names one is refused."""
    with pytest.raises(ValueError, match=r"unknown FederationSpec field\(s\): optimizer"):
        parse_spec('{"optimizer": "sgd"}')


def test_cli_resume_of_a_finished_run_keeps_the_trace(tmp_path):
    """``--resume`` after a whole run cuts the trace back to the last
    checkpoint and runs no round; closing the run writes the ``run``
    span again, so the trace is the uninterrupted one."""
    assert ckpt_smoke_main(["--dir", str(tmp_path)]) == 0
    whole = trace_digest(load_trace(tmp_path / "trace.jsonl"))
    assert ckpt_smoke_main(["--dir", str(tmp_path), "--resume"]) == 0
    events = load_trace(tmp_path / "trace.jsonl")
    assert validate_trace(events) == []
    assert trace_digest(events) == whole


def test_cli_resume_without_a_checkpoint_names_the_directory(tmp_path, capsys):
    assert ckpt_smoke_main(["--dir", str(tmp_path), "--resume"]) == 2
    assert f"no checkpoint found in {tmp_path / 'ckpt'}" in capsys.readouterr().out


def test_cli_default_run_learns(tmp_path, capsys):
    """``SMOKE``'s linear federation trains on separable labels, so the
    default run ends well above chance on its 8 test rows."""
    assert ckpt_smoke_main(["--dir", str(tmp_path)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("done: 6 rounds")
    assert float(last.rsplit("test_metric=", 1)[1]) >= 0.75


def test_restore_rejects_mismatched_federation(tmp_path):
    from repro.ckpt import CheckpointError

    spec = FederationSpec(policy="vanilla", rounds=2)
    with FederatedTrainer(**spec.parts("serial", directory=tmp_path)) as trainer:
        trainer.run(2)
    path = latest_checkpoint(tmp_path / "ckpt")
    wrong = FederationSpec(policy="cmfl", rounds=2).parts("serial")
    with pytest.raises(CheckpointError, match="does not match .* policy 'vanilla'"):
        FederatedTrainer.restore(path, **wrong)


def test_checkpoint_every_and_retention_in_run(tmp_path):
    parts = FederationSpec(rounds=6).parts(
        "serial", directory=tmp_path, checkpoint_every=2, checkpoint_keep=2
    )
    with FederatedTrainer(**parts) as trainer:
        trainer.run(6)
    names = [p.name for p in checkpoint_paths(tmp_path / "ckpt")]
    assert names == ["ckpt-00000004.ckpt", "ckpt-00000006.ckpt"]
    assert ckpt_cli(["verify", *map(str, checkpoint_paths(tmp_path / "ckpt"))]) == 0


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
