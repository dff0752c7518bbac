"""The system-layer contract as one check: on a small federation, the
executor, the client store, tracing and a kill/resume change nothing
in the run, and the async engine at S=0 without drops is the
synchronous loop.

:func:`assert_lattice` runs a :class:`~tests.strategies.FederationSpec`
on every edge of the lattice:

(a) serial ≡ batched: history JSONL, parameter bytes, trace digest;
(b) eager clients ≡ ``ClientStateStore`` on a seeded population:
    history digest, parameters;
(c) traced ≡ untraced: history, parameters;
(d) killed in round k and resumed from ``latest_checkpoint`` (on its
    own backend) ≡ uninterrupted: history, parameters, trace digest,
    and ``python -m repro.ckpt verify`` passes.  The killed run wrote
    exactly the checkpoints its schedule owes before round k — each
    multiple of ``checkpoint_every``; for the async engine, those the
    uninterrupted run wrote, one per event that closes a due round —
    and the resume starts from the last of them.  The run dies at
    :func:`~repro.experiments.ckpt_smoke.die_in_round`'s hook: by a
    raise inside this process, or with ``sigkill`` by SIGKILL in a
    ``python -m repro.experiments.ckpt_smoke --kill`` child, resumed by
    a ``--resume`` one;
(e) async with S=0 and no drops ≡ sync: every record field but
    ``virtual_time``, and the parameters.

``tests/test_lattice.py`` draws the specs; the named federations below,
and the CLI's ``SMOKE``, are the hand-picked ones the older contract
tests pin.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional

import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.ckpt.__main__ import main as ckpt_cli
from repro.experiments.ckpt_smoke import SMOKE, die_in_round
from repro.fl.events import AsyncConfig
from repro.fl.history import history_digest
from repro.obs import diff_traces, load_trace, trace_digest, validate_trace
from tests.strategies.federations import FederationSpec

__all__ = ["FIXED", "SMOKE", "STORE", "SYNC_EQUIV", "assert_lattice"]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Six clients of 20 rows, E=1, B=8, four rounds, traced, through the
#: async engine at S=0.
SYNC_EQUIV = FederationSpec(
    sizes=(20,) * 6, rounds=4, batch_size=8, lr=0.3, trace_sample=1.0,
    async_config=AsyncConfig(), seed=11,
)
#: Eight clients of 12 rows, each its own window of one 96-row dataset,
#: in store shards of 4, E=2, B=6.
STORE = FederationSpec(
    sizes=(96,) + (12,) * 7, rounds=5, local_epochs=2, batch_size=6, lr=0.3,
    stored=True, seeded=True, shard_size=4, kill_round=3,
)
#: The shape of ``tests.strategies.federation``: four shards of 20 rows,
#: E=1, B=10, lr 0.5.
FIXED = FederationSpec(
    sizes=(20,) * 4, rounds=5, batch_size=10, lr=0.5, kill_round=3,
)


class _Kill(RuntimeError):
    """A crash raised from inside the decide phase."""


def _trainer(run):
    """The FederatedTrainer of a trainer or of an async engine."""
    return getattr(run, "trainer", run)


def _params(run):
    return _trainer(run).server.global_params.tobytes()


def _finish(run, rounds):
    with run:
        run.run(rounds)
    return run


def _trace(directory):
    events = load_trace(directory / "trace.jsonl")
    assert validate_trace(events) == []
    return events


def _rounds(directory):
    """The rounds of the checkpoints in ``directory``, oldest first."""
    return [int(p.stem.rpartition("-")[2]) for p in checkpoint_paths(directory)]


def _owed(spec, directory):
    """The rounds an uninterrupted run checkpoints: every multiple of
    ``checkpoint_every`` for the synchronous loop.  The async engine
    saves once per event that closes a multiple, named for the event's
    last round: what the run in ``directory`` wrote, checked against
    that rule, the last multiple included."""
    every = spec.checkpoint_every
    due = list(range(every, spec.rounds + 1, every))
    if spec.async_config is None:
        return due
    saved = _rounds(directory / "ckpt")
    assert saved and due[-1] <= saved[-1] <= spec.rounds, saved
    for previous, current in zip([0] + saved, saved):
        assert current // every > previous // every, saved
    return saved


def _crash():
    raise _Kill("simulated crash")


def _ckpt_smoke(*args):
    """``python -m repro.experiments.ckpt_smoke *args`` in a child
    process, its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.ckpt_smoke", *args],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        cwd=REPO_ROOT, capture_output=True, text=True,
    )


def _killed_then_resumed(spec, directory, saved, sigkill):
    """Kill a run in round ``kill_round``, then resume it from the
    latest checkpoint: the last of the ``saved`` rounds before the
    kill, or a fresh start when there is none.  Returns the resumed
    run's history JSONL and parameter bytes, the round it resumed from,
    and the run itself when it ran in this process.  A SIGKILLed run
    is read off its last checkpoint, so its spec checkpoints a round
    before the kill and the last round."""
    cli = ("--spec", json.dumps(dataclasses.asdict(spec)), "--dir", str(directory))
    if sigkill:
        killed = _ckpt_smoke(*cli, "--kill")
        assert killed.returncode == -signal.SIGKILL, killed.stdout
    else:
        run = spec.start(spec.parts(spec.kill_backend, directory=directory))
        die_in_round(run, spec.kill_round, _crash)
        with pytest.raises(_Kill):
            _finish(run, spec.rounds)
    owed = [r for r in saved if r < spec.kill_round]
    assert _rounds(directory / "ckpt") == owed
    start = owed[-1] if owed else 0
    path = latest_checkpoint(directory / "ckpt")
    if sigkill:
        resumed = _ckpt_smoke(*cli, "--resume")
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert f"resuming from {path} " in resumed.stdout
        assert _rounds(directory / "ckpt")[-1] == spec.rounds
        final = read_checkpoint(latest_checkpoint(directory / "ckpt"))
        history = final.texts["history.jsonl"]
        return history, final.arrays["global_params"].tobytes(), start, None
    parts = spec.parts(spec.resume_backend, directory=directory)
    resumed = spec.start(parts) if path is None else spec.restore(path, parts)
    assert len(resumed.history) == start
    _finish(resumed, spec.rounds - start)
    return resumed.history.to_jsonl(), _params(resumed), start, resumed


def _without_virtual_time(history):
    return [dict(vars(r), virtual_time=None) for r in history]


def assert_lattice(
    spec: FederationSpec, edges: str = "abcde", sigkill: bool = False
) -> Optional[int]:
    """Run ``spec`` on ``edges`` (default all of (a)–(e)); fail on the
    first that differs.  Returns the round edge (d) resumed from (0: no
    checkpoint preceded the kill, so it started over), None without it.
    A named test passes the edges its contract is about; ``sigkill``
    kills and resumes edge (d)'s run in child processes."""
    resumed_from = None
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        traced = spec.trace_sample is not None
        # A checkpoint leaves a ``ckpt`` span in the trace, so a traced
        # reference checkpoints like the killed run; an async one does so
        # that edge (d) knows which events owed a checkpoint.
        checkpointed = traced or spec.async_config is not None
        reference = _finish(
            spec.start(spec.parts(
                "serial", directory=root / "serial" if checkpointed else None
            )),
            spec.rounds,
        )
        history = reference.history.to_jsonl()

        if "a" in edges:  # serial ≡ batched
            batched = _finish(
                spec.start(spec.parts(
                    "batched", directory=root / "batched" if traced else None
                )),
                spec.rounds,
            )
            assert batched.history.to_jsonl() == history
            assert _params(batched) == _params(reference)
            if traced:
                serial_events = _trace(root / "serial")
                batched_events = _trace(root / "batched")
                assert diff_traces(serial_events, batched_events) == []
                assert trace_digest(batched_events) == trace_digest(serial_events)

        if "b" in edges and spec.seeded:  # eager ≡ store
            other = replace(spec, stored=not spec.stored)
            other_form = _finish(other.start(other.parts("serial")), spec.rounds)
            assert history_digest(_trainer(other_form)) == history_digest(
                _trainer(reference)
            )
            assert _params(other_form) == _params(reference)

        if "c" in edges:  # traced ≡ untraced
            other = replace(spec, trace_sample=None if traced else 1.0)
            toggled = _finish(other.start(other.parts("serial")), spec.rounds)
            assert toggled.history.to_jsonl() == history
            assert _params(toggled) == _params(reference)

        if "d" in edges:  # killed and resumed ≡ uninterrupted
            resumed_history, params, resumed_from, resumed = _killed_then_resumed(
                spec, root / "killed", _owed(spec, root / "serial"), sigkill
            )
            assert resumed_history == history
            assert params == _params(reference)
            if traced:
                assert trace_digest(_trace(root / "killed")) == trace_digest(
                    _trace(root / "serial")
                )
            if resumed is not None:  # resumed in this process
                assert _trainer(resumed).tracer.enabled == traced
                if spec.stored:
                    assert (
                        _trainer(resumed).store.materialized_shards
                        == _trainer(reference).store.materialized_shards
                    )
            written = [
                str(p) for d in ("serial", "killed")
                for p in checkpoint_paths(root / d / "ckpt")
            ]
            if written:  # none only when no round before the kill was due
                assert ckpt_cli(["verify", *written]) == 0

        knobs = spec.async_config
        if "e" in edges and knobs is not None and (
            knobs.staleness_bound == 0 and not knobs.drop_rate
        ):  # async S=0 without drops ≡ sync
            other = replace(spec, async_config=None)
            sync = _finish(other.start(other.parts("serial")), spec.rounds)
            assert _without_virtual_time(reference.history) == (
                _without_virtual_time(sync.history)
            )
            assert _params(reference) == _params(sync)
    return resumed_from
