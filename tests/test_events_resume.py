"""Checkpoint/resume of the async engine: what a mid-timeline
checkpoint carries (in-flight rounds, queued events, the virtual
clock), what a restore refuses, and how a closed engine is freed.
All of it on one spec, ``ASYNC``: the smoke federation through the
engine at S=2.  That a killed async run resumes bitwise is the
lattice's kill/resume edge, pinned here on ``ASYNC``, and the SIGKILL
test of ``tests/test_ckpt_resume.py`` on the store-backed path."""

import gc
import json
import weakref
import zipfile
from dataclasses import replace

import pytest

from repro.ckpt import (
    CheckpointError,
    checkpoint_paths,
    latest_checkpoint,
    read_checkpoint,
)
from repro.fl.events import AsyncConfig
from tests.strategies import SMOKE, assert_lattice

#: The smoke federation through the async engine at S=2, with churn.
#: Seed 2 draws a timeline whose checkpoints carry in-flight rounds
#: (four of five do); at seed 0 every close empties the engine.
ASYNC = replace(
    SMOKE, seed=2, async_config=AsyncConfig(staleness_bound=2, drop_rate=0.1)
)


def _build_engine(directory=None):
    return ASYNC.start(ASYNC.parts("serial", directory=directory))


def _run_uninterrupted(directory):
    engine = _build_engine(directory)
    with engine:
        engine.run(ASYNC.rounds)
    return engine


def test_crash_resume_is_bitwise_identical():
    """The smoke federation through the async engine (S=2), killed in
    round 5 and resumed from a checkpoint before it: lattice edge (d)."""
    assert 0 < assert_lattice(ASYNC, "d") < 5


def test_checkpoint_captures_inflight_rounds(tmp_path):
    """A mid-timeline checkpoint carries the clock, queue and the
    in-flight rounds' computed results."""
    _run_uninterrupted(tmp_path)
    seen_inflight = 0
    for path in checkpoint_paths(tmp_path / "ckpt"):
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
    # The spec's rounds overlap checkpoint boundaries: at least one
    # snapshot must carry an in-flight round.
    assert seen_inflight > 0


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The directory of one uninterrupted ``ASYNC`` run, shared by the
    refusals."""
    directory = tmp_path_factory.mktemp("finished")
    _run_uninterrupted(directory)
    return directory


#: One changed value per AsyncConfig field.
MISMATCHES = {
    "staleness_bound": 7,
    "drop_rate": 0.0,
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_restore_rejects_async_config_mismatch(finished_run, name):
    path = latest_checkpoint(finished_run / "ckpt")
    ours = MISMATCHES[name]
    theirs = getattr(ASYNC.async_config, name)
    changed = replace(ASYNC.async_config, **{name: ours})
    with pytest.raises(ValueError, match=rf"{name}={theirs}.*{name}={ours}"):
        replace(ASYNC, async_config=changed).restore(path, ASYNC.parts("serial"))


def test_restore_rejects_a_snapshot_missing_a_knob(finished_run):
    """A checkpoint that does not record a knob cannot prove it matches."""
    ckpt = read_checkpoint(latest_checkpoint(finished_run / "ckpt"))
    state = dict(ckpt.manifest["async"])
    del state["drop_rate"]
    engine = _build_engine()
    with pytest.raises(ValueError, match="drop_rate=<missing>"):
        engine.restore_state(state, ckpt.arrays)


def test_a_v3_checkpoint_is_refused_by_its_schema(finished_run, tmp_path):
    """A ``repro-ckpt/v3`` file may hold a timeline drawn with a
    dispatch interval or another speed spread, which a comparison of
    the surviving knobs cannot see: it is refused by its schema."""
    with zipfile.ZipFile(latest_checkpoint(finished_run / "ckpt")) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    manifest = json.loads(members["manifest.json"])
    manifest["schema"] = "repro-ckpt/v3"
    manifest["async"].update(
        dispatch_interval_s=0.4, speed_sigma=1.0, last_dispatch_time=None
    )
    members["manifest.json"] = json.dumps(manifest).encode()
    path = tmp_path / "v3.ckpt"
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(CheckpointError, match="schema 'repro-ckpt/v3'"):
        ASYNC.restore(path, ASYNC.parts("serial"))


def test_sync_checkpoint_refused_by_async_restore(tmp_path):
    sync = replace(ASYNC, async_config=None)
    with sync.start(sync.parts("serial", directory=tmp_path)) as trainer:
        trainer.run(2)
    path = latest_checkpoint(tmp_path / "ckpt")
    with pytest.raises(ValueError, match="no async-engine state"):
        ASYNC.restore(path, ASYNC.parts("serial"))


@pytest.mark.parametrize("restored", [False, True])
def test_a_closed_engine_is_freed_without_the_cyclic_gc(tmp_path, restored):
    """``close()`` clears ``trainer.async_engine``: once the caller
    drops a closed engine, reference counting frees its trainer."""
    if restored:
        _run_uninterrupted(tmp_path)
        first = checkpoint_paths(tmp_path / "ckpt")[0]

    def build():
        if restored:
            return ASYNC.restore(first, ASYNC.parts("serial", directory=tmp_path))
        return _build_engine(tmp_path)

    gc.disable()
    try:
        engine = build()
        engine.run(ASYNC.rounds - len(engine.history))
        trainer = weakref.ref(engine.trainer)
        engine.close()
        del engine
        assert trainer() is None

        # Twin: closing only the trainer leaves the back-reference, and
        # the pair waits for the cyclic GC.
        twin = build()
        twin.run(ASYNC.rounds - len(twin.history))
        kept = weakref.ref(twin.trainer)
        twin.trainer.close()
        del twin
        assert kept() is not None
    finally:
        gc.enable()
        gc.collect()


def test_a_closed_engine_refuses_to_run(tmp_path):
    engine = _build_engine(tmp_path)
    with engine:
        engine.run(2)
    with pytest.raises(RuntimeError, match="closed"):
        engine.run(2)
    assert len(engine.history) == 2
