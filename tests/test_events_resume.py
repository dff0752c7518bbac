"""Checkpoint/resume of the async engine: what a mid-timeline
checkpoint carries (in-flight rounds, queued events, the virtual
clock), what a restore refuses, and how a closed engine is freed.
That a killed async run resumes bitwise is the lattice's kill/resume
edge, pinned here on the smoke federation, and the SIGKILL test of
``tests/test_ckpt_resume.py``."""

import dataclasses
import gc
import weakref
from dataclasses import replace

import pytest

from repro.ckpt import checkpoint_paths, latest_checkpoint, read_checkpoint
from repro.experiments.ckpt_smoke import async_config, federation_parts
from repro.fl.events import AsyncFederatedTrainer
from repro.fl.trainer import FederatedTrainer
from tests.strategies import SMOKE, assert_lattice

ROUNDS = 6


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


def test_crash_resume_is_bitwise_identical():
    """The smoke federation through the async engine (S=2), killed in
    round 5 and resumed from a checkpoint before it: lattice edge (d)."""
    assert 0 < assert_lattice(replace(
        SMOKE, optimizer="momentum", async_config=async_config(2)
    ), "d") < 5


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
