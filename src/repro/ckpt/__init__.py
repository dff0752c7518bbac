"""``repro.ckpt`` — deterministic run-state persistence.

Checkpoints capture *everything* a federated run's next round depends
on — global model, CMFL feedback state, client and sampler RNG
streams, communication ledger, run history and the trace continuation
— in a single verifiable ``repro-ckpt/v4`` container.  SGD, the one
optimizer, carries no state beyond the global model.

The headline guarantee (the kill/resume edge of
``tests/test_lattice.py``, and a real SIGKILL in
``tests/test_ckpt_resume.py``): a run killed at any point and resumed
from its last checkpoint produces a bitwise-identical
:class:`~repro.fl.history.RunHistory` and an identical deterministic
trace digest to the uninterrupted run, on every execution backend.

Typical use is through :class:`~repro.fl.config.FLConfig`::

    config = FLConfig(rounds=100, checkpoint_dir="ckpts",
                      checkpoint_every=5, checkpoint_keep=3)
    ...
    trainer = FederatedTrainer.restore(latest_checkpoint("ckpts"),
                                       workspace=..., clients=..., ...)
    trainer.run(remaining)

Inspect containers from the shell with ``python -m repro.ckpt``
(``inspect`` / ``verify`` / ``diff``).
"""

from repro.ckpt.checkpointer import Checkpointer, save_checkpoint
from repro.ckpt.format import (
    CKPT_SCHEMA,
    CKPT_SUFFIX,
    Checkpoint,
    CheckpointError,
    MANIFEST_MEMBER,
    checkpoint_paths,
    latest_checkpoint,
    read_checkpoint,
    verify_checkpoint,
    write_checkpoint,
)
from repro.ckpt.state import (
    HISTORY_MEMBER,
    apply_run_state,
    build_resume_tracer,
    capture_run_state,
)

__all__ = [
    "CKPT_SCHEMA",
    "CKPT_SUFFIX",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "HISTORY_MEMBER",
    "MANIFEST_MEMBER",
    "apply_run_state",
    "build_resume_tracer",
    "capture_run_state",
    "checkpoint_paths",
    "latest_checkpoint",
    "read_checkpoint",
    "save_checkpoint",
    "verify_checkpoint",
    "write_checkpoint",
]
