"""Periodic checkpoint saving with retention.

:func:`save_checkpoint` writes one checkpoint for a trainer's current
state; :class:`Checkpointer` schedules those saves (every N completed
rounds into a directory, pruning old files) and is what
:class:`~repro.fl.trainer.FederatedTrainer` instantiates from the
``FLConfig.checkpoint_*`` knobs.

Trace interaction: the deterministic ``ckpt`` span is emitted *before*
the tracer state is captured, so it is part of the checkpointed stream
and a resumed run's trace digests identically to an uninterrupted one.
The save duration and on-disk size follow in a ``runtime.ckpt`` point
event (``rt`` = ``save_s``, ``bytes``) — runtime data the
deterministic view masks.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Any, List, Optional, Union

from repro.ckpt.format import (
    CKPT_SUFFIX,
    checkpoint_paths,
    latest_checkpoint,
    write_checkpoint,
)
from repro.ckpt.state import capture_run_state

__all__ = ["Checkpointer", "save_checkpoint"]


def save_checkpoint(trainer: Any, path: Union[str, Path]) -> Path:
    """Write ``trainer``'s complete run state to ``path``, atomically.

    Call at a round boundary only.  The trace sinks are fsynced first,
    so every event with ``seq`` below the captured counter is durable
    and :func:`~repro.ckpt.state.build_resume_tracer` can rely on it.
    """
    tracer = trainer.tracer
    if tracer.enabled:
        tracer.record_span(
            "ckpt", attrs={"iteration": len(trainer.history)}
        )
        tracer.flush()
    started = perf_counter()
    manifest, arrays, texts = capture_run_state(trainer)
    nbytes = write_checkpoint(path, manifest, arrays, texts)
    if tracer.enabled:
        tracer.event(
            "runtime.ckpt",
            rt={"save_s": perf_counter() - started, "bytes": nbytes},
        )
    return Path(path)


class Checkpointer:
    """Saves a trainer every N rounds and prunes old checkpoints.

    Files are named ``<prefix>-<iteration:08d>.ckpt`` so lexicographic
    order is chronological; ``keep=0`` retains everything.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        every_n_rounds: int = 1,
        keep: int = 3,
        prefix: str = "ckpt",
    ) -> None:
        if every_n_rounds < 1:
            raise ValueError("every_n_rounds must be >= 1")
        if keep < 0:
            raise ValueError("keep must be >= 0 (0 = keep all)")
        if not prefix:
            raise ValueError("prefix must be non-empty")
        self.directory = Path(directory)
        self.every_n_rounds = every_n_rounds
        self.keep = keep
        self.prefix = prefix

    def path_for(self, iteration: int) -> Path:
        return self.directory / f"{self.prefix}-{iteration:08d}{CKPT_SUFFIX}"

    def due(self, iteration: int) -> bool:
        """Whether a checkpoint is owed after completed round ``iteration``."""
        return iteration % self.every_n_rounds == 0

    def maybe_save(
        self, trainer: Any, iteration: int, previous: int
    ) -> Optional[Path]:
        """Save if a round in ``(previous, iteration]`` hits the schedule
        (one async event can close several rounds, and any due one is
        owed); prune after."""
        every = self.every_n_rounds
        return self.save(trainer) if iteration // every > previous // every else None

    def save(self, trainer: Any) -> Path:
        """Save unconditionally at the trainer's current iteration."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = save_checkpoint(trainer, self.path_for(len(trainer.history)))
        self.prune()
        return path

    def checkpoints(self) -> List[Path]:
        """This checkpointer's files, oldest first."""
        return checkpoint_paths(self.directory, prefix=self.prefix)

    def latest(self) -> Optional[Path]:
        return latest_checkpoint(self.directory, prefix=self.prefix)

    def prune(self) -> List[Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals."""
        if self.keep == 0:
            return []
        paths = self.checkpoints()
        removed = paths[: -self.keep] if len(paths) > self.keep else []
        for path in removed:
            path.unlink()
        return removed

    def __repr__(self) -> str:
        return (
            f"Checkpointer({str(self.directory)!r}, "
            f"every_n_rounds={self.every_n_rounds}, keep={self.keep})"
        )
