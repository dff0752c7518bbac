"""Federated training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.nn.schedules import ConstantLR, LRSchedule

__all__ = ["EMPTY_ROUND_MODES", "EXECUTOR_BACKENDS", "FLConfig"]

#: Client-execution backends (see :mod:`repro.fl.executor`):
#: "serial"  -- one shared workspace, clients run back to back;
#: "batched" -- the round's clients stacked into one leading client
#:              axis and stepped in lockstep, each step one set of
#:              large numpy kernels (see :mod:`repro.fl.batched`).
#: Both produce bitwise-identical run histories.
EXECUTOR_BACKENDS = ("serial", "batched")

#: What to do in a round where every update was filtered out.
#: "keep"  -- leave the model unchanged and reuse the previous feedback
#:            (the literal reading of Algorithm 1; with few clients this
#:            can freeze the feedback and stall the run permanently);
#: "force_best" -- upload the single highest-scoring update anyway, so
#:            the model never fully stalls (the default: at the paper's
#:            100-client scale some update always passes, so this rescue
#:            only matters for small federations).
EMPTY_ROUND_MODES = ("keep", "force_best")


@dataclass
class FLConfig:
    """Hyper-parameters of a federated run.

    Mirrors the paper's Sec. V-A setup: ``local_epochs`` is the paper's
    E (passes over the local dataset per round), ``batch_size`` its B,
    and the learning-rate schedule defaults to a constant but is set to
    ``InverseSqrtLR`` by the experiments that follow the paper.
    """

    rounds: int = 100
    local_epochs: int = 4
    batch_size: int = 2
    lr: LRSchedule = field(default_factory=lambda: ConstantLR(0.05))
    eval_every: int = 1
    on_empty_round: str = "force_best"
    #: CMFL's feedback is the global update of ``feedback_staleness``
    #: rounds ago (1 = the previous round's, the paper's estimate).
    feedback_staleness: int = 1
    seed: int = 0
    #: Client-execution backend for the compute half of each round.
    executor: str = "serial"
    #: Structured tracing (see :mod:`repro.obs`).  Off by default: the
    #: trainer then runs on the allocation-free NullTracer.
    trace: bool = False
    #: Where to stream the JSONL trace; a path implies ``trace`` on.
    #: With ``trace=True`` and no path, events collect in memory
    #: (``trainer.tracer.memory_events()``).
    trace_path: Optional[str] = None
    #: Head-sampling rate for per-client spans (``client_compute``,
    #: ``relevance_check``): the fraction of (round, client) pairs whose
    #: spans are emitted, decided by a pure hash of
    #: ``(seed, round, client_index)``.  1.0 (default) keeps every span;
    #: at population scale set e.g. 0.01 — unsampled clients still feed
    #: the exact per-round ``round_rollup`` event, and ``trace_digest``
    #: stays a pure function of the run at any rate.
    trace_sample: float = 1.0
    #: Directory for periodic run-state checkpoints (see
    #: :mod:`repro.ckpt`); None disables checkpointing.
    checkpoint_dir: Optional[str] = None
    #: Save a checkpoint every N completed rounds.
    checkpoint_every: int = 1
    #: How many checkpoints to retain (oldest pruned first); 0 = all.
    checkpoint_keep: int = 3

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.on_empty_round not in EMPTY_ROUND_MODES:
            raise ValueError(
                f"on_empty_round must be one of {EMPTY_ROUND_MODES}, "
                f"got {self.on_empty_round!r}"
            )
        if self.executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_BACKENDS}, "
                f"got {self.executor!r}"
            )
        if self.trace_path is not None and not str(self.trace_path):
            raise ValueError("trace_path must be a non-empty path or None")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.checkpoint_dir is not None and not str(self.checkpoint_dir):
            raise ValueError("checkpoint_dir must be a non-empty path or None")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be >= 0 (0 = keep all)")

    @property
    def trace_enabled(self) -> bool:
        """Tracing is on when either knob is set."""
        return bool(self.trace or self.trace_path)

    @property
    def checkpoint_enabled(self) -> bool:
        """Checkpointing is on when a directory is configured."""
        return self.checkpoint_dir is not None
