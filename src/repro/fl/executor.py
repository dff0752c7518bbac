"""The pluggable client-execution engine (serial / batched).

The trainer splits each round into a *compute* half (run
``FLClient.compute_update`` for every participant) and a
*decide/aggregate* half (a strictly ordered reduction back in the
trainer).  Executors own only the compute half, which is what makes
both backends bitwise-identical:

* each client draws minibatches from its **own** RNG stream, so the
  order in which clients physically run cannot change any draw;
* results are always returned **aligned with the participant list**
  (the deterministic reduction order).

The serial backend is the reference every equivalence contract is tied
to.  The batched backend vectorizes: same-schedule clients are stacked
into one leading client axis and the round's compute half runs as a
handful of large numpy kernels through a
:class:`~repro.fl.batched.BatchedWorkspace`, with a per-client fallback
loop for stragglers and unsupported models.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.batched import BatchedWorkspace
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import EXECUTOR_BACKENDS
from repro.fl.workspace import ModelWorkspace
from repro.nn.module import BatchedUnsupported
from repro.obs import NULL_TRACER

__all__ = [
    "BatchedExecutor",
    "ClientExecutionError",
    "ClientExecutor",
    "RoundPlan",
    "SerialExecutor",
    "make_executor",
]

#: One client task's runtime data: ``(queue_wait, dur, worker)``.
TaskTiming = Tuple[float, float, str]


@dataclass(frozen=True)
class RoundPlan:
    """The compute half of one round: what every participant must do."""

    iteration: int
    lr: float
    local_epochs: int
    batch_size: int
    #: The broadcast x_{t-1} all participants start from (read-only).
    global_params: np.ndarray


class ClientExecutionError(RuntimeError):
    """A client's local computation failed; carries structured context.

    Beyond the formatted message, the failure's coordinates are plain
    attributes so callers (and trace sinks) can act on them without
    parsing strings: ``client_id``, ``iteration`` (the round, when
    known), ``backend`` (which executor ran the client), ``elapsed_s``
    (time spent before the failure surfaced) and ``cause_type`` (the
    original exception's class name).
    """

    def __init__(
        self,
        client_id: int,
        message: str,
        iteration: Optional[int] = None,
        backend: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        cause_type: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.client_id = client_id
        self.iteration = iteration
        self.backend = backend
        self.elapsed_s = elapsed_s
        self.cause_type = cause_type

    def context(self) -> Dict[str, Any]:
        """The structured failure coordinates, e.g. for logging."""
        return {
            "client_id": self.client_id,
            "iteration": self.iteration,
            "backend": self.backend,
            "elapsed_s": self.elapsed_s,
            "cause_type": self.cause_type,
        }


class ClientExecutor:
    """Interface: run the compute half of one synchronous round."""

    name = "base"
    #: Observability hook; the allocation-free default is replaced by
    #: the trainer's tracer at ``bind`` time when tracing is on.
    tracer = NULL_TRACER

    def bind(
        self,
        workspace: ModelWorkspace,
        clients: Sequence[FLClient],
        tracer=None,
    ) -> None:
        """Called once by the trainer before the first round."""
        raise NotImplementedError

    def run_round(
        self, plan: RoundPlan, participants: Sequence[FLClient]
    ) -> List[ClientUpdate]:
        """Compute one update per participant.

        The returned list is aligned with ``participants`` regardless
        of the order in which a backend runs individual clients; the
        trainer's decide/aggregate reduction therefore sees the same
        sequence under every backend.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(ClientExecutor):
    """The reference backend: clients run back to back on one workspace."""

    name = "serial"

    def __init__(self) -> None:
        self._workspace: Optional[ModelWorkspace] = None
        self.tracer = NULL_TRACER

    def bind(self, workspace, clients, tracer=None) -> None:
        del clients
        self._workspace = workspace
        self.tracer = tracer or NULL_TRACER

    def run_round(self, plan, participants):
        if self._workspace is None:
            raise RuntimeError("executor not bound to a trainer")
        tracer = self.tracer
        _emit_broadcast_span(tracer, plan)
        outcomes = _run_on_workspace(
            self._workspace, plan, participants, self.name, monotonic(), tracer
        )
        results: List[ClientUpdate] = []
        for client, (update, timing) in zip(participants, outcomes):
            _emit_task_span(tracer, plan, client, timing)
            results.append(update)
        return results


class BatchedExecutor(ClientExecutor):
    """Cross-client vectorized backend: cohorts run as stacked kernels.

    Participants are grouped into *cohorts* by shard size — equal
    ``n_samples`` means an identical epoch/batch schedule, so their
    compute stacks into one leading client axis.  Each cohort of two or
    more runs through a :class:`~repro.fl.batched.BatchedWorkspace`:
    the round's compute half becomes a handful of large numpy ops
    (stacked GEMMs, batched im2col/einsum) whose per-client slices are
    bitwise equal to the serial path.  Singleton cohorts — and entire
    federations whose model, loss or optimizer has no batched path —
    fall back to the serial per-client loop on the bound workspace, so
    heterogeneous stragglers never break a round.

    Per-client minibatch order comes from each client's own RNG stream
    via :meth:`~repro.fl.client.FLClient.epoch_order`: the client
    objects remain the single source of randomness truth, and both
    backends consume each stream identically.

    Observability: ``client_compute`` spans are replayed in participant
    order with ``rt`` timings from the batched kernel — a cohort's wall
    time is attributed evenly across its members and the worker label
    names the cohort (``batched-<size>``), while the deterministic
    attrs stay identical to the serial backend's.
    """

    name = "batched"

    def __init__(self) -> None:
        self._workspace: Optional[ModelWorkspace] = None
        #: One engine per cohort size, built lazily and kept across
        #: rounds (cohort sizes repeat under full participation).
        self._engines: Dict[int, BatchedWorkspace] = {}
        self._unsupported: Optional[str] = None
        self.tracer = NULL_TRACER

    def bind(self, workspace, clients, tracer=None) -> None:
        del clients
        self._workspace = workspace
        self._engines = {}  # stale stacks would read the old model's shapes
        self._unsupported = None
        self.tracer = tracer or NULL_TRACER

    def _engine_for(self, size: int) -> Optional[BatchedWorkspace]:
        """The cohort engine, or None when this model must fall back."""
        if self._unsupported is not None:
            return None
        engine = self._engines.get(size)
        if engine is None:
            try:
                engine = BatchedWorkspace(self._workspace, size)
            except BatchedUnsupported as exc:
                # Remember why so every later cohort skips the retry.
                self._unsupported = str(exc)
                self.tracer.metrics.counter(
                    "runtime.executor.batched_fallbacks"
                ).inc()
                return None
            self._engines[size] = engine
        return engine

    def run_round(self, plan, participants):
        if self._workspace is None:
            raise RuntimeError("executor not bound to a trainer")
        tracer = self.tracer
        _emit_broadcast_span(tracer, plan)
        round_start = monotonic()
        # Cohorts keyed by shard size; indices keep participant order
        # both within each cohort and for the final result alignment.
        cohorts: Dict[int, List[int]] = {}
        for idx, client in enumerate(participants):
            cohorts.setdefault(client.n_samples, []).append(idx)
        results: List[Optional[ClientUpdate]] = [None] * len(participants)
        timings: List[Optional[TaskTiming]] = [None] * len(participants)
        # Probe batched support once with the largest multi-client
        # cohort; on BatchedUnsupported every cohort must fall back.
        multi_sizes = [len(ix) for ix in cohorts.values() if len(ix) > 1]
        batchable = bool(multi_sizes) and (
            self._engine_for(max(multi_sizes)) is not None
        )
        if batchable:
            groups = [cohorts[n_samples] for n_samples in sorted(cohorts)]
        else:
            # Full per-client fallback, in **participant order**: with
            # a stateful optimizer the shared workspace's slot state
            # makes client order observable, and participant order is
            # the serial reference.  (The mixed path never hits this:
            # batched support implies a stateless plain SGD, so
            # singleton stragglers can run interleaved with cohorts.)
            groups = [list(range(len(participants)))]
        for indices in groups:
            cohort = [participants[idx] for idx in indices]
            engine = (
                self._engine_for(len(cohort))
                if batchable and len(cohort) > 1
                else None
            )
            if engine is None:
                # The serial reference on the bound workspace: the
                # whole round when nothing batches, else a straggler.
                outcomes = _run_on_workspace(
                    self._workspace, plan, cohort, self.name, round_start, tracer
                )
                for idx, (update, timing) in zip(indices, outcomes):
                    results[idx] = update
                    timings[idx] = timing
                continue
            start = monotonic()
            try:
                updates = self._run_cohort(
                    engine, plan, cohort, cohort[0].n_samples
                )
            except Exception as exc:
                raise _client_failure(
                    exc, cohort[0], plan, self.name,
                    monotonic() - round_start, tracer,
                ) from exc
            per_client = (monotonic() - start) / len(cohort)
            worker = f"batched-{len(cohort)}"
            for idx, update in zip(indices, updates):
                results[idx] = update
                timings[idx] = (0.0, per_client, worker)
        for client, timing in zip(participants, timings):
            _emit_task_span(tracer, plan, client, timing)
        return results

    @staticmethod
    def _run_cohort(
        engine: BatchedWorkspace,
        plan: RoundPlan,
        cohort: Sequence[FLClient],
        n_samples: int,
    ) -> List[ClientUpdate]:
        """One cohort's E local epochs as stacked kernels."""
        if plan.lr <= 0:
            raise ValueError("lr must be positive")
        engine.load_global(plan.global_params)
        # Each client draws its E epoch permutations from its own
        # stream — exactly the draws Dataset.batches would make
        # serially; training consumes no other client randomness, so
        # the streams end the round in the identical state.
        orders = [
            [client.epoch_order() for _ in range(plan.local_epochs)]
            for client in cohort
        ]
        # One gather buffer per cohort call, refilled in place every
        # epoch: per-step minibatches are plain slices whose per-client
        # slabs are contiguous — the same memory layout Dataset.batches
        # hands the serial path.
        first = cohort[0].train_data
        x_epoch = np.empty(
            (len(cohort), n_samples) + first.x.shape[1:], dtype=first.x.dtype
        )
        y_epoch = np.empty(
            (len(cohort), n_samples) + first.y.shape[1:], dtype=first.y.dtype
        )
        steps_per_epoch = -(-n_samples // plan.batch_size)
        losses = np.empty(
            (len(cohort), plan.local_epochs * steps_per_epoch), dtype=np.float64
        )
        step = 0
        for epoch in range(plan.local_epochs):
            for ci, client in enumerate(cohort):
                order = orders[ci][epoch]
                np.take(client.train_data.x, order, axis=0, out=x_epoch[ci])
                np.take(client.train_data.y, order, axis=0, out=y_epoch[ci])
            for start in range(0, n_samples, plan.batch_size):
                sl = slice(start, start + plan.batch_size)
                losses[:, step] = engine.train_step_all(
                    x_epoch[:, sl], y_epoch[:, sl], plan.lr
                )
                step += 1
        stacked = engine.extract_updates(plan.global_params)
        # The same flat mean over all E x B batch losses the serial
        # client computes (see FLClient.compute_update): reducing the
        # contiguous last axis runs numpy's pairwise sum over each
        # client's row, exactly as np.mean does over the serial list.
        train_losses = losses.mean(axis=1)
        return [
            ClientUpdate(
                client_id=client.client_id,
                update=stacked[ci].copy(),
                n_samples=client.n_samples,
                train_loss=float(train_losses[ci]),
            )
            for ci, client in enumerate(cohort)
        ]


def _run_on_workspace(
    workspace: ModelWorkspace,
    plan: RoundPlan,
    clients: Sequence[FLClient],
    backend: str,
    round_start: float,
    tracer,
) -> Iterator[Tuple[ClientUpdate, TaskTiming]]:
    """Run ``clients`` back to back on ``workspace``, timing each.

    The one per-client loop both backends share: yields each client's
    ``(update, timing)`` as it finishes, and re-raises a failure as
    :class:`ClientExecutionError` naming the client (plus the
    ``client_error`` trace event).
    """
    for client in clients:
        start = monotonic()
        try:
            update = client.compute_update(
                workspace,
                plan.global_params,
                lr=plan.lr,
                local_epochs=plan.local_epochs,
                batch_size=plan.batch_size,
            )
        except Exception as exc:
            raise _client_failure(
                exc, client, plan, backend, monotonic() - round_start, tracer
            ) from exc
        yield update, (0.0, monotonic() - start, "main")


def _emit_broadcast_span(tracer, plan: RoundPlan) -> None:
    """The per-round parameter broadcast as an already-timed span.

    In-process, the broadcast is a shared read-only array, so the span
    carries no duration; its deterministic attrs are the same on both
    backends.
    """
    if not tracer.enabled:
        return
    tracer.record_span(
        "broadcast",
        attrs={
            "iteration": plan.iteration,
            "n_params": int(np.asarray(plan.global_params).size),
        },
        rt={"shm": False},
    )


def _emit_task_span(
    tracer, plan: RoundPlan, client: FLClient, timing: TaskTiming
) -> None:
    """Replay one client task as a ``client_compute`` span.

    Executors time tasks as they run, then call this in participant
    order, so the span sequence is deterministic while ``rt`` keeps the
    real duration and worker label.

    Per-client spans are head-sampled (``FLConfig.trace_sample``):
    every task still feeds the runtime histogram and the round rollup,
    but only sampled (round, client) pairs emit an individual span.
    """
    if not tracer.enabled:
        return
    queue_wait, dur, worker = timing
    tracer.metrics.histogram("runtime.executor.queue_wait").observe(queue_wait)
    rollup = tracer.rollup
    if rollup is not None:
        rollup.observe_task_rt(client.client_id, dur, queue_wait)
    if not tracer.span_sampled(plan.iteration, client.client_id):
        return
    tracer.record_span(
        "client_compute",
        attrs={"iteration": plan.iteration, "client_id": client.client_id},
        rt={"queue_wait": queue_wait, "dur": dur, "worker": worker},
    )


def _client_failure(
    exc: BaseException,
    client: FLClient,
    plan: RoundPlan,
    backend: str,
    elapsed: float,
    tracer,
) -> ClientExecutionError:
    """Wrap a client failure with its structured context + trace event."""
    error = ClientExecutionError(
        client.client_id,
        f"client {client.client_id} failed during local "
        f"computation: {type(exc).__name__}: {exc}",
        iteration=plan.iteration,
        backend=backend,
        elapsed_s=elapsed,
        cause_type=type(exc).__name__,
    )
    if tracer.enabled:
        tracer.event(
            "client_error",
            attrs={
                "client_id": error.client_id,
                "iteration": error.iteration,
                "error": error.cause_type,
            },
            rt={"elapsed": error.elapsed_s, "backend": error.backend},
        )
    return error


def make_executor(backend: Union[str, ClientExecutor]) -> ClientExecutor:
    """Build an executor from a backend name (or pass one through)."""
    if isinstance(backend, ClientExecutor):
        return backend
    if backend == "serial":
        return SerialExecutor()
    if backend == "batched":
        return BatchedExecutor()
    raise ValueError(
        f"unknown executor backend {backend!r}; choices: {EXECUTOR_BACKENDS}"
    )
