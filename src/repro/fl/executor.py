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
to.  The batched backend vectorizes: the round's participants, sorted
by shard size, are stacked into one leading client axis and run in
lockstep as a handful of large numpy kernels through one
:class:`~repro.fl.batched.BatchedWorkspace` (the largest stack any
preset builds is 39 MB, DESIGN 6b), with the per-client loop left only
for models that have no batched path.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.batched import BatchedWorkspace
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import EXECUTOR_BACKENDS
from repro.fl.workspace import ModelWorkspace
from repro.nn.module import BatchedUnsupported
from repro.obs import NULL_TRACER, RoundRollup

__all__ = [
    "BatchedExecutor",
    "ClientExecutionError",
    "ClientExecutor",
    "RoundPlan",
    "SerialExecutor",
    "make_executor",
]

#: One client task's runtime data: ``(dur, worker)``.
TaskTiming = Tuple[float, str]


@dataclass(frozen=True)
class RoundPlan:
    """The compute half of one round: what every participant must do."""

    iteration: int
    lr: float
    local_epochs: int
    batch_size: int
    #: The broadcast x_{t-1} all participants start from (read-only).
    global_params: np.ndarray
    #: The participants whose ``client_compute`` span the trace keeps
    #: (:meth:`repro.obs.Tracer.sampled_clients`); None keeps them all.
    sampled: Optional[FrozenSet[int]] = None
    #: The round's rollup, fed every task's wall time; None when untraced.
    rollup: Optional[RoundRollup] = None


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
    """Run the compute half of one synchronous round.

    The base runs the participants back to back on the trainer's one
    workspace: the serial reference every equivalence contract is tied
    to, and the fallback of any backend that cannot run a model its
    own way.
    """

    name = "base"
    #: Observability hook; the allocation-free default is replaced by
    #: the trainer's tracer at ``bind`` time when tracing is on.
    tracer = NULL_TRACER
    _workspace: Optional[ModelWorkspace] = None

    def bind(
        self,
        workspace: ModelWorkspace,
        clients: Sequence[FLClient],
        tracer=None,
    ) -> None:
        """Called once by the trainer before the first round."""
        del clients
        self._workspace = workspace
        self.tracer = tracer or NULL_TRACER

    def run_round(
        self, plan: RoundPlan, participants: Sequence[FLClient]
    ) -> List[ClientUpdate]:
        """Compute one update per participant.

        The returned list is aligned with ``participants`` regardless
        of the order in which a backend runs individual clients; the
        trainer's decide/aggregate reduction therefore sees the same
        sequence under every backend.  Each client is timed and
        replayed as a ``client_compute`` span as it finishes; a failure
        is re-raised as :class:`ClientExecutionError` naming the client
        (plus the ``client_error`` trace event).
        """
        workspace, tracer = self._bound(), self.tracer
        _emit_broadcast_span(tracer, plan)
        round_start = monotonic()
        results: List[ClientUpdate] = []
        for client in participants:
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
                    exc, client, plan, self.name, monotonic() - round_start, tracer
                ) from exc
            _emit_task_spans(tracer, plan, [client], [(monotonic() - start, "main")])
            results.append(update)
        return results

    def _bound(self) -> ModelWorkspace:
        if self._workspace is None:
            raise RuntimeError("executor not bound to a trainer")
        return self._workspace

    def close(self) -> None:
        """Release backend resources; idempotent."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(ClientExecutor):
    """The reference backend: the base's back-to-back loop, by name."""

    name = "serial"


class BatchedExecutor(ClientExecutor):
    """Cross-client vectorized backend: one stack per round, in lockstep.

    The participants are sorted by shard size (stable, so participant
    order inside equal sizes) into one ``(C, n_params)`` stack on a
    :class:`~repro.fl.batched.BatchedWorkspace`.
    Step ``s`` of client ``k`` is a minibatch of ``min(B, n_k - s*B)``
    samples, so rows with equally long minibatches are adjacent: each
    such *run* is one ``train_step_all`` — the whole stack for the steps
    every client has in full, row *windows* (views of rows ``a:b``) for
    the ragged tail.  Nothing is padded or masked, so every client's
    slice of every kernel is bitwise the serial one (DESIGN 6b).  Only
    a model without a batched path
    (:class:`~repro.nn.module.BatchedUnsupported`) runs the serial
    per-client loop — the whole round, in participant order.

    Per-client minibatch order comes from each client's own RNG stream
    via :meth:`~repro.fl.client.FLClient.epoch_order`: the client
    objects remain the single source of randomness truth, and both
    backends consume each stream identically.

    Observability: ``client_compute`` spans are replayed in participant
    order; a stack's wall time is split over its members by their
    sample-steps (``E x n_k``), the worker label names the stack
    (``batched-<rows>``), and the deterministic attrs stay identical
    to the serial backend's.
    """

    name = "batched"

    def __init__(self) -> None:
        #: One engine per stack height, built lazily and kept across
        #: rounds (heights repeat under a fixed cohort size).
        self._engines: Dict[int, BatchedWorkspace] = {}
        #: Per stack height, the ``(sizes, batch)`` it last ran and the
        #: lock-step schedule for them.
        self._schedules: Dict[int, Tuple[tuple, list]] = {}
        self._unsupported: Optional[str] = None

    def bind(self, workspace, clients, tracer=None) -> None:
        super().bind(workspace, clients, tracer)
        self._engines = {}  # stale stacks would read the old model's shapes
        self._schedules = {}
        self._unsupported = None

    def _engine_for(self, size: int) -> Optional[BatchedWorkspace]:
        """The ``size``-row engine, or None when this model must fall back."""
        if self._unsupported is not None:
            return None
        engine = self._engines.get(size)
        if engine is None:
            try:
                engine = BatchedWorkspace(self._bound(), size)
            except BatchedUnsupported as exc:
                # Remember why so every later round skips the retry.
                self._unsupported = str(exc)
                self.tracer.event(
                    "runtime.executor.batched_fallback",
                    rt={"reason": self._unsupported},
                )
                return None
            self._engines[size] = engine
        return engine

    def run_round(self, plan, participants):
        count = len(participants)
        engine = self._engine_for(count) if count else None
        if engine is None:
            # No batched path for this model (or nobody to run): the
            # serial reference, in **participant order** — with a
            # stateful optimizer the shared slot state makes client
            # order observable.
            return super().run_round(plan, participants)
        # Stable sort by shard size; the indices keep participant order
        # inside equal sizes and align the results at the end.
        order = sorted(range(count), key=lambda i: participants[i].n_samples)
        tracer = self.tracer
        _emit_broadcast_span(tracer, plan)
        round_start = monotonic()
        cohort = [participants[idx] for idx in order]
        updates = self._run_cohort(engine, plan, cohort, round_start)
        # The stack's wall, split by sample-steps (E x n_k; E cancels).
        per_sample = (monotonic() - round_start) / sum(
            update.n_samples for update in updates
        )
        results: List[Optional[ClientUpdate]] = [None] * count
        for idx, update in zip(order, updates):
            results[idx] = update
        worker = f"batched-{count}"
        timings = [(per_sample * update.n_samples, worker) for update in results]
        _emit_task_spans(tracer, plan, participants, timings)
        return results

    def _run_cohort(
        self,
        engine: BatchedWorkspace,
        plan: RoundPlan,
        cohort: Sequence[FLClient],
        round_start: float,
    ) -> List[ClientUpdate]:
        """E local epochs of ``cohort`` (ascending shard size) in lockstep.

        A failure is re-raised as :class:`ClientExecutionError` for the
        client it belongs to: the one whose permutation draw raised, or
        — inside a gather or a stacked step, which run many rows and
        have no single owner — the first client of the run, with the
        rows that ran.
        """
        epochs, batch, n_rows = plan.local_epochs, plan.batch_size, len(cohort)
        sizes = [client.n_samples for client in cohort]
        steps = [-(-n // batch) for n in sizes]
        # ``blamed`` follows the work: whose phase it is, or — with the
        # ``(what, a, b)`` of the call in ``run`` — whose run of rows.
        blamed, run = cohort[0], None
        try:
            if plan.lr <= 0:
                raise ValueError("lr must be positive")
            engine.load_global(plan.global_params)
            # Each client draws its E epoch permutations from its own
            # stream — exactly the draws Dataset.batches would make
            # serially; training consumes no other client randomness,
            # so the streams end the round in the identical state.
            orders = np.empty((epochs, n_rows, sizes[-1]), dtype=np.int64)
            for ci, blamed in enumerate(cohort):
                for epoch in range(epochs):
                    orders[epoch, ci, : sizes[ci]] = blamed.epoch_order()
            # One gather buffer per cohort call, refilled in place every
            # epoch: per-step minibatches are plain slices whose
            # per-client slabs are contiguous — the same memory layout
            # Dataset.batches hands the serial path.  Rows are as long
            # as the largest shard; a shorter client's tail is never read.
            first = cohort[0].train_data
            x_epoch = np.empty(
                (n_rows, sizes[-1]) + first.x.shape[1:], dtype=first.x.dtype
            )
            y_epoch = np.empty(
                (n_rows, sizes[-1]) + first.y.shape[1:], dtype=first.y.dtype
            )
            losses = np.empty((n_rows, epochs, steps[-1]), dtype=np.float64)
            # Adjacent equally long windows of one source dataset gather
            # together: row k of epoch e is source row start_k + order_k
            # (an eager client is its own source, from row 0).
            sources = [client.train_data.source for client in cohort]
            gathers = []
            for a, b in _equal_runs(list(zip(sizes, map(id, sources)))):
                blamed, run = cohort[a], ("gather", a, b)
                n = sizes[a]
                rows = orders[:, a:b, :n]
                if not 0 <= rows.min() <= rows.max() < n:
                    raise IndexError(f"epoch order outside the {n} rows of its shard")
                starts = [client.train_data.start for client in cohort[a:b]]
                rows = rows + np.array(starts, dtype=np.int64)[:, None]
                gathers.append((a, b, n, sources[a], rows))
            # The lock-step schedule of a fixed cohort shape (equal
            # shards, or full participation) is built once, not per round.
            key = (tuple(sizes), batch)
            if self._schedules.get(n_rows, (None,))[0] != key:
                self._schedules[n_rows] = (key, _lockstep_schedule(sizes, batch))
            schedule = self._schedules[n_rows][1]
            for epoch in range(epochs):
                for a, b, n, source, rows in gathers:
                    blamed, run = cohort[a], (f"gather of epoch {epoch}", a, b)
                    # mode="wrap" is the windows' own wrap-around, and
                    # writes a contiguous ``out`` in place where the
                    # default mode buffers it to survive its bounds
                    # check — made above, once.
                    index = rows[epoch]
                    for data, out in ((source.x, x_epoch), (source.y, y_epoch)):
                        np.take(data, index, axis=0, out=out[a:b, :n], mode="wrap")
                for step, a, b, cut in schedule:
                    blamed = cohort[a]
                    run = (f"stacked step {step} of epoch {epoch}", a, b)
                    losses[a:b, epoch, step] = engine.train_step_all(
                        x_epoch[a:b, cut], y_epoch[a:b, cut], plan.lr, rows=(a, b)
                    )
                run = None
        except Exception as exc:
            where = ""
            if run is not None:
                what, a, b = run
                where = (
                    f" ({what}, rows {a}:{b} of {n_rows}, "
                    f"clients {[c.client_id for c in cohort[a:b]]})"
                )
            raise _client_failure(
                exc, blamed, plan, self.name, monotonic() - round_start,
                self.tracer, where,
            ) from exc
        stacked = engine.extract_updates(plan.global_params)
        # The same flat mean over all E x B batch losses the serial
        # client computes (see FLClient.compute_update): reducing the
        # contiguous last axis runs numpy's pairwise sum over each
        # client's row, exactly as np.mean does over the serial list.
        # Rows with equal step counts are adjacent and reduce together
        # (an equal-size cohort is one (C, E * steps) mean).
        train_losses: List[float] = []
        for a, b in _equal_runs(steps):
            block = losses[a:b, :, : steps[a]].reshape(b - a, -1)
            train_losses += block.mean(axis=1).tolist()
        return [
            ClientUpdate(
                client_id=client.client_id,
                update=stacked[ci].copy(),
                n_samples=sizes[ci],
                train_loss=train_losses[ci],
            )
            for ci, client in enumerate(cohort)
        ]


def _equal_runs(values: Sequence[Any]) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each run of equal adjacent ``values``."""
    cuts = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    return list(zip([0] + cuts, cuts + [len(values)]))


def _lockstep_schedule(
    sizes: Sequence[int], batch_size: int
) -> List[Tuple[int, int, int, slice]]:
    """One epoch of an ascending-size cohort as stacked calls.

    ``(s, a, b, cut)`` says: at step ``s`` rows ``a:b`` all take the
    same ``m = min(B, n_k - s*B)`` samples, ``cut = slice(s*B, s*B + m)``
    of their epoch.  Rows with ``n_k <= s*B`` have finished and are in
    no call, so the calls of a step tile a suffix of the rows.
    """
    schedule = []
    for step, start in enumerate(range(0, sizes[-1], batch_size)):
        samples = [min(batch_size, max(n - start, 0)) for n in sizes]
        for a, b in _equal_runs(samples):
            if samples[a]:
                schedule.append((step, a, b, slice(start, start + samples[a])))
    return schedule


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
    )


def _emit_task_spans(
    tracer, plan: RoundPlan, clients: Sequence[FLClient], timings: Sequence[TaskTiming]
) -> None:
    """Replay client tasks as ``client_compute`` spans.

    Executors time tasks as they run, then call this in participant
    order, so the span sequence is deterministic while ``rt`` keeps the
    real duration and worker label.

    Per-client spans are head-sampled (``FLConfig.trace_sample``):
    every task still feeds the round rollup, but only the clients in
    ``plan.sampled`` emit an individual span.
    """
    if not tracer.enabled:
        return
    ids = [client.client_id for client in clients]
    if plan.rollup is not None:
        plan.rollup.observe_tasks_rt(ids, [dur for dur, _ in timings])
    for cid, (dur, worker) in zip(ids, timings):
        if plan.sampled is None or cid in plan.sampled:
            tracer.record_span(
                "client_compute",
                attrs={"iteration": plan.iteration, "client_id": cid},
                rt={"dur": dur, "worker": worker},
            )


def _client_failure(
    exc: BaseException,
    client: FLClient,
    plan: RoundPlan,
    backend: str,
    elapsed: float,
    tracer,
    where: str = "",
) -> ClientExecutionError:
    """Wrap a client failure with its structured context + trace event."""
    error = ClientExecutionError(
        client.client_id,
        f"client {client.client_id} failed during local "
        f"computation{where}: {type(exc).__name__}: {exc}",
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


def make_executor(backend: str) -> ClientExecutor:
    """Build an executor from a backend name."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "batched":
        return BatchedExecutor()
    raise ValueError(
        f"unknown executor backend {backend!r}; choices: {EXECUTOR_BACKENDS}"
    )
