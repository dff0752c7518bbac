"""The synchronous federated training loop (paper Algorithm 1).

Each iteration: broadcast (x_{t-1}, u_bar_{t-1}); every client trains
locally and judges its update with the configured upload policy; the
server averages the uploaded updates into the new global model.  All
communication and measurement bookkeeping is recorded per round.

The round is split into a *compute* half — fanned out through a
pluggable :mod:`repro.fl.executor` backend (serial or batched) — and a
*decide/aggregate* half that always runs here, in participant order, so
run histories are bitwise-identical across backends.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policy import PolicyContext, UploadPolicy
from repro.core.relevance import relevance_per_segment
from repro.fl.accounting import CommunicationLedger
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import FLConfig
from repro.fl.executor import RoundPlan, make_executor
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.sampling import ClientSampler, FullParticipation
from repro.fl.server import FLServer
from repro.fl.store import ClientStateStore
from repro.fl.workspace import ModelWorkspace
from repro.obs import (
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    RoundRollup,
    SpanSampler,
    Tracer,
)

__all__ = ["FederatedTrainer", "RoundState"]

#: Optional evaluation callback: (workspace with global params loaded) ->
#: (test_loss, test_metric).
EvalFn = Callable[[ModelWorkspace], Tuple[float, float]]


def _name_non_finite(
    t: int, results: Sequence[ClientUpdate], aggregate: Optional[np.ndarray]
) -> None:
    """Raise ``FloatingPointError`` for round ``t``'s first client whose
    update or training loss is NaN/Inf, else for the aggregate itself."""
    suspects = [
        (f"update or training loss from client {r.client_id}",
         np.append(r.update, r.train_loss))
        for r in results
    ] + ([] if aggregate is None else [("aggregated delta", aggregate)])
    for what, vector in suspects:
        bad = vector.size - np.count_nonzero(np.isfinite(vector))
        if bad:
            raise FloatingPointError(
                f"{what} in round {t} contains {bad} non-finite value(s) "
                f"out of {vector.size}; a diverging client or an unstable "
                "learning rate is poisoning the federation"
            )


@dataclass
class RoundState:
    """One round's compute half, handed to the decide/aggregate half.

    The synchronous loop builds and consumes one per round back to
    back; the async engine (:mod:`repro.fl.events`) holds several in
    flight while their virtual-latency arrivals trickle in.  It holds
    only what the decide half reads: the cohort's store views are
    already written back, and each result carries its ``client_id``.
    The engine may narrow ``results`` to the clients whose uploads
    actually arrived (churn drops never reach the decide half).
    """

    iteration: int
    lr: float
    feedback: np.ndarray
    global_params: np.ndarray
    results: List[ClientUpdate]
    rollup: Optional[RoundRollup] = None
    #: The participants whose per-client spans the trace keeps
    #: (:meth:`repro.obs.Tracer.sampled_clients`), decided once.
    sampled: FrozenSet[int] = frozenset()


class FederatedTrainer:
    """Drives one policy over one federation of clients.

    ``clients`` is either an eager sequence of :class:`FLClient`
    objects (the small-federation setting) or a
    :class:`~repro.fl.store.ClientStateStore` (the population model:
    the sampler draws indices, the store materializes views for just
    the active cohort, and advanced RNG streams are written back to
    the shard arrays at the end of each round).  Both paths run the
    same round loop and produce bitwise-identical histories for the
    same streams and data.
    """

    def __init__(
        self,
        workspace: ModelWorkspace,
        clients: Union[Sequence[FLClient], ClientStateStore],
        policy: UploadPolicy,
        config: FLConfig,
        eval_fn: Optional[EvalFn] = None,
        sampler: Optional[ClientSampler] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if isinstance(clients, ClientStateStore):
            self.store = clients
            # No eager pool: views exist only while a round is running.
            self.clients = []
        else:
            if not clients:
                raise ValueError("need at least one client")
            ids = [c.client_id for c in clients]
            if len(set(ids)) != len(ids):
                raise ValueError("client ids must be unique")
            self.store = None
            self.clients = list(clients)
        self.workspace = workspace
        self.policy = policy
        self.config = config  # ckpt: transient — caller-supplied, re-passed on restore
        self.eval_fn = eval_fn  # ckpt: transient — caller-supplied callable
        self.sampler = sampler or FullParticipation()
        self.server = FLServer(
            workspace.get_flat(), feedback_staleness=config.feedback_staleness
        )
        # Observability: an explicit tracer wins; otherwise the config
        # knobs build one (JSONL file if trace_path, else in-memory).
        # The trainer closes only tracers it built itself.
        self._owns_tracer = False  # ckpt: transient — rebuilt with the tracer itself
        if tracer is not None:
            self.tracer = tracer
        elif config.trace_enabled:
            sink = (
                JsonlSink(config.trace_path)
                if config.trace_path
                else MemorySink()
            )
            self.tracer = Tracer(sinks=[sink])
            self._owns_tracer = True
        else:
            self.tracer = NULL_TRACER
        # Per-client span head-sampling (a pure (seed, round, client)
        # hash); the keep-everything rate skips the sampler entirely so
        # pre-sampling traces stay bit-identical.
        if self.tracer.enabled and config.trace_sample < 1.0:
            self.tracer.sampler = SpanSampler(config.seed, config.trace_sample)
        self.ledger = CommunicationLedger(n_params=self.server.n_params)
        # Cumulative per-layer end offsets into the flat parameter
        # vector, for the rollup's per-layer sign-agreement summary.
        self._layer_boundaries = list(  # ckpt: transient — derived from the model shape
            np.cumsum([p.size for p in workspace.model.parameters()])
        )
        self.history = RunHistory(policy_name=policy.name)
        self.executor = make_executor(config.executor)
        self.executor.bind(workspace, tracer=self.tracer)
        # Run-state persistence (see repro.ckpt), driven by the
        # checkpoint_* config knobs.  Imported lazily: repro.ckpt
        # imports fl modules, so a module-level import would cycle.
        self.checkpointer = None  # ckpt: transient — the persistence driver, not run state
        if config.checkpoint_enabled:
            from repro.ckpt import Checkpointer

            self.checkpointer = Checkpointer(
                config.checkpoint_dir,
                every_n_rounds=config.checkpoint_every,
                keep=config.checkpoint_keep,
            )
        # Open "run" span adopted from a checkpoint by restore();
        # run() continues it instead of opening a fresh one.
        self._resume_span = None  # ckpt: transient — live span handle, re-adopted by restore()
        # Hook for measurement experiments: called with every
        # (client update, decision) pair before aggregation.
        self.on_decision: Optional[Callable] = None  # ckpt: transient — in-process hook
        # Back-reference installed by an AsyncFederatedTrainer wrapping
        # this trainer; checkpoints capture the engine's state through
        # it (see repro.ckpt.state).
        self.async_engine = None  # ckpt: transient — re-registered by the engine constructor

    def run_round(self, t: int) -> RoundRecord:
        """Execute one synchronous iteration (1-based index ``t``)."""
        with self.tracer.span("round", iteration=t) as round_span:
            return self._finish_round(self._begin_round(t, round_span), round_span)

    def _begin_round(self, t: int, round_span) -> RoundState:
        """The compute half: select a cohort and fan it out.

        Returns the :class:`RoundState` the decide/aggregate half
        (:meth:`_finish_round`) consumes.  The synchronous loop calls
        the two back to back under one ``round`` span; the async engine
        calls them from its dispatch and close handlers with (possibly)
        other rounds in between.  ``round_span`` is None under the
        engine, whose overlapping rounds have no enclosing round span.
        """
        lr = self.config.lr(t)
        feedback = self.server.feedback
        global_params = self.server.global_params.copy()

        if self.store is not None:
            indices = self.sampler.select_indices(t, self.store.population)
            participants = self.store.checkout(indices)
        else:
            participants = self.sampler.select(t, self.clients)
        if not participants:
            raise RuntimeError(f"sampler selected no clients in round {t}")
        if round_span is not None:
            round_span.set_attr("n_participants", len(participants))

        # Compute half: fan the participants out through the executor.
        # Results come back aligned with the participant order whatever
        # the backend's completion order was.  The executor itself emits
        # the broadcast + per-client client_compute spans.
        sampled = self.tracer.sampled_clients(
            t, [client.client_id for client in participants]
        )
        # One rollup per round: executors feed wall-clock task timings
        # for every participant (sampled or not), the decide loop in
        # _finish_round feeds the deterministic decision stream.
        rollup = RoundRollup(t) if self.tracer.enabled else None
        plan = RoundPlan(
            iteration=t,
            lr=lr,
            local_epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            global_params=global_params,
            sampled=sampled,
            rollup=rollup,
        )
        results = self.executor.run_round(plan, participants)
        if self.store is not None:
            # Capture every view's advanced RNG stream back into its
            # row and retire the views: the decide half reads only the
            # results, and under the async engine a later round may
            # check the same client out while this one is in flight.
            self.store.writeback(participants)
        return RoundState(
            iteration=t,
            lr=lr,
            feedback=feedback,
            global_params=global_params,
            results=list(results),
            rollup=rollup,
            sampled=sampled,
        )

    def _finish_round(
        self,
        state: RoundState,
        round_span=None,
        *,
        staleness: int = 0,
        virtual_time: float = 0.0,
        merge_scale: float = 1.0,
    ) -> RoundRecord:
        """The decide/aggregate half: a strictly ordered reduction.

        ``staleness``/``virtual_time`` flow into the round record;
        ``merge_scale`` is the staleness weight the aggregate is scaled
        by before it moves the model (1.0 takes the exact unscaled
        path, so synchronous arithmetic is untouched).
        """
        t = state.iteration
        lr = state.lr
        feedback = state.feedback
        global_params = state.global_params
        results = state.results
        rollup = state.rollup

        # One context per round; per-client views share its cache, so
        # CMFL computes np.sign(u_bar) once per round, not once per
        # client.
        round_ctx = PolicyContext(
            iteration=t,
            global_params=global_params,
            global_update_estimate=feedback,
        )
        uploads: List[ClientUpdate] = []
        skipped: List[ClientUpdate] = []
        scores: List[float] = []
        losses: List[float] = []
        threshold = 0.0
        decide = self.policy.decide

        with self.tracer.span("decide", iteration=t):
            for result in results:
                cid = result.client_id
                if cid in state.sampled:
                    with self.tracer.span(
                        "relevance_check", iteration=t, client_id=cid
                    ) as check_span:
                        decision = decide(result.update, round_ctx.for_client(cid))
                        check_span.set_attr("upload", bool(decision.upload))
                        check_span.set_attr("score", float(decision.score))
                else:
                    decision = decide(result.update, round_ctx.for_client(cid))
                if self.on_decision is not None:
                    self.on_decision(result, decision)
                scores.append(decision.score)
                losses.append(result.train_loss)
                threshold = decision.threshold
                if decision.upload:
                    uploads.append(result)
                else:
                    skipped.append(result)
            if rollup is not None:
                rollup.observe_decisions(scores, losses, len(uploads))

            if not uploads and self.config.on_empty_round == "force_best":
                forced = results[int(np.argmax(scores))]
                skipped.remove(forced)
                uploads.append(forced)
                self.tracer.event(
                    "force_best",
                    attrs={"iteration": t, "client_id": forced.client_id},
                )
                if rollup is not None:
                    rollup.n_uploaded += 1
                    rollup.n_forced += 1
        if round_span is not None:
            round_span.set_attr("n_uploaded", len(uploads))

        # One check of the mean loss before the server state changes and
        # one of the aggregate after; a scan per update would cost ~2 %
        # of a population-scale round.
        mean_train_loss = float(np.mean(losses))
        if not np.isfinite(mean_train_loss):
            _name_non_finite(t, results, None)
        with self.tracer.span("aggregate", iteration=t, n_uploads=len(uploads)):
            aggregate = self.server.apply_round(uploads, scale=merge_scale)
            if aggregate is not None and not np.isfinite(aggregate).all():
                _name_non_finite(t, results, aggregate)
            round_bytes = self.ledger.record_round(
                [u.client_id for u in uploads],
                [s.client_id for s in skipped],
                staleness=staleness,
            )

        if rollup is not None:
            rollup.uploaded_bytes, rollup.status_bytes = round_bytes
            if aggregate is not None and feedback is not None:
                rollup.layer_sign_agreement = [
                    float(v)
                    for v in relevance_per_segment(
                        aggregate, feedback, self._layer_boundaries
                    )
                ]

        if self.store is not None:
            # Account participation into the shard stats (the views
            # were written back at the end of the compute half).
            self.store.record_round(
                t,
                [u.client_id for u in uploads],
                [s.client_id for s in skipped],
            )
            if rollup is not None:
                rollup.extra["store"] = {
                    "population": self.store.population,
                    "shards_materialized": self.store.materialized_shards,
                }

        record = RoundRecord(
            iteration=t,
            n_clients=len(results),
            n_uploaded=len(uploads),
            accumulated_rounds=self.ledger.accumulated_rounds,
            total_bytes=self.ledger.total_bytes,
            lr=lr,
            mean_train_loss=mean_train_loss,
            mean_score=float(np.mean(scores)),
            threshold=threshold,
            uploaded_ids=[u.client_id for u in uploads],
            staleness=staleness,
            virtual_time=virtual_time,
        )
        if self.eval_fn is not None and t % self.config.eval_every == 0:
            with self.tracer.span("evaluate", iteration=t) as eval_span:
                self.workspace.load_flat(self.server.global_params)
                record.test_loss, record.test_metric = self.eval_fn(
                    self.workspace
                )
                eval_span.set_attr("test_loss", record.test_loss)
                eval_span.set_attr("test_metric", record.test_metric)
        if rollup is not None:
            self.tracer.event("round_rollup", attrs=rollup.attrs(), rt=rollup.rt())
        self.history.append(record)
        return record

    def run(self, rounds: Optional[int] = None) -> RunHistory:
        """Run ``rounds`` iterations (default: the configured count).

        A trainer wrapped by an
        :class:`~repro.fl.events.AsyncFederatedTrainer` closes them
        through the engine's event loop instead of :meth:`run_round`.
        With checkpointing configured, a checkpoint is saved after each
        closed round the schedule selects (an engine event that closes
        several rounds saves once, named for the last, when any of them
        is due).  A trainer built by
        :meth:`restore` continues the checkpointed trace's still-open
        ``run`` span instead of opening a new one, so the resumed event
        stream is indistinguishable from an uninterrupted run's.
        """
        total = self.config.rounds if rounds is None else rounds
        if total < 1:
            raise ValueError("rounds must be >= 1")
        start = len(self.history) + 1
        run_span = self._resume_span
        self._resume_span = None
        if run_span is None:
            run_span = self.tracer.span(
                "run",
                policy=self.policy.name,
                rounds=total,
                start_iteration=start,
            )
            run_span.__enter__()
        run_span.set_rt("backend", self.executor.name)
        if self.async_engine is None:
            closed = (self.run_round(t).iteration for t in range(start, start + total))
        else:
            closed = self.async_engine.closed_rounds(total)
        try:
            previous = start - 1
            for t in closed:
                if self.checkpointer is not None:
                    self.checkpointer.maybe_save(self, t, previous)
                previous = t
        finally:
            run_span.__exit__(*sys.exc_info())
        return self.history

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Checkpoint the current run state to ``path`` (see repro.ckpt).

        Valid at round boundaries only — between :meth:`run_round`
        calls, or after :meth:`run` returns.
        """
        from repro.ckpt import save_checkpoint

        return save_checkpoint(self, path)

    @classmethod
    def restore(
        cls,
        path: Union[str, Path],
        workspace: ModelWorkspace,
        clients: Union[Sequence[FLClient], ClientStateStore],
        policy: UploadPolicy,
        config: FLConfig,
        eval_fn: Optional[EvalFn] = None,
        sampler: Optional[ClientSampler] = None,
    ) -> "FederatedTrainer":
        """Rebuild a trainer from a checkpoint and the federation parts.

        The caller reconstructs the same federation the checkpointed
        run used (model, clients — or a ClientStateStore of the same
        shape — policy, config, sampler: cheap, deterministic object
        construction); the checkpoint then overwrites every piece of
        mutable state, the executor is re-bound to the restored
        workspace, and the trace continuation is wired up.  The returned trainer's next ``run_round`` is
        iteration ``checkpoint.iteration + 1`` and behaves bit-for-bit
        like the uninterrupted run's.
        """
        from repro.ckpt import apply_run_state, build_resume_tracer, read_checkpoint

        ckpt = read_checkpoint(path)
        tracer = build_resume_tracer(ckpt.manifest.get("trace"), config)
        trainer = cls(
            workspace,
            clients,
            policy,
            config,
            eval_fn=eval_fn,
            sampler=sampler,
            tracer=tracer,
        )
        if tracer is not None:
            # restore() built this tracer from the config knobs, same
            # as __init__ would have; close() owns it.
            trainer._owns_tracer = True
        apply_run_state(trainer, ckpt)
        if trainer.tracer.enabled:
            trainer._resume_span = trainer.tracer.current_span()
        return trainer

    def close(self) -> None:
        """Close the executor and any tracer the trainer built itself.

        Idempotent — except that a tracer built from the config knobs
        is closed too (final metrics snapshot + sink flush), so a
        traced trainer should not run further rounds after ``close``.
        A trainer :meth:`restore` built from a finished run's last
        checkpoint runs no round, so ``close`` ends the adopted ``run``
        span the restore cut from the trace.
        """
        if self._resume_span is not None:
            self._resume_span.set_rt("backend", self.executor.name)
            self._resume_span.__exit__(None, None, None)
            self._resume_span = None
        self.executor.close()
        if self._owns_tracer:
            self.tracer.close()

    def __enter__(self) -> "FederatedTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
