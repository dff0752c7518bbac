"""The deterministic discrete-event federation engine (ROADMAP #1).

:class:`AsyncFederatedTrainer` wraps a
:class:`~repro.fl.trainer.FederatedTrainer` and replaces its
synchronous barrier with an event loop over a virtual timeline:

- a **dispatch** event selects round ``t``'s cohort and runs its
  compute half (:meth:`FederatedTrainer._begin_round`, which writes
  store views back, so a later round may check the same client out
  again while this one is in flight), then draws each client's simulated
  round-trip from its own pure latency stream and schedules the
  **arrival** events;
- an **arrival** admits one client's upload; when every surviving
  upload of the *oldest* open round has arrived, that round **closes**
  — the strictly ordered decide/aggregate half
  (:meth:`FederatedTrainer._finish_round`), its merge scaled by the
  staleness weight ``w(s) = 1 / (1 + s)``;
- round ``r`` may dispatch only once round ``r - 1 - S`` has closed
  (the bounded-staleness gate), so at most ``S + 1`` rounds are in
  flight and every aggregation's staleness lies in ``[0, S]``.

Everything on the timeline is a pure function of (seed, config): the
latency streams are hash-derived per (round, client), the event queue
is totally ordered, and closes happen in round order.  Rounds may
overlap, which the tracer's strictly nested span stack cannot honour,
so the engine emits flat ``dispatch``/``admit``/``round_close`` spans
instead of ``round`` spans; their attributes carry everything the
``async.*`` totals of ``python -m repro.obs export`` are folded from.
At ``S = 0`` one round is in flight at a time, and the run computes
what the synchronous trainer does: the same history apart from
``virtual_time``, and the same parameters
(edge (e) of ``tests/test_lattice.py``).

Checkpoints capture the virtual clock, the event queue and every
in-flight round's computed results (recomputing them on resume would
re-emit their ``client_compute`` spans and fork the trace digest), so
a SIGKILLed async run resumes bitwise (``tests/test_ckpt_resume.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.events.clock import VirtualClock
from repro.fl.events.config import AsyncConfig
from repro.fl.events.latency import LatencyModel
from repro.fl.events.queue import ARRIVAL, DISPATCH, Event, EventQueue
from repro.fl.history import RunHistory
from repro.fl.trainer import FederatedTrainer, RoundState
from repro.obs import RoundRollup

__all__ = ["AsyncFederatedTrainer"]


@dataclass
class _InflightRound:
    """One dispatched-but-not-closed round."""

    state: RoundState
    dispatch_time: float
    closes_at_dispatch: int
    pending: Set[int] = field(default_factory=set)
    arrived: List[int] = field(default_factory=list)
    dropped: Set[int] = field(default_factory=set)


class AsyncFederatedTrainer:
    """Event-driven federation over a wrapped synchronous trainer.

    The wrapped trainer owns every federation component (server,
    policy, executor, store, tracer, checkpointer); this engine owns
    only the timeline.  ``trainer.async_engine`` is set so checkpoints
    taken through the trainer's own machinery capture the engine state
    alongside (see :func:`repro.ckpt.state.capture_run_state`).
    """

    def __init__(
        self,
        trainer: FederatedTrainer,
        async_config: Optional[AsyncConfig] = None,
    ) -> None:
        self.trainer = trainer  # ckpt: transient — captured via its own run state
        self.async_config = async_config if async_config is not None else AsyncConfig()
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.latency = LatencyModel(  # ckpt: transient — pure streams, no state
            seed=trainer.config.seed,
            n_params=trainer.server.n_params,
            drop_rate=self.async_config.drop_rate,
        )
        self.closes_done = len(trainer.history)
        self.next_dispatch = self.closes_done + 1
        self.target_rounds = 0  # ckpt: transient — set by each closed_rounds() call
        self._inflight: Dict[int, _InflightRound] = {}
        self._dispatch_pending = False  # ckpt: transient — derived from the queue on restore
        trainer.async_engine = self

    # -- wiring ----------------------------------------------------------

    @property
    def tracer(self):
        return self.trainer.tracer

    @property
    def history(self) -> RunHistory:
        return self.trainer.history

    # -- the event loop --------------------------------------------------

    def run(self, rounds: Optional[int] = None) -> RunHistory:
        """Close ``rounds`` more rounds (default: the configured count).

        The wrapped trainer's :meth:`FederatedTrainer.run` drives
        :meth:`closed_rounds`, so the run span and the checkpoint
        schedule are the synchronous run's.  On return nothing is in
        flight — every dispatched round has closed — so the engine is
        at a consistent (checkpointable) boundary between ``run`` calls.
        A closed engine refuses: its trainer would run synchronously.
        """
        if self.trainer.async_engine is not self:
            raise RuntimeError("this engine is closed; build or restore a new one")
        return self.trainer.run(rounds)

    def closed_rounds(self, rounds: int) -> Iterator[int]:
        """Process events until ``rounds`` more rounds have closed.

        Yields at each event boundary where rounds closed: the handler
        has returned, clock and queue are consistent, and the trainer
        may checkpoint.  One arrival can close several rounds back to
        back; the boundary yields only the last (the earlier closes
        share this exact state).
        """
        self.target_rounds = self.closes_done + rounds
        self._maybe_schedule_dispatch()
        while self.closes_done < self.target_rounds:
            event = self.queue.pop()
            self.clock.advance_to(event.time)
            closes = self.closes_done
            if event.kind == DISPATCH:
                self._on_dispatch(event)
            else:
                self._on_arrival(event)
            if self.closes_done > closes:
                yield self.closes_done

    def _dispatch_allowed(self, iteration: int) -> bool:
        """The bounded-staleness gate for dispatching ``iteration``."""
        bound = self.async_config.staleness_bound
        return self.closes_done >= iteration - 1 - bound

    def _maybe_schedule_dispatch(self) -> bool:
        """Queue the next round's dispatch if the gate allows it now.

        Returns whether the staleness gate blocked it.  When it blocks,
        nothing is queued — the close that eventually satisfies the
        gate calls back in here.  The dispatch handler records the
        answer on its span (``next_deferred``).
        """
        iteration = self.next_dispatch
        if iteration > self.target_rounds or self._dispatch_pending:
            return False
        if not self._dispatch_allowed(iteration):
            return True
        self.queue.push(Event(self.clock.now, DISPATCH, iteration))
        self._dispatch_pending = True
        return False

    # -- handlers --------------------------------------------------------

    def _on_dispatch(self, event: Event) -> None:
        """Start round ``event.iteration``: compute, then schedule arrivals."""
        trainer = self.trainer
        t = event.iteration
        self._dispatch_pending = False
        state = trainer._begin_round(t, None)
        inflight = _InflightRound(
            state=state,
            dispatch_time=self.clock.now,
            closes_at_dispatch=self.closes_done,
        )
        timing = self.latency.timing
        epochs = trainer.config.local_epochs
        timings = [
            timing(t, result.client_id, result.n_samples, epochs)
            for result in state.results
        ]
        if timings and all(tm.dropped for tm in timings):
            # All-dropped rescue: a fully dead round could never close.
            # The fastest upload lands anyway (ids break latency ties).
            rescue = min(
                range(len(timings)),
                key=lambda i: (timings[i].latency_s, state.results[i].client_id),
            )
            timings[rescue] = timings[rescue]._replace(dropped=False)
        now = self.clock.now
        for result, tm in zip(state.results, timings):
            cid = result.client_id
            if tm.dropped:
                inflight.dropped.add(cid)
            else:
                inflight.pending.add(cid)
                self.queue.push(Event(now + tm.latency_s, ARRIVAL, t, cid))
        self._inflight[t] = inflight
        self.next_dispatch += 1
        next_deferred = self._maybe_schedule_dispatch()
        if self.tracer.enabled:
            self.tracer.record_span(
                "dispatch",
                attrs={
                    "iteration": t,
                    "n_participants": len(state.results),
                    "n_dropped": len(inflight.dropped),
                    "next_deferred": next_deferred,
                    "virtual_time": self.clock.now,
                },
            )

    def _on_arrival(self, event: Event) -> None:
        """Admit one upload; close every round that became complete."""
        inflight = self._inflight[event.iteration]
        inflight.pending.remove(event.client_id)
        inflight.arrived.append(event.client_id)
        if event.client_id in inflight.state.sampled:
            self.tracer.record_span(
                "admit",
                attrs={
                    "iteration": event.iteration,
                    "client_id": event.client_id,
                    "virtual_time": self.clock.now,
                },
            )
        # Closes run strictly in round order: a fully arrived round
        # waits until every earlier round has closed, so the decide/
        # aggregate reduction order is a pure function of the schedule.
        while True:
            oldest = self.closes_done + 1
            candidate = self._inflight.get(oldest)
            if candidate is None or candidate.pending:
                break
            self._close_round(oldest, candidate)
            self._maybe_schedule_dispatch()

    def _close_round(self, iteration: int, inflight: _InflightRound) -> None:
        """The decide/aggregate half for a fully arrived round."""
        trainer = self.trainer
        state = inflight.state
        if inflight.dropped:
            # Churn: dropped uploads never reach the server — not even
            # a status message.  Participant order is preserved for the
            # survivors, so the reduction stays deterministic.
            state.results = [
                result
                for result in state.results
                if result.client_id not in inflight.dropped
            ]
        staleness = (iteration - 1) - inflight.closes_at_dispatch
        trainer._finish_round(
            state,
            None,
            staleness=staleness,
            virtual_time=self.clock.now,
            merge_scale=self.async_config.merge_weight(staleness),
        )
        if self.tracer.enabled:
            self.tracer.record_span(
                "round_close",
                attrs={
                    "iteration": iteration,
                    "staleness": staleness,
                    "n_arrived": len(state.results),
                    "virtual_time": self.clock.now,
                },
            )
        del self._inflight[iteration]
        self.closes_done += 1

    # -- checkpoint capture/restore --------------------------------------

    def export_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """(JSON-safe manifest, arrays) for a bitwise resume.

        In-flight rounds are captured as their already *computed*
        results — re-running their compute halves on resume would
        re-emit ``client_compute`` spans the trace already carries and
        fork the digest.  Legal at event boundaries only (between
        handler invocations), which is when the trainer's checkpointer
        fires.  The manifest records every :class:`AsyncConfig` field:
        a resume under different knobs would draw a different timeline.
        """
        manifest: Dict[str, Any] = {
            **asdict(self.async_config),
            "clock": self.clock.state_dict(),
            "queue": self.queue.state_dict(),
            "closes_done": self.closes_done,
            "next_dispatch": self.next_dispatch,
            "inflight": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        for t, inflight in sorted(self._inflight.items()):
            state = inflight.state
            manifest["inflight"].append(
                {
                    "iteration": t,
                    "lr": state.lr,
                    "dispatch_time": inflight.dispatch_time,
                    "closes_at_dispatch": inflight.closes_at_dispatch,
                    "participants": [r.client_id for r in state.results],
                    "n_samples": [r.n_samples for r in state.results],
                    "train_losses": [r.train_loss for r in state.results],
                    "pending": sorted(inflight.pending),
                    "arrived": list(inflight.arrived),
                    "dropped": sorted(inflight.dropped),
                }
            )
            arrays[f"async/{t}/global_params"] = state.global_params
            arrays[f"async/{t}/feedback"] = state.feedback
            for result in state.results:
                arrays[f"async/{t}/update/{result.client_id}"] = result.update
        return manifest, arrays

    def restore_state(
        self, state: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Apply an :meth:`export_state` snapshot to this engine.

        Refuses a snapshot whose :class:`AsyncConfig` differs from this
        engine's in any field, or lacks one.
        """
        for name, ours in asdict(self.async_config).items():
            theirs = state.get(name, "<missing>")
            if theirs != ours:
                raise ValueError(
                    f"checkpoint was taken with {name}={theirs}, this "
                    f"engine is configured with {name}={ours}"
                )
        self.clock.load_state_dict(state["clock"])
        self.queue.load_state_dict(state["queue"])
        self.closes_done = int(state["closes_done"])
        self.next_dispatch = int(state["next_dispatch"])
        self._inflight = {}
        for entry in state["inflight"]:
            t = int(entry["iteration"])
            results = [
                ClientUpdate(
                    client_id=int(cid),
                    update=arrays[f"async/{t}/update/{int(cid)}"],
                    n_samples=int(n),
                    train_loss=float(loss),
                )
                for cid, n, loss in zip(
                    entry["participants"],
                    entry["n_samples"],
                    entry["train_losses"],
                )
            ]
            # A fresh rollup: its deterministic side is fed entirely at
            # close time, so the emitted round_rollup attrs are bitwise
            # the uninterrupted run's; the lost wall-clock side lives
            # under rt, which the deterministic view masks anyway.
            rollup = RoundRollup(t) if self.tracer.enabled else None
            sampled = self.tracer.sampled_clients(
                t, [int(cid) for cid in entry["participants"]]
            )
            round_state = RoundState(
                iteration=t,
                lr=float(entry["lr"]),
                feedback=arrays[f"async/{t}/feedback"],
                global_params=arrays[f"async/{t}/global_params"],
                results=results,
                rollup=rollup,
                sampled=sampled,
            )
            inflight = _InflightRound(
                state=round_state,
                dispatch_time=float(entry["dispatch_time"]),
                closes_at_dispatch=int(entry["closes_at_dispatch"]),
            )
            inflight.pending = {int(c) for c in entry["pending"]}
            inflight.arrived = [int(c) for c in entry["arrived"]]
            inflight.dropped = {int(c) for c in entry["dropped"]}
            self._inflight[t] = inflight
        self._dispatch_pending = self.queue.has_kind(DISPATCH)

    @classmethod
    def restore(
        cls,
        path: Union[str, "Any"],
        *,
        async_config: Optional[AsyncConfig] = None,
        **parts: Any,
    ) -> "AsyncFederatedTrainer":
        """Rebuild an engine (and its trainer) from a checkpoint.

        ``parts`` are the federation constructor kwargs
        :meth:`FederatedTrainer.restore` expects; ``async_config`` must
        match the checkpointed run's.  The resumed engine's next event
        is exactly the one the killed run would have processed next.
        """
        from repro.ckpt import read_checkpoint

        trainer = FederatedTrainer.restore(path, **parts)
        engine = cls(trainer, async_config=async_config)
        ckpt = read_checkpoint(path)
        async_state = ckpt.manifest.get("async")
        if async_state is None:
            raise ValueError(
                f"checkpoint {path} carries no async-engine state; "
                "was it written by a synchronous run?"
            )
        engine.restore_state(async_state, ckpt.arrays)
        return engine

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the wrapped trainer's resources and unhook from it.

        Clearing ``trainer.async_engine`` breaks the engine <-> trainer
        reference cycle, so a closed federation is freed by reference
        counting as soon as its caller drops it, not at the next full
        collection of the cyclic GC.
        """
        self.trainer.close()
        self.trainer.async_engine = None

    def __enter__(self) -> "AsyncFederatedTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AsyncFederatedTrainer(S={self.async_config.staleness_bound}, "
            f"closes_done={self.closes_done}, "
            f"inflight={sorted(self._inflight)})"
        )
