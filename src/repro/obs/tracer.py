"""Structured tracing: nested spans and point events.

One :class:`Tracer` serves one run.  It emits dict events to its sinks
in a single deterministic order; the federated round produces the span
hierarchy::

    run
      round
        broadcast                    (per round, emitted by the executor)
        client_compute x N           (participant order, whatever backend)
        decide
          relevance_check x N        (participant order)
        aggregate
        evaluate                     (rounds that evaluate)
        round_rollup                 (one summary event per round)

At scale the per-client spans (``client_compute``, ``relevance_check``)
are *head-sampled*: a :class:`~repro.obs.rollup.SpanSampler` keeps a
deterministic subset (a pure hash of seed/round/client index, rate
``FLConfig.trace_sample``) and the unsampled remainder is folded into
the exact per-round ``round_rollup`` event, so traces stay bounded
without breaking the determinism contract.

Event schema (one JSON object per line in a ``.jsonl`` trace)::

    {"seq": 12, "kind": "span", "name": "client_compute", "id": 7,
     "parent": 3, "attrs": {"iteration": 1, "client_id": 4},
     "rt": {"ts": 8.1, "dur": 0.03, "worker": "..."}}

``kind`` is ``header`` | ``span`` | ``point``.  There is one channel
for numbers: every count a run reports (uploads, bytes, dispatches,
checkpoint saves) is a fold over these events, computed when the trace
is read (:func:`repro.obs.export.metrics_from_trace`).

**Determinism contract.**  Everything outside the ``rt`` attribute —
event ordering, span nesting, names, ids and ``attrs`` payloads — is a
pure function of the run's decisions and therefore identical across the
serial and batched execution backends.  All wall-clock and
scheduling-dependent data (timestamps, durations, worker labels,
backend names, host info) lives in ``rt``, and events named under
:data:`RUNTIME_PREFIX` keep their whole payload there.
:func:`repro.obs.report.deterministic_view` strips ``rt``/``seq`` and
drops ``runtime.*`` events; two traces of the same run must be equal
under that view (asserted in ``tests/test_obs.py``).

The default :data:`NULL_TRACER` keeps instrumented code allocation-free
when tracing is off: ``span()`` returns a shared no-op span.
"""

from __future__ import annotations

import os
import platform
from time import monotonic
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.obs.rollup import SpanSampler
from repro.obs.sinks import MemorySink, TraceSink

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RUNTIME_PREFIX",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
]

TRACE_SCHEMA = "repro-trace/v2"

#: Event-name prefix marking runtime-dependent (nondeterministic) data.
RUNTIME_PREFIX = "runtime."


class Span:
    """One timed, attributed region; a context manager.

    ``attrs`` must stay deterministic (see the module contract); use
    :meth:`set_rt` for anything wall-clock or scheduling dependent.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_tracer", "_start", "_rt")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._start = 0.0
        self._rt: Optional[Dict[str, Any]] = None

    def set_attr(self, key: str, value: Any) -> None:
        """Attach a deterministic attribute (visible to trace diffs)."""
        self.attrs[key] = value

    def set_rt(self, key: str, value: Any) -> None:
        """Attach runtime-dependent data (masked by trace diffs)."""
        if self._rt is None:
            self._rt = {}
        self._rt[key] = value

    def __enter__(self) -> "Span":
        self._tracer._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._close_span(self)
        return False


class Tracer:
    """Emits spans and point events to its sinks.

    Not thread-safe by design: all emission happens on the trainer's
    thread, which is exactly what the deterministic-ordering contract
    requires.  Executor backends time each task as it runs and replay
    the timings here in participant order.
    """

    enabled = True

    def __init__(
        self,
        sinks: Optional[Sequence[TraceSink]] = None,
        clock: Callable[[], float] = monotonic,
        emit_header: bool = True,
    ) -> None:
        self.sinks: List[TraceSink] = list(sinks or ())  # ckpt: transient — live I/O handles
        self.clock = clock
        # Head-sampling policy for per-client spans; None keeps every
        # span.  A pure (seed, round, client_index) hash — the trainer
        # re-derives it from the config, so it never rides in a
        # checkpoint.
        self.sampler: Optional[SpanSampler] = None  # ckpt: transient — config-derived pure hash
        self._seq = 0
        self._next_id = 1
        self._stack: List[Span] = []
        self._closed = False  # ckpt: transient — lifecycle flag, always False for a live tracer
        if emit_header:
            self._emit(
                {
                    "kind": "header",
                    "name": "trace",
                    "attrs": {"schema": TRACE_SCHEMA},
                    "rt": {
                        "ts": self.clock(),
                        "python": platform.python_version(),
                        "host_cpus": os.cpu_count(),
                    },
                }
            )

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; enter it (``with tracer.span(...)``) to start."""
        return Span(self, name, attrs)

    def sampled_clients(
        self, iteration: int, client_indices: Iterable[int]
    ) -> FrozenSet[int]:
        """The clients of a round's cohort whose per-client spans are kept.

        The one head-sampling decision per ``(iteration, client_index)``:
        the trainer asks when the round begins and carries the answer to
        every site that emits a per-client span (``client_compute``,
        ``admit``, ``relevance_check``).  All clients without a
        :class:`SpanSampler`; a pure hash, so identical on every
        execution backend and across resumes.
        """
        sampler = self.sampler
        if sampler is None:
            return frozenset(client_indices)
        return frozenset(
            index for index in client_indices if sampler.sampled(iteration, index)
        )

    def record_span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        rt: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit an already-timed span as a child of the current span.

        The executor backends time client tasks as they run and
        replay them here in participant order; ``rt`` carries the
        measured ``dur`` (default 0.0) plus any other runtime fields.
        """
        span_id = self._next_id
        self._next_id += 1
        runtime = {"ts": self.clock(), "dur": 0.0}
        if rt:
            runtime.update(rt)
        self._emit(
            {
                "kind": "span",
                "name": name,
                "id": span_id,
                "parent": self._stack[-1].span_id if self._stack else None,
                "attrs": dict(attrs or {}),
                "rt": runtime,
            }
        )

    def _open_span(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        span._start = self.clock()

    def _close_span(self, span: Span) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not span:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {span.name!r} closed while {top.name!r} was innermost"
            )
        runtime = {"ts": span._start, "dur": end - span._start}
        if span._rt:
            runtime.update(span._rt)
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "attrs": span.attrs,
                "rt": runtime,
            }
        )

    # -- point events ---------------------------------------------------

    def event(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        rt: Optional[Dict[str, Any]] = None,
    ) -> None:
        """An instantaneous event, parented to the current span."""
        runtime = {"ts": self.clock()}
        if rt:
            runtime.update(rt)
        self._emit(
            {
                "kind": "point",
                "name": name,
                "parent": self._stack[-1].span_id if self._stack else None,
                "attrs": dict(attrs or {}),
                "rt": runtime,
            }
        )

    def _emit(self, event: Dict[str, Any]) -> None:
        event["seq"] = self._seq
        self._seq += 1
        for sink in self.sinks:
            sink.emit(event)

    # -- continuation (see repro.ckpt) ---------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def export_state(self) -> Dict[str, Any]:
        """Continuation snapshot: counters and open spans.

        Everything :meth:`restore_state` needs to continue this exact
        event stream in a fresh process — sequence and id counters and
        the open-span stack (names, ids, deterministic attrs).
        Checkpoints persist it so a killed-and-resumed run emits the
        same events, with the same ids and ``seq`` numbers, as an
        uninterrupted one.
        """
        return {
            "seq": self._seq,
            "next_id": self._next_id,
            "open_spans": [
                {
                    "name": span.name,
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "attrs": dict(span.attrs),
                }
                for span in self._stack
            ],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt an :meth:`export_state` snapshot on a fresh tracer.

        The tracer must have been built with ``emit_header=False`` and
        must not have emitted anything yet: the snapshot's counters
        replace its own, checkpointed open spans are reopened with
        their original ids/attrs (their durations restart — runtime
        data, masked by the deterministic view).  A snapshot with a key
        missing or one this tracer does not read (a section written by
        an older version) raises ``ValueError`` naming the key: resuming
        from it would fork the event stream silently.
        """
        if self._seq != 0 or self._stack:
            raise RuntimeError(
                "restore_state needs a fresh tracer (emit_header=False, "
                "no events emitted)"
            )
        expected = ("seq", "next_id", "open_spans")
        for key in expected:
            if key not in state:
                raise ValueError(f"tracer state is missing key {key!r}")
        for key in state:
            if key not in expected:
                raise ValueError(f"tracer state has unknown key {key!r}")
        self._seq = int(state["seq"])
        self._next_id = int(state["next_id"])
        for entry in state["open_spans"]:
            span = Span(self, entry["name"], dict(entry["attrs"]))
            span.span_id = entry["id"]
            span.parent_id = entry["parent"]
            span._start = self.clock()
            self._stack.append(span)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Push buffered events on every sink to stable storage."""
        for sink in self.sinks:
            sink.flush()

    def memory_events(self) -> Optional[List[Dict[str, Any]]]:
        """The event list of the first :class:`MemorySink`, if any."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return None

    def close(self) -> None:
        """Close every sink.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_rt(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a constant-time no-op.

    No events, no allocations beyond the interpreter's argument
    handling, no I/O — instrumented hot paths cost a method call.
    """

    enabled = False
    sampler = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def sampled_clients(
        self, iteration: int, client_indices: Iterable[int]
    ) -> FrozenSet[int]:
        return frozenset()

    def record_span(self, name, attrs=None, rt=None) -> None:
        pass

    def event(self, name, attrs=None, rt=None) -> None:
        pass

    def current_span(self) -> None:
        return None

    def flush(self) -> None:
        pass

    def memory_events(self) -> None:
        return None

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: Shared disabled tracer; instrumented modules default to this.
NULL_TRACER = NullTracer()
