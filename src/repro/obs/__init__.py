"""``repro.obs`` — zero-dependency tracing and profiling.

The observability layer of the reproduction: a :class:`Tracer` emits
nested spans (``run``/``round``/``broadcast``/``client_compute``/
``relevance_check``/``decide``/``aggregate``/``evaluate``) with
monotonic-clock durations and point events, and pluggable sinks
persist the event stream (in-memory, JSON-lines).

Built to stay constant-memory at population scale: per-client spans are
head-sampled (:class:`SpanSampler`, rate ``FLConfig.trace_sample``)
with the unsampled remainder folded into exact per-round
``round_rollup`` events (:class:`RoundRollup`).  The trace has one
channel for numbers: the run's totals (``comm.*``, ``async.*``,
``store.*``, ``ckpt.*``) are a fold over its spans and rollups
(:func:`metrics_from_trace`), exported as OpenMetrics text
(:mod:`repro.obs.export`), and so are its health findings
— stalls, dead cohorts, non-finite evaluations, stragglers
(:func:`health_events`).

The central invariant is the *determinism contract*: event ordering and
payloads are a pure function of the run, identical across the serial
and batched execution backends; every wall-clock or
scheduling-dependent value is confined to the ``rt`` event attribute
and to events named under ``runtime.*``, which
:func:`~repro.obs.report.deterministic_view` masks.  See
:mod:`repro.obs.tracer` for the schema and DESIGN.md §6c for the full
contract.

Render, diff, export or live-watch a trace file with
``python -m repro.obs``.
"""

from repro.obs.export import (
    metrics_from_trace,
    openmetrics_name,
    to_openmetrics,
)
from repro.obs.health import health_events, health_summary
from repro.obs.rollup import RoundRollup, SpanSampler, summarize
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    TraceSink,
    truncate_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RUNTIME_PREFIX,
    Span,
    TRACE_SCHEMA,
    Tracer,
)
from repro.obs.report import (
    deterministic_view,
    diff_traces,
    format_report,
    load_trace,
    phase_summary,
    render_dashboard,
    rollup_rows,
    round_rows,
    trace_digest,
    validate_trace,
)

__all__ = [
    "RUNTIME_PREFIX",
    "RoundRollup",
    "SpanSampler",
    "JsonlSink",
    "MemorySink",
    "TraceSink",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "deterministic_view",
    "diff_traces",
    "format_report",
    "health_events",
    "health_summary",
    "load_trace",
    "metrics_from_trace",
    "openmetrics_name",
    "phase_summary",
    "render_dashboard",
    "rollup_rows",
    "round_rows",
    "summarize",
    "to_openmetrics",
    "trace_digest",
    "truncate_trace",
    "validate_trace",
]
