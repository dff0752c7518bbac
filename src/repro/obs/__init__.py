"""``repro.obs`` — zero-dependency tracing, metrics and profiling.

The observability layer of the reproduction: a :class:`Tracer` emits
nested spans (``run``/``round``/``broadcast``/``client_compute``/
``relevance_check``/``decide``/``aggregate``/``evaluate``) with
monotonic-clock durations, a :class:`MetricsRegistry` streams counters,
gauges and histograms, and pluggable sinks persist the event stream
(in-memory, JSON-lines).

Built to stay constant-memory at population scale: per-client spans are
head-sampled (:class:`SpanSampler`, rate ``FLConfig.trace_sample``)
with the unsampled remainder folded into exact per-round
``round_rollup`` events (:class:`RoundRollup`, quantiles via the P²
sketch in :class:`StreamingHistogram`); a :class:`HealthMonitor`
consumes the rollups online and flags stalls, dead cohorts, comm-ledger
drift and stragglers.  Final metric values export as OpenMetrics text
or JSONL snapshots (:mod:`repro.obs.export`); metric names are declared
centrally in :mod:`repro.obs.names`.

The central invariant is the *determinism contract*: event ordering and
payloads are a pure function of the run, identical across the serial
and batched execution backends; every wall-clock or
scheduling-dependent value is confined to the ``rt`` event attribute
and the ``runtime.*`` metric namespace, which
:func:`~repro.obs.report.deterministic_view` masks.  See
:mod:`repro.obs.tracer` for the schema and DESIGN.md §6c for the full
contract.

Render, diff, export or live-watch a trace file with
``python -m repro.obs``.
"""

from repro.obs.export import (
    EXPORT_SCHEMA,
    metrics_from_trace,
    openmetrics_name,
    to_jsonl_snapshot,
    to_openmetrics,
)
from repro.obs.health import (
    HealthMonitor,
    health_events,
    health_summary,
    render_dashboard,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    RUNTIME_PREFIX,
)
from repro.obs.names import METRIC_NAMES
from repro.obs.rollup import (
    P2Quantile,
    RoundRollup,
    SpanSampler,
    StreamingHistogram,
)
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    TraceSink,
    truncate_trace,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, TRACE_SCHEMA, Tracer
from repro.obs.report import (
    comm_totals,
    deterministic_view,
    diff_traces,
    format_report,
    load_trace,
    phase_summary,
    rollup_rows,
    round_rows,
    trace_digest,
    validate_trace,
)

__all__ = [
    "Counter",
    "EXPORT_SCHEMA",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "METRIC_NAMES",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "P2Quantile",
    "RUNTIME_PREFIX",
    "RoundRollup",
    "SpanSampler",
    "StreamingHistogram",
    "JsonlSink",
    "MemorySink",
    "TraceSink",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "comm_totals",
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
    "to_jsonl_snapshot",
    "to_openmetrics",
    "trace_digest",
    "truncate_trace",
    "validate_trace",
]
