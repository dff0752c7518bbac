"""Export a trace's totals as OpenMetrics text.

:func:`metrics_from_trace` folds a ``repro-trace/v2`` event list into
the run's ``comm.*``/``async.*``/``store.*``/``ckpt.*``/``runtime.*``
totals; :func:`to_openmetrics` writes them out so they can leave the
process in a form other tooling understands: the OpenMetrics text
exposition format (Prometheus-compatible), with counters as
``<name>_total``, gauges as bare samples, histogram summaries as
``quantile``-labelled samples plus ``_count``/``_sum``, terminated by
``# EOF``.

``python -m repro.obs export trace.jsonl`` is the CLI entry point.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List

from repro.obs.rollup import summarize
from repro.obs.tracer import TRACE_SCHEMA
__all__ = [
    "metrics_from_trace",
    "openmetrics_name",
    "to_openmetrics",
]

#: OpenMetrics metric names: letters, digits, underscores and colons.
_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def openmetrics_name(name: str) -> str:
    """Sanitize a dotted metric name (``comm.uploads`` ->
    ``comm_uploads``) into the OpenMetrics charset."""
    sanitized = _NAME_BAD_CHARS.sub("_", name)
    if not sanitized or not _NAME_OK.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def metrics_from_trace(
    events: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The run's counters, gauges and summaries: one fold over its trace.

    Every number is read off events the run emits anyway:

    * ``comm.*`` — sums over the ``round_rollup`` events;
    * ``async.*`` — the ``dispatch`` and ``round_close`` spans (counts,
      their ``n_dropped``/``next_deferred``/``n_arrived`` attributes,
      the last ``virtual_time``, and an exact summary of every
      ``staleness``);
    * ``store.*`` — on store-backed runs (rollups carry a ``store``
      block), the participants of every ``round``/``dispatch`` span and
      the last rollup's ``shards_materialized``;
    * ``ckpt.saves`` — the ``ckpt`` spans; ``runtime.ckpt.*`` — the
      runtime point events of that name.

    A trace cut after round k (a killed or still-running run) yields the
    same names as the complete trace, with their values as of round k.
    A trace whose header names another schema raises ``ValueError``.
    """
    counts: Dict[str, int] = {}
    gauges: Dict[str, Any] = {}
    samples: Dict[str, List[float]] = {}
    participants = 0

    def add(name: str, delta: int = 1) -> None:
        counts[name] = counts.get(name, 0) + delta

    for event in events:
        name = event.get("name")
        attrs = event.get("attrs", {})
        if event.get("kind") == "header":
            if attrs.get("schema") != TRACE_SCHEMA:
                raise ValueError(
                    f"trace schema is {attrs.get('schema')!r}; totals are "
                    f"folded from {TRACE_SCHEMA} traces only"
                )
        elif name == "round_rollup":
            add("comm.uploads", attrs["n_uploaded"])
            add("comm.skips", attrs["n_participants"] - attrs["n_uploaded"])
            add("comm.uploaded_bytes", attrs["uploaded_bytes"])
            add("comm.status_bytes", attrs["status_bytes"])
            if "store" in attrs:
                counts["store.shards_materialized"] = attrs["store"][
                    "shards_materialized"
                ]
        elif name in ("round", "dispatch"):
            participants += attrs.get("n_participants", 0)
            if name == "dispatch":
                add("async.dispatches")
                add("async.drops", attrs["n_dropped"])
                add("async.deferred_dispatches", int(attrs["next_deferred"]))
                gauges["async.virtual_time"] = attrs["virtual_time"]
        elif name == "round_close":
            add("async.closes")
            add("async.arrivals", attrs["n_arrived"])
            samples.setdefault("async.staleness", []).append(
                float(attrs["staleness"])
            )
            gauges["async.virtual_time"] = attrs["virtual_time"]
        elif name == "ckpt":
            add("ckpt.saves")
        elif name == "runtime.ckpt":
            rt = event.get("rt", {})
            samples.setdefault("runtime.ckpt.save_s", []).append(rt["save_s"])
            gauges["runtime.ckpt.bytes"] = rt["bytes"]
    if "store.shards_materialized" in counts:  # a store-backed run
        counts["store.checkouts"] = counts["store.rows_written"] = participants
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, value in counts.items():
        metrics[name] = {"type": "counter", "value": value}
    for name, value in gauges.items():
        metrics[name] = {"type": "gauge", "value": value}
    for name, values in samples.items():
        metrics[name] = {"type": "histogram", **summarize(values)}
    return dict(sorted(metrics.items()))


def _format_value(value: Any) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_openmetrics(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Render final metric summaries as OpenMetrics exposition text.

    ``metrics`` maps dotted names to summary dicts (the shape of
    :func:`metrics_from_trace`).
    Families are name-sorted; the output always ends with ``# EOF``.
    """
    lines: List[str] = []
    for name in sorted(metrics):
        summary = metrics[name]
        om_name = openmetrics_name(name)
        metric_type = str(summary.get("type", "gauge"))
        if metric_type == "counter":
            lines.append(f"# TYPE {om_name} counter")
            value = summary.get("value")
            if value is not None:
                lines.append(f"{om_name}_total {_format_value(value)}")
        elif metric_type == "histogram":
            # Exact summaries map onto the OpenMetrics summary type.
            lines.append(f"# TYPE {om_name} summary")
            for key in sorted(summary):
                if not key.startswith("p") or not key[1:].isdigit():
                    continue
                if summary[key] is None:
                    continue
                quantile = int(key[1:]) / 100
                lines.append(
                    f'{om_name}{{quantile="{quantile:g}"}} '
                    f"{_format_value(summary[key])}"
                )
            lines.append(f"{om_name}_count {int(summary.get('count', 0))}")
            lines.append(
                f"{om_name}_sum {_format_value(summary.get('total', 0.0))}"
            )
        else:
            lines.append(f"# TYPE {om_name} gauge")
            value = summary.get("value")
            if value is not None:
                lines.append(f"{om_name} {_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"

