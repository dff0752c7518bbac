"""Read, validate, diff and summarise ``repro-trace/v2`` files.

The functions here are the measurement side of the observability layer:
``python -m repro.obs`` renders a per-phase time/bytes breakdown from
a trace (and, under ``watch``, the :func:`render_dashboard` screen),
and the deterministic view (+ digest) is how the cross-backend
equivalence contract is checked — two traces of the same run under
different execution backends must be identical after
:func:`deterministic_view`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.export import metrics_from_trace
from repro.obs.health import RUNTIME_HEALTH_PREFIX, health_events, health_summary
from repro.obs.tracer import RUNTIME_PREFIX, TRACE_SCHEMA
from repro.utils.tables import format_table

__all__ = [
    "deterministic_view",
    "diff_traces",
    "format_report",
    "load_trace",
    "phase_summary",
    "render_dashboard",
    "rollup_rows",
    "round_rows",
    "sparkline",
    "trace_digest",
    "validate_trace",
]

_KINDS = ("header", "span", "point")


def load_trace(source: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a ``.jsonl`` trace file into its event list."""
    events = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source}:{lineno}: not JSON: {exc}") from exc
    return events


def validate_trace(events: List[Dict[str, Any]]) -> List[str]:
    """Schema-check an event list; returns problems (empty = valid)."""
    problems: List[str] = []
    if not events:
        return ["trace is empty"]
    head = events[0]
    if head.get("kind") != "header":
        problems.append("first event is not a header")
    elif head.get("attrs", {}).get("schema") != TRACE_SCHEMA:
        problems.append(
            f"header schema is {head.get('attrs', {}).get('schema')!r}, "
            f"expected {TRACE_SCHEMA!r}"
        )
    seen_ids = set()
    prev_seq = -1
    for i, event in enumerate(events):
        where = f"event {i}"
        kind = event.get("kind")
        if kind not in _KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= prev_seq:
            problems.append(f"{where}: seq {seq!r} not strictly increasing")
        else:
            prev_seq = seq
        if not isinstance(event.get("attrs"), dict):
            problems.append(f"{where}: attrs is not a dict")
        if not isinstance(event.get("rt"), dict):
            problems.append(f"{where}: rt is not a dict")
        if kind == "span":
            span_id = event.get("id")
            if not isinstance(span_id, int):
                problems.append(f"{where}: span without integer id")
            elif span_id in seen_ids:
                problems.append(f"{where}: duplicate span id {span_id}")
            else:
                seen_ids.add(span_id)
            dur = event.get("rt", {}).get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: span rt.dur {dur!r} invalid")
        if kind in ("span", "point"):
            parent = event.get("parent")
            if parent is not None and not isinstance(parent, int):
                problems.append(f"{where}: parent {parent!r} invalid")
    # Parents must reference real span ids.  A parent may legitimately
    # be emitted *after* its children (spans emit on close), so resolve
    # against the full id set.
    all_ids = {e["id"] for e in events if e.get("kind") == "span"}
    for i, event in enumerate(events):
        parent = event.get("parent")
        if parent is not None and parent not in all_ids:
            problems.append(f"event {i}: parent {parent} is not a span id")
    return problems


def deterministic_view(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The backend-invariant projection of a trace.

    Drops ``runtime.*`` events, then strips ``rt`` (timestamps,
    durations, workers, backend) and ``seq`` (renumbered implicitly by
    list order) from what remains.  Two traces of the same run under
    any execution backend are equal under this view.
    """
    return [
        {k: v for k, v in event.items() if k not in ("rt", "seq")}
        for event in events
        if not str(event.get("name", "")).startswith(RUNTIME_PREFIX)
    ]


def trace_digest(events: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over the deterministic view (canonical JSON)."""
    canonical = json.dumps(
        deterministic_view(events), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def diff_traces(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> List[str]:
    """Compare two traces under the deterministic view.

    Returns human-readable differences (empty = equivalent runs).
    """
    va, vb = deterministic_view(a), deterministic_view(b)
    differences: List[str] = []
    if len(va) != len(vb):
        differences.append(
            f"event counts differ: {len(va)} vs {len(vb)} (after masking)"
        )
    for i, (ea, eb) in enumerate(zip(va, vb)):
        if ea != eb:
            differences.append(
                f"first divergence at masked event {i}: "
                f"{json.dumps(ea, sort_keys=True)} != "
                f"{json.dumps(eb, sort_keys=True)}"
            )
            break
    return differences


def phase_summary(events: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span-name aggregates: count, total/mean/max duration (s)."""
    phases: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("kind") != "span":
            continue
        dur = float(event.get("rt", {}).get("dur", 0.0))
        entry = phases.setdefault(
            event["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += dur
        entry["max_s"] = max(entry["max_s"], dur)
    for entry in phases.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return phases


def _round_ancestor(
    event: Dict[str, Any], by_id: Dict[int, Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    seen = set()
    current = event
    while True:
        parent = current.get("parent")
        if parent is None or parent in seen or parent not in by_id:
            return None
        seen.add(parent)
        current = by_id[parent]
        if current.get("name") == "round":
            return current


def round_rows(
    events: List[Dict[str, Any]],
    history: Optional[Iterable] = None,
) -> List[Dict[str, Any]]:
    """One row per round span: wall time plus per-phase child sums.

    ``history`` (an iterable of
    :class:`~repro.fl.history.RoundRecord`-likes, e.g. loaded via
    ``RunHistory.from_jsonl``) is joined by iteration to pull in the
    round's upload count and byte totals.
    """
    spans = [e for e in events if e.get("kind") == "span"]
    by_id = {e["id"]: e for e in spans}
    records = {}
    if history is not None:
        records = {r.iteration: r for r in history}
    rows: Dict[int, Dict[str, Any]] = {}
    for span in spans:
        if span["name"] == "round":
            iteration = span.get("attrs", {}).get("iteration")
            rows[span["id"]] = {
                "iteration": iteration,
                "round_s": float(span["rt"].get("dur", 0.0)),
                "client_compute_s": 0.0,
                "decide_s": 0.0,
                "aggregate_s": 0.0,
                "evaluate_s": 0.0,
                "broadcast_s": 0.0,
            }
    for span in spans:
        key = f"{span['name']}_s"
        owner = _round_ancestor(span, by_id)
        if owner is None or owner["id"] not in rows:
            continue
        row = rows[owner["id"]]
        if key in row and span["name"] != "round":
            row[key] += float(span["rt"].get("dur", 0.0))
    ordered = sorted(rows.values(), key=lambda r: (r["iteration"] is None, r["iteration"]))
    for row in ordered:
        record = records.get(row["iteration"])
        if record is not None:
            row["n_uploaded"] = record.n_uploaded
            row["total_bytes"] = record.total_bytes
    return ordered


def rollup_rows(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One flat row per ``round_rollup`` event, for tables.

    Pulls the headline numbers out of the nested summaries: cohort and
    upload counts plus the p50s of relevance score, train loss and
    (runtime side) client compute time.
    """
    rows: List[Dict[str, Any]] = []
    for event in events:
        if event.get("name") != "round_rollup":
            continue
        attrs = event.get("attrs", {})
        compute = event.get("rt", {}).get("compute_s", {})
        rows.append(
            {
                "iteration": attrs.get("iteration"),
                "n_participants": attrs.get("n_participants"),
                "n_uploaded": attrs.get("n_uploaded"),
                "n_forced": attrs.get("n_forced"),
                "uploaded_bytes": attrs.get("uploaded_bytes"),
                "score_p50": attrs.get("score", {}).get("p50"),
                "train_loss_p50": attrs.get("train_loss", {}).get("p50"),
                "compute_p50_s": compute.get("p50"),
                "compute_max_s": compute.get("max"),
            }
        )
    return rows


def format_report(
    events: List[Dict[str, Any]],
    history: Optional[Iterable] = None,
) -> str:
    """The human-readable breakdown behind ``python -m repro.obs``."""
    parts: List[str] = []
    phases = phase_summary(events)
    parts.append(
        format_table(
            ["phase", "spans", "total_s", "mean_ms", "max_ms"],
            [
                [
                    name,
                    int(entry["count"]),
                    entry["total_s"],
                    entry["mean_s"] * 1e3,
                    entry["max_s"] * 1e3,
                ]
                for name, entry in sorted(phases.items())
            ],
            title="per-phase wall time",
        )
    )
    rows = round_rows(events, history=history)
    if rows:
        headers = ["iter", "round_s", "broadcast_s", "client_compute_s",
                   "decide_s", "aggregate_s", "evaluate_s"]
        extra = [k for k in ("n_uploaded", "total_bytes") if k in rows[0]]
        parts.append(
            format_table(
                headers + extra,
                [
                    [r["iteration"], r["round_s"], r["broadcast_s"],
                     r["client_compute_s"], r["decide_s"], r["aggregate_s"],
                     r["evaluate_s"]] + [r.get(k, "") for k in extra]
                    for r in rows
                ],
                title="per-round breakdown",
            )
        )
    totals = [
        [name, summary["value"]]
        for name, summary in metrics_from_trace(events).items()
        if "value" in summary and not name.startswith(RUNTIME_PREFIX)
    ]
    if totals:
        parts.append(
            format_table(["metric", "total"], totals, title="run totals")
        )
    rollups = rollup_rows(events)
    if rollups:
        keys = list(rollups[0].keys())
        parts.append(
            format_table(
                keys,
                [[row.get(k, "") for k in keys] for row in rollups],
                title="per-round rollups",
            )
        )
    findings = health_summary(events)
    if findings:
        parts.append(
            format_table(
                ["finding", "rounds"],
                [[name, count] for name, count in findings.items()],
                title="health findings",
            )
        )
    errors = [e for e in events if e.get("kind") == "point"
              and e.get("name") == "client_error"]
    if errors:
        parts.append(
            format_table(
                ["client", "iteration", "error", "elapsed_s"],
                [
                    [e["attrs"].get("client_id"), e["attrs"].get("iteration"),
                     e["attrs"].get("error"),
                     e.get("rt", {}).get("elapsed", "")]
                    for e in errors
                ],
                title="client failures",
            )
        )
    return "\n\n".join(parts)


#: ASCII intensity ramp for :func:`sparkline` (space = lowest).
_SPARK_CHARS = " .:-=+*#@"


def sparkline(values: Sequence[Optional[float]], width: int = 40) -> str:
    """A pure-ASCII sparkline; ``None`` gaps render as ``?``."""
    points = list(values)[-width:]
    finite = [v for v in points if v is not None and math.isfinite(v)]
    if not finite:
        return "?" * len(points)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in points:
        if v is None or not math.isfinite(v):
            out.append("?")
            continue
        frac = 0.5 if span == 0 else (v - lo) / span
        out.append(_SPARK_CHARS[round(frac * (len(_SPARK_CHARS) - 1))])
    return "".join(out)


def render_dashboard(events: Sequence[Dict[str, Any]]) -> str:
    """The ``python -m repro.obs watch`` screen, as one ASCII string.

    Three sections built from a (possibly still-growing) trace: the
    last rollup rows (:func:`rollup_rows`), trend sparklines, and the
    health findings folded from the rollups.
    """
    rows = rollup_rows(events)
    parts: List[str] = []
    if rows:
        keys = list(rows[0])
        shown = rows[-12:]
        parts.append(
            format_table(
                keys,
                [[row[k] for k in keys] for row in shown],
                title=f"round rollups (last {len(shown)} of {len(rows)})",
            )
        )
        losses = [row["train_loss_p50"] for row in rows]
        uploads = [
            row["n_uploaded"] / max(1, row["n_participants"]) for row in rows
        ]
        parts.append(
            "trend  loss_p50  [{}]\n"
            "trend  upload%   [{}]".format(
                sparkline(losses), sparkline(uploads)
            )
        )
    else:
        parts.append("no round_rollup events yet")

    findings = health_events(events)
    if findings:
        finding_rows = []
        for finding in findings[-10:]:
            attrs = dict(finding["attrs"])
            iteration = attrs.pop("iteration", None)
            detail = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if finding["name"].startswith(RUNTIME_HEALTH_PREFIX):
                rt = finding["rt"]
                detail = ", ".join(
                    f"{k}={rt[k]}" for k in ("factor", "max_s") if k in rt
                )
            finding_rows.append([finding["name"], iteration, detail])
        parts.append(
            format_table(
                ["finding", "round", "detail"],
                finding_rows,
                title=f"health findings ({len(findings)} total)",
            )
        )
    else:
        parts.append("health: no findings")

    return "\n\n".join(parts)
