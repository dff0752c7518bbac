"""``python -m repro.obs`` — render, validate, export and watch traces.

    python -m repro.obs report trace.jsonl [--history run.jsonl]
    python -m repro.obs validate trace.jsonl
    python -m repro.obs digest trace.jsonl
    python -m repro.obs diff a.jsonl b.jsonl
    python -m repro.obs export trace.jsonl [--out metrics.txt]
    python -m repro.obs watch trace.jsonl [--follow] [--interval 2.0]

``report`` prints the per-phase time/bytes breakdown; ``diff`` compares
two traces under the deterministic view (timestamps and other runtime
data masked) and exits non-zero when the runs diverged.  ``export``
folds the trace into the run's totals and writes them as OpenMetrics
text; ``watch`` renders the live health
dashboard, re-reading the growing trace file under ``--follow``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.export import metrics_from_trace, to_openmetrics
from repro.obs.report import (
    diff_traces,
    format_report,
    load_trace,
    render_dashboard,
    trace_digest,
    validate_trace,
)
from repro.obs.tracer import TRACE_SCHEMA

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=f"inspect {TRACE_SCHEMA} JSONL trace files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="per-phase time/bytes breakdown")
    report.add_argument("trace", type=Path)
    report.add_argument(
        "--history",
        type=Path,
        default=None,
        help="RunHistory JSONL to join round records by iteration",
    )

    validate = sub.add_parser("validate", help="schema-check a trace file")
    validate.add_argument("trace", type=Path)

    digest = sub.add_parser(
        "digest", help="SHA-256 of the deterministic view"
    )
    digest.add_argument("trace", type=Path)

    diff = sub.add_parser(
        "diff", help="compare two traces modulo runtime data"
    )
    diff.add_argument("a", type=Path)
    diff.add_argument("b", type=Path)

    export = sub.add_parser(
        "export", help="the trace's totals as OpenMetrics text"
    )
    export.add_argument("trace", type=Path)
    export.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write to this file instead of stdout",
    )

    watch = sub.add_parser(
        "watch", help="ASCII health dashboard over a (growing) trace"
    )
    watch.add_argument("trace", type=Path)
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep re-reading the trace until interrupted",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes under --follow (default: 2)",
    )
    return parser


def _run_export(args: argparse.Namespace) -> int:
    text = to_openmetrics(metrics_from_trace(load_trace(args.trace)))
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


def _load_loose(path: Path):
    """Like load_trace, but a half-written tail (a live run mid-write)
    is skipped instead of failing the whole refresh."""
    import json

    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return events


def _run_watch(args: argparse.Namespace) -> int:
    while True:
        events = _load_loose(args.trace)
        print(f"== {args.trace} — {len(events)} events ==")
        print(render_dashboard(events))
        if not args.follow:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            events = load_trace(args.trace)
            history = None
            if args.history is not None:
                from repro.fl.history import RunHistory

                history = RunHistory.from_jsonl(args.history)
            print(format_report(events, history=history))
            return 0
        if args.command == "validate":
            problems = validate_trace(load_trace(args.trace))
            if problems:
                for problem in problems:
                    print(problem, file=sys.stderr)
                return 1
            print(f"{args.trace}: valid {TRACE_SCHEMA}")
            return 0
        if args.command == "digest":
            print(trace_digest(load_trace(args.trace)))
            return 0
        if args.command == "diff":
            differences = diff_traces(load_trace(args.a), load_trace(args.b))
            if differences:
                for difference in differences:
                    print(difference)
                return 1
            print("traces are equivalent modulo runtime data")
            return 0
        if args.command == "export":
            return _run_export(args)
        if args.command == "watch":
            return _run_watch(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
