"""Output formatters for lint results (text, JSON)."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Optional, Sequence

from repro.lint.engine import Violation


def format_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col: severity[rule] message`` line per finding."""
    lines = [v.format() for v in violations]
    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors
    lines.append(
        f"{len(violations)} violation(s): {errors} error(s), "
        f"{warnings} warning(s)"
    )
    return "\n".join(lines)


def summarize(violations: Sequence[Violation]) -> Dict[str, object]:
    """Machine-readable summary for the JSON output."""
    by_rule = Counter(v.rule for v in violations)
    return {
        "total": len(violations),
        "errors": sum(1 for v in violations if v.severity == "error"),
        "warnings": sum(1 for v in violations if v.severity == "warning"),
        "by_rule": dict(sorted(by_rule.items())),
    }


def format_json(
    violations: Sequence[Violation],
    stats: Optional[Dict[str, object]] = None,
) -> str:
    """JSON payload; ``stats`` adds an ``analysis`` block (file count)."""
    payload = {
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "severity": v.severity,
                "message": v.message,
            }
            for v in violations
        ],
        "summary": summarize(violations),
    }
    if stats is not None:
        payload["analysis"] = stats
    return json.dumps(payload, indent=2, sort_keys=True)


__all__ = ["format_json", "format_text", "summarize"]
