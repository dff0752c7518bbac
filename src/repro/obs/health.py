"""Run-health findings, folded from a trace's per-round rollups.

Nothing writes a finding during the run: :func:`health_events` reads
them off the ``round_rollup`` events and ``evaluate`` spans every traced
run emits anyway, the way :func:`~repro.obs.export.metrics_from_trace`
reads the run's totals.  One pass, in trace order:

* ``health.dead_cohort`` — a round where no client chose to upload
  (every update fell below the relevance threshold; only forced
  uploads, if any, kept the round alive);
* ``health.non_finite`` — a NaN/inf ``test_loss`` or ``test_metric``
  on the round's ``evaluate`` span (a non-finite training loss stops
  the run before its rollup is written);
* ``health.stall`` — the evaluation metric has not improved by
  ``STALL_MIN_DELTA`` for ``STALL_PATIENCE`` consecutive evaluations;
* ``runtime.health.straggler`` — the slowest client task took at least
  ``STRAGGLER_FACTOR`` times the round's median compute time.

Naming is load-bearing: the first three findings are pure functions of
the rollups' deterministic ``attrs`` and the evaluation results, so the
fold reaches them from the deterministic view too.  Straggler detection
reads the rollup's wall-clock ``rt`` block, so it is named under
``runtime.health.`` and the deterministic view (which strips ``rt``)
never yields it — two backends may disagree about stragglers.

A killed-and-resumed run needs no cursor of its own: its continued
trace is the uninterrupted run's, so the fold reaches the same
findings.  ``health.*`` events that older traces carry are not read.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "RUNTIME_HEALTH_PREFIX",
    "STALL_MIN_DELTA",
    "STALL_PATIENCE",
    "STRAGGLER_FACTOR",
    "STRAGGLER_MIN_CLIENTS",
    "health_events",
    "health_summary",
]

RUNTIME_HEALTH_PREFIX = "runtime.health."

#: Evaluations without a ``STALL_MIN_DELTA`` gain before a stall.
STALL_PATIENCE = 5
STALL_MIN_DELTA = 1e-4
#: A straggler takes ``STRAGGLER_FACTOR`` x the median compute time,
#: judged only in cohorts of at least ``STRAGGLER_MIN_CLIENTS``.
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_CLIENTS = 8


def _finding(
    name: str, attrs: Dict[str, Any], rt: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    return {"name": name, "attrs": attrs, "rt": rt or {}}


def health_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every health finding of the run ``events`` trace, in round order.

    Each finding is a ``{"name", "attrs", "rt"}`` dict; within a round
    they come as dead cohort, non-finite, stall, straggler.  A trace cut
    after round k yields the findings of rounds 1..k.
    """
    findings: List[Dict[str, Any]] = []
    evaluation: Dict[str, Any] = {}
    best: Optional[float] = None
    since_improvement = 0
    for event in events:
        name = event.get("name")
        if name == "evaluate":
            evaluation = event.get("attrs", {})
            continue
        if name != "round_rollup":
            continue
        attrs = event.get("attrs", {})
        iteration = attrs.get("iteration")
        if evaluation.get("iteration") != iteration:
            evaluation = {}

        n_participants = int(attrs.get("n_participants", 0))
        n_forced = int(attrs.get("n_forced", 0))
        if n_participants > 0 and int(attrs.get("n_uploaded", 0)) <= n_forced:
            findings.append(_finding(
                "health.dead_cohort",
                {
                    "iteration": iteration,
                    "n_participants": n_participants,
                    "n_forced": n_forced,
                },
            ))

        non_finite = {
            key: repr(evaluation[key])
            for key in ("test_loss", "test_metric")
            if evaluation.get(key) is not None
            and not math.isfinite(evaluation[key])
        }
        if non_finite:
            findings.append(_finding(
                "health.non_finite", {"iteration": iteration, "fields": non_finite}
            ))

        metric = evaluation.get("test_metric")
        if metric is not None and math.isfinite(metric):
            if best is None or metric > best + STALL_MIN_DELTA:
                best = float(metric)
                since_improvement = 0
            else:
                since_improvement += 1
            if since_improvement >= STALL_PATIENCE:
                findings.append(_finding(
                    "health.stall",
                    {
                        "iteration": iteration,
                        "rounds_since_improvement": since_improvement,
                        "best_metric": best,
                    },
                ))

        rt = event.get("rt", {})
        compute = rt.get("compute_s", {})
        p50, worst = compute.get("p50"), compute.get("max")
        if (
            int(compute.get("count", 0)) >= STRAGGLER_MIN_CLIENTS
            and p50
            and worst is not None
            and worst >= STRAGGLER_FACTOR * p50
        ):
            findings.append(_finding(
                "runtime.health.straggler",
                {"iteration": iteration},
                {
                    "max_s": worst,
                    "p50_s": p50,
                    "factor": worst / p50,
                    "slowest": rt.get("slowest", []),
                },
            ))
    return findings


def health_summary(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """``{finding name: count}`` over a trace, name-sorted."""
    counts: Dict[str, int] = {}
    for finding in health_events(events):
        name = finding["name"]
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))
