"""Online run-health checks over per-round rollups.

A :class:`HealthMonitor` lives on the trainer when tracing is enabled.
Once per round it receives the finished rollup (deterministic ``attrs``
plus runtime ``rt``) together with the round's evaluation and
communication totals, and returns structured findings that the trainer
emits as trace events:

* ``health.dead_cohort`` — a round where no client chose to upload
  (every update fell below the relevance threshold; only forced
  uploads, if any, kept the round alive);
* ``health.non_finite`` — a NaN/inf training or evaluation quantity;
* ``health.stall`` — the evaluation metric has not improved by
  ``STALL_MIN_DELTA`` for ``STALL_PATIENCE`` consecutive evaluations;
* ``health.comm_drift`` — the bytes the ledger added this round
  disagree with the rollup's ``uploaded_bytes + status_bytes``, which
  the trainer computes separately (an accounting bug, not a run
  property);
* ``runtime.health.straggler`` — the slowest client task took at least
  ``STRAGGLER_FACTOR`` times the round's median compute time.

Naming is load-bearing: the first four findings are pure functions of
the run and keep the plain ``health.`` prefix, so they participate in
cross-backend digest equality.  Straggler detection depends on
wall-clock scheduling, so its events live under ``runtime.health.`` and
are dropped by the deterministic view along with every other
``runtime.*`` event — two backends may disagree about stragglers
without breaking ``trace_digest``.

The monitor's cursor (best metric seen, evaluations since improvement)
is tiny and rides in checkpoints (``manifest["health"]``) so a resumed
run reaches the same stall verdicts as an uninterrupted one.

The module also carries the read side: :func:`health_events` /
:func:`health_summary` over a loaded trace, and
:func:`render_dashboard`, the pure-ASCII screen behind
``python -m repro.obs watch``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.utils.tables import format_table

__all__ = [
    "HEALTH_PREFIX",
    "HealthMonitor",
    "RUNTIME_HEALTH_PREFIX",
    "health_events",
    "health_summary",
    "render_dashboard",
    "sparkline",
]

HEALTH_PREFIX = "health."
RUNTIME_HEALTH_PREFIX = "runtime.health."

#: A finding, ready for ``tracer.event(name, attrs=..., rt=...)``.
Finding = Tuple[str, Dict[str, Any], Optional[Dict[str, Any]]]


def _is_non_finite(value: Optional[float]) -> bool:
    return value is not None and not math.isfinite(value)


class HealthMonitor:
    """Streaming anomaly checks; one :meth:`observe_round` per round.

    Stateless between rounds except for the stall cursor, so memory is
    O(1) regardless of run length or population size.
    """

    #: Evaluations without a ``STALL_MIN_DELTA`` gain before a stall.
    STALL_PATIENCE = 5
    STALL_MIN_DELTA = 1e-4
    #: A straggler takes ``STRAGGLER_FACTOR`` x the median compute time,
    #: judged only in cohorts of at least ``STRAGGLER_MIN_CLIENTS``.
    STRAGGLER_FACTOR = 4.0
    STRAGGLER_MIN_CLIENTS = 8

    def __init__(self) -> None:
        # Stall cursor — the only cross-round state; checkpointed.
        self.best_metric: Optional[float] = None
        self.rounds_since_improvement = 0
        self.evals_seen = 0

    # -- per-round entry point ------------------------------------------

    def observe_round(
        self,
        attrs: Dict[str, Any],
        rt: Optional[Dict[str, Any]] = None,
        *,
        test_metric: Optional[float] = None,
        test_loss: Optional[float] = None,
        mean_train_loss: Optional[float] = None,
        ledger_round_bytes: Optional[int] = None,
    ) -> List[Finding]:
        """Check one finished round; returns findings in a fixed order.

        ``attrs``/``rt`` are the round rollup's two halves;
        ``ledger_round_bytes`` is the ledger's byte total minus its
        total after the previous round.  Check
        order (dead cohort, non-finite, stall, comm drift, straggler)
        is fixed so the emitted event sequence stays deterministic.
        """
        iteration = attrs.get("iteration")
        findings: List[Finding] = []

        n_participants = int(attrs.get("n_participants", 0))
        organic = int(attrs.get("n_uploaded", 0)) - int(
            attrs.get("n_forced", 0)
        )
        if n_participants > 0 and organic <= 0:
            findings.append(
                (
                    "health.dead_cohort",
                    {
                        "iteration": iteration,
                        "n_participants": n_participants,
                        "n_forced": int(attrs.get("n_forced", 0)),
                    },
                    None,
                )
            )

        non_finite = {
            name: repr(value)
            for name, value in (
                ("mean_train_loss", mean_train_loss),
                ("test_loss", test_loss),
                ("test_metric", test_metric),
            )
            if _is_non_finite(value)
        }
        if non_finite:
            findings.append(
                (
                    "health.non_finite",
                    {"iteration": iteration, "fields": non_finite},
                    None,
                )
            )

        if test_metric is not None and math.isfinite(test_metric):
            self.evals_seen += 1
            if (
                self.best_metric is None
                or test_metric > self.best_metric + self.STALL_MIN_DELTA
            ):
                self.best_metric = float(test_metric)
                self.rounds_since_improvement = 0
            else:
                self.rounds_since_improvement += 1
            if self.rounds_since_improvement >= self.STALL_PATIENCE:
                findings.append(
                    (
                        "health.stall",
                        {
                            "iteration": iteration,
                            "rounds_since_improvement": (
                                self.rounds_since_improvement
                            ),
                            "best_metric": self.best_metric,
                        },
                        None,
                    )
                )

        rollup_bytes = int(attrs.get("uploaded_bytes", 0)) + int(
            attrs.get("status_bytes", 0)
        )
        if ledger_round_bytes is not None and ledger_round_bytes != rollup_bytes:
            findings.append(
                (
                    "health.comm_drift",
                    {
                        "iteration": iteration,
                        "ledger_bytes": int(ledger_round_bytes),
                        "rollup_bytes": rollup_bytes,
                    },
                    None,
                )
            )

        compute = (rt or {}).get("compute_s", {})
        p50 = compute.get("p50")
        worst = compute.get("max")
        if (
            int(compute.get("count", 0)) >= self.STRAGGLER_MIN_CLIENTS
            and p50
            and worst is not None
            and worst >= self.STRAGGLER_FACTOR * p50
        ):
            # Wall-clock verdict: runtime.* name, payload in rt, so the
            # deterministic view drops the whole event.
            findings.append(
                (
                    "runtime.health.straggler",
                    {"iteration": iteration},
                    {
                        "max_s": worst,
                        "p50_s": p50,
                        "factor": worst / p50,
                        "slowest": (rt or {}).get("slowest", []),
                    },
                )
            )

        return findings

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The stall cursor; everything else is per-round scratch."""
        return {
            "best_metric": self.best_metric,
            "rounds_since_improvement": self.rounds_since_improvement,
            "evals_seen": self.evals_seen,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        best = state["best_metric"]
        self.best_metric = None if best is None else float(best)
        self.rounds_since_improvement = int(state["rounds_since_improvement"])
        self.evals_seen = int(state["evals_seen"])


# -- trace read side ----------------------------------------------------


def health_events(
    events: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Every health finding (deterministic and runtime) in a trace."""
    return [
        event
        for event in events
        if str(event.get("name", "")).startswith(
            (HEALTH_PREFIX, RUNTIME_HEALTH_PREFIX)
        )
    ]


def health_summary(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """``{finding name: count}`` over a trace, name-sorted."""
    counts: Dict[str, int] = {}
    for event in health_events(events):
        name = str(event["name"])
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


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


def _summary_field(event: Dict[str, Any], block: str, key: str) -> Any:
    return event.get("attrs", {}).get(block, {}).get(key)


def render_dashboard(events: Sequence[Dict[str, Any]]) -> str:
    """The ``python -m repro.obs watch`` screen, as one ASCII string.

    Three sections built from a (possibly still-growing) trace: a
    per-round rollup table, trend sparklines, and the health findings.
    """
    rollups = [e for e in events if e.get("name") == "round_rollup"]
    parts: List[str] = []

    rows = []
    for event in rollups[-12:]:
        attrs = event.get("attrs", {})
        rt = event.get("rt", {})
        compute = rt.get("compute_s", {})
        rows.append(
            [
                attrs.get("iteration"),
                attrs.get("n_participants"),
                attrs.get("n_uploaded"),
                attrs.get("n_forced"),
                _summary_field(event, "score", "p50"),
                _summary_field(event, "train_loss", "p50"),
                compute.get("p50"),
                compute.get("max"),
            ]
        )
    if rows:
        parts.append(
            format_table(
                [
                    "round",
                    "clients",
                    "uploads",
                    "forced",
                    "score_p50",
                    "loss_p50",
                    "compute_p50",
                    "compute_max",
                ],
                rows,
                title=f"round rollups (last {len(rows)} of {len(rollups)})",
            )
        )
    else:
        parts.append("no round_rollup events yet")

    if rollups:
        losses = [_summary_field(e, "train_loss", "p50") for e in rollups]
        uploads = [
            (
                e["attrs"].get("n_uploaded", 0)
                / max(1, e["attrs"].get("n_participants", 0))
            )
            for e in rollups
        ]
        parts.append(
            "trend  loss_p50  [{}]\n"
            "trend  upload%   [{}]".format(
                sparkline(losses), sparkline(uploads)
            )
        )

    findings = health_events(events)
    if findings:
        finding_rows = []
        for event in findings[-10:]:
            attrs = dict(event.get("attrs", {}))
            iteration = attrs.pop("iteration", None)
            detail = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if str(event["name"]).startswith(RUNTIME_HEALTH_PREFIX):
                rt = event.get("rt", {})
                detail = ", ".join(
                    f"{k}={rt[k]}" for k in ("factor", "max_s") if k in rt
                )
            finding_rows.append([event["name"], iteration, detail])
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
