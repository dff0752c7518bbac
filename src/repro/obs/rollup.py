"""Per-round summaries: the span sampler and the round rollup.

At population scale a per-client span for every participant is the
observability layer's own memory/throughput bottleneck, so the tracer
head-samples those spans (:class:`SpanSampler`) and folds the unsampled
remainder into one exact ``round_rollup`` event per round
(:class:`RoundRollup`).  The rollup keeps the round's values — one
cohort's worth, so memory is O(cohort) and never grows with the run —
and summarises them exactly with :func:`summarize` when it is emitted.

Determinism: every structure here is a pure function of its input
*sequence*.  The trainer feeds deterministic quantities (relevance
scores, upload decisions) in participant order, so rollup ``attrs``
are identical across execution backends; wall-clock quantities
(compute durations) accumulate on the runtime side and are
emitted under the event's ``rt`` key, which the deterministic view
masks.  The sampling decision itself is a pure hash of
``(seed, round, client_index)`` — no RNG object, no state — so the
same clients are sampled on every backend and ``trace_digest`` stays a
pure function of the run at any sampling rate.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "RoundRollup",
    "SpanSampler",
    "summarize",
]


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Exact, key-stable summary of a value list.

    ``count``/``total``/``min``/``max``/``mean`` plus the ``p50``/
    ``p90``/``p99`` quantiles, linearly interpolated between the two
    nearest order statistics; ``None`` where an empty list has no
    value.  ``total`` is a left-to-right float sum — not ``sum()``,
    which compensates on Python 3.12+ — so it is bitwise a pure
    function of the list's order; ``mean`` is ``total / count``.
    """
    values = [float(value) for value in values]
    total = 0.0
    for value in values:
        total += value
    count = len(values)
    out: Dict[str, Any] = {
        "count": count,
        "total": total,
        "min": min(values) if values else None,
        "max": max(values) if values else None,
        "mean": total / count if count else None,
    }
    ordered = sorted(values)
    for p in (0.5, 0.9, 0.99):
        quantile = None
        if ordered:
            pos = p * (count - 1)
            lo = int(pos)
            hi = min(lo + 1, count - 1)
            quantile = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
        out[f"p{round(p * 100):d}"] = quantile
    return out


class SpanSampler:
    """Deterministic head-sampling of per-client spans.

    The keep/fold decision for ``(round, client_index)`` is a pure
    blake2b hash of ``(seed, round, client_index)`` mapped to [0, 1)
    and compared against ``rate`` — no RNG object, no mutable state —
    so every execution backend samples the same clients and a resumed
    run samples exactly as the uninterrupted one would have.

    ``rate=1.0`` keeps every span (the default, bit-compatible with
    pre-sampling traces); ``rate=0.0`` keeps none and leaves only the
    exact per-round rollups.
    """

    __slots__ = ("seed", "rate")

    def __init__(self, seed: int, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.seed = int(seed)
        self.rate = float(rate)

    def sampled(self, iteration: int, client_index: int) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        key = b"%d:%d:%d" % (self.seed, iteration, client_index)
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") < self.rate * 2.0**64

    def __repr__(self) -> str:
        return f"SpanSampler(seed={self.seed}, rate={self.rate})"


class RoundRollup:
    """Accumulates one round's per-client data into a single event.

    The trainer owns one instance per round and attaches it to the
    tracer; the executor feeds wall-clock task timings for *every*
    participant (sampled or not) via :meth:`observe_tasks_rt`, the
    trainer feeds the deterministic decision stream via
    :meth:`observe_decisions` (a cohort per call), and the finished
    accumulators are emitted as one ``round_rollup`` event —
    deterministic aggregates in ``attrs`` (:meth:`attrs`), runtime
    aggregates in ``rt`` (:meth:`rt`).
    """

    #: How many slowest clients the runtime side remembers.
    SLOWEST_K = 3

    def __init__(self, iteration: int) -> None:
        self.iteration = iteration
        # Deterministic side (participant order).
        self.scores: List[float] = []
        self.train_losses: List[float] = []
        self.n_participants = 0
        self.n_uploaded = 0
        self.n_forced = 0
        self.uploaded_bytes = 0
        self.status_bytes = 0
        self.layer_sign_agreement: Optional[List[float]] = None
        self.extra: Dict[str, Any] = {}
        # Runtime side (completion data replayed in participant order).
        self.compute: List[float] = []
        self._slowest: List[Tuple[float, int]] = []

    # -- deterministic feed ---------------------------------------------

    def observe_decisions(
        self, scores: Sequence[float], train_losses: Sequence[float], n_uploaded: int
    ) -> None:
        """A cohort's decide-half outcomes, in participant order."""
        self.n_participants += len(scores)
        self.scores.extend(scores)
        self.train_losses.extend(train_losses)
        self.n_uploaded += n_uploaded

    # -- runtime feed ----------------------------------------------------

    def observe_tasks_rt(
        self, client_indices: Sequence[int], durs: Sequence[float]
    ) -> None:
        """A cohort's client tasks' wall-clock costs (runtime side)."""
        self.compute.extend(durs)
        entries = [(float(d), int(i)) for d, i in zip(durs, client_indices)]
        self._slowest = heapq.nlargest(self.SLOWEST_K, self._slowest + entries)

    def slowest(self) -> List[Tuple[int, float]]:
        """``(client_index, duration)`` pairs, slowest first."""
        return [(index, dur) for dur, index in self._slowest]

    # -- event payloads --------------------------------------------------

    def attrs(self) -> Dict[str, Any]:
        """The deterministic half of the ``round_rollup`` event."""
        out: Dict[str, Any] = {
            "iteration": self.iteration,
            "n_participants": self.n_participants,
            "n_uploaded": self.n_uploaded,
            "n_forced": self.n_forced,
            "uploaded_bytes": self.uploaded_bytes,
            "status_bytes": self.status_bytes,
            "score": summarize(self.scores),
            "train_loss": summarize(self.train_losses),
        }
        if self.layer_sign_agreement is not None:
            out["layer_sign_agreement"] = list(self.layer_sign_agreement)
        out.update(self.extra)
        return out

    def rt(self) -> Dict[str, Any]:
        """The runtime half (masked by the deterministic view)."""
        return {
            "compute_s": summarize(self.compute),
            "slowest": [[index, dur] for index, dur in self.slowest()],
        }
