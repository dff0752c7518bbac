"""Constant-memory rollups: streaming quantiles and per-round summaries.

At population scale a per-client span for every participant is the
observability layer's own memory/throughput bottleneck, so the tracer
head-samples those spans (:class:`SpanSampler`) and folds the unsampled
remainder into one exact ``round_rollup`` event per round
(:class:`RoundRollup`).  The quantile summaries inside the rollup come
from :class:`StreamingHistogram` — a bounded sketch (count/total/
min/max plus P² streaming quantile estimators for p50/p90/p99) whose
state is a fixed handful of floats regardless of how many values it
has absorbed.

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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "P2Quantile",
    "RoundRollup",
    "SpanSampler",
    "StreamingHistogram",
]


class P2Quantile:
    """The P² streaming quantile estimator (Jain & Chlamtac, 1985).

    Tracks one quantile ``p`` with five markers — O(1) memory, O(1)
    update — and is deterministic for a given observation sequence,
    which is what lets quantile summaries ride inside deterministic
    rollup events.  Exact for the first five observations; a parabolic
    (falling back to linear) marker adjustment thereafter.
    """

    __slots__ = ("p", "count", "_buffer", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._buffer: List[float] = []
        self._q: List[float] = []
        self._n: List[int] = []
        self._np: List[float] = []
        # Desired-position increments are a pure function of p; this is
        # the per-observe hot path, so build them once.
        self._dn = (0.0, p / 2, p, (1 + p) / 2, 1.0)  # ckpt: transient — pure function of p

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._buffer.append(value)
            if self.count == 5:
                # Markers take over from here; the five-value buffer is
                # kept so value() stays exact until the sixth sample.
                self._q = sorted(self._buffer)
                self._n = [0, 1, 2, 3, 4]
                p = self.p
                self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
            return
        q, n, np_ = self._q, self._n, self._np
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if value >= q[i]:
                    k = i
        for i in range(k + 1, 5):
            n[i] += 1
        dn = self._dn
        # np_[0] += 0.0 is the identity; skip it.
        np_[1] += dn[1]
        np_[2] += dn[2]
        np_[3] += dn[3]
        np_[4] += 1.0
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (
                d <= -1 and n[i - 1] - n[i] < -1
            ):
                step = 1 if d >= 1 else -1
                if q[i - 1] == q[i + 1]:
                    # Degenerate neighborhood (constant stream): both
                    # the parabolic and linear formulas reduce to
                    # q[i] + 0.0, so only the marker position moves.
                    # Worth special-casing — a constant stream hits
                    # this on every observe.
                    q[i] = q[i] + 0.0
                    n[i] += step
                    continue
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate; exact below six observations, else marker 3."""
        if self.count == 0:
            return None
        if self.count <= 5:
            ordered = sorted(self._buffer)
            # Nearest-rank interpolation over the exact small sample.
            pos = self.p * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
        return self._q[2]

    def state_dict(self) -> Dict[str, Any]:
        return {
            "p": self.p,
            "count": self.count,
            "buffer": list(self._buffer),
            "q": list(self._q),
            "n": list(self._n),
            "np": list(self._np),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if float(state["p"]) != self.p:
            raise ValueError(
                f"estimator tracks p={self.p}, state is for p={state['p']}"
            )
        self.count = int(state["count"])
        self._buffer = [float(v) for v in state["buffer"]]
        self._q = [float(v) for v in state["q"]]
        self._n = [int(v) for v in state["n"]]
        self._np = [float(v) for v in state["np"]]


class StreamingHistogram:
    """Bounded summary of a value stream: moments plus quantiles.

    The constant-memory replacement for retaining raw observations:
    count/total/min/max exactly, p50/p90/p99 quantiles.  Short streams
    (up to :data:`SPILL_AT` values — every per-round rollup at sane
    cohort sizes) stay in an exact buffer whose ``observe`` is one
    append, which keeps the tracing hot path off the P² marker
    arithmetic; a stream that outgrows the buffer *spills*: the
    buffered values feed the :class:`P2Quantile` estimators in arrival
    order (so the estimator state is bitwise what always-streaming
    would have produced) and subsequent observations stream directly.
    Memory is bounded by ``SPILL_AT`` floats either way.

    State round-trips exactly through
    :meth:`state_dict`/:meth:`load_state_dict`, so a checkpointed run
    resumes the sequence bitwise.
    """

    QUANTILES = (0.5, 0.9, 0.99)

    #: Buffer size at which exact retention hands over to P² sketches.
    SPILL_AT = 512

    __slots__ = (
        "count", "total", "min", "max", "_estimators", "_est_seq",
        "_buffer",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._estimators = {p: P2Quantile(p) for p in self.QUANTILES}
        # Hot-path alias: iterating a tuple beats a dict view per call.
        self._est_seq = tuple(self._estimators.values())  # ckpt: transient — alias of _estimators
        self._buffer: Optional[List[float]] = []

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Absorb ``values`` in order, to the state of as many ``observe``
        calls: the float total is not re-associated, and a batch crossing
        :data:`SPILL_AT` replays in arrival order like any spill."""
        values = [float(value) for value in values]
        total, low, high = self.total, self.min, self.max
        for value in values:
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        self.count += len(values)
        self.total, self.min, self.max = total, low, high
        buffer = self._buffer
        if buffer is not None:
            buffer.extend(values)
            if len(buffer) >= self.SPILL_AT:
                self._spill()
            return
        for value in values:
            for estimator in self._est_seq:
                estimator.observe(value)

    def _spill(self) -> None:
        """Replay the exact buffer into the P² estimators, in order."""
        for value in self._buffer:
            for estimator in self._est_seq:
                estimator.observe(value)
        self._buffer = None

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, p: float) -> Optional[float]:
        p = float(p)
        if self._buffer is not None:
            if not self._buffer:
                return None
            # Exact, from the sorted buffer — same interpolation the
            # P² estimator uses for its own small-sample phase.
            ordered = sorted(self._buffer)
            pos = self._estimators[p].p * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
        return self._estimators[p].value()

    def summary(self) -> Dict[str, Any]:
        """Key-stable summary dict (``p50``/``p90``/``p99`` labels)."""
        out: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for p in sorted(self._estimators):
            out[f"p{round(p * 100):d}"] = self.quantile(p)
        return out

    def state_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buffer": None if self._buffer is None else list(self._buffer),
            "quantiles": {
                str(p): estimator.state_dict()
                for p, estimator in self._estimators.items()
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.count = int(state["count"])
        self.total = float(state["total"])
        self.min = state["min"]
        self.max = state["max"]
        saved = state.get("quantiles", {})
        if set(saved) != {str(p) for p in self._estimators}:
            raise ValueError(
                f"histogram tracks quantiles "
                f"{sorted(self._estimators)}, state has {sorted(saved)}"
            )
        buffer = state.get("buffer")
        self._buffer = None if buffer is None else [float(v) for v in buffer]
        for key, estimator_state in saved.items():
            self._estimators[float(key)].load_state_dict(estimator_state)


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
        self.scores = StreamingHistogram()
        self.train_losses = StreamingHistogram()
        self.n_participants = 0
        self.n_uploaded = 0
        self.n_forced = 0
        self.uploaded_bytes = 0
        self.status_bytes = 0
        self.layer_sign_agreement: Optional[List[float]] = None
        self.extra: Dict[str, Any] = {}
        # Runtime side (completion data replayed in participant order).
        self.compute = StreamingHistogram()
        self._slowest: List[Tuple[float, int]] = []

    # -- deterministic feed ---------------------------------------------

    def observe_decisions(
        self, scores: Sequence[float], train_losses: Sequence[float], n_uploaded: int
    ) -> None:
        """A cohort's decide-half outcomes, in participant order."""
        self.n_participants += len(scores)
        self.scores.observe_many(scores)
        self.train_losses.observe_many(train_losses)
        self.n_uploaded += n_uploaded

    # -- runtime feed ----------------------------------------------------

    def observe_tasks_rt(
        self, client_indices: Sequence[int], durs: Sequence[float]
    ) -> None:
        """A cohort's client tasks' wall-clock costs (runtime side)."""
        self.compute.observe_many(durs)
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
            "score": self.scores.summary(),
            "train_loss": self.train_losses.summary(),
        }
        if self.layer_sign_agreement is not None:
            out["layer_sign_agreement"] = list(self.layer_sign_agreement)
        out.update(self.extra)
        return out

    def rt(self) -> Dict[str, Any]:
        """The runtime half (masked by the deterministic view)."""
        return {
            "compute_s": self.compute.summary(),
            "slowest": [[index, dur] for index, dur in self.slowest()],
        }
