"""Counters, gauges and histograms for the observability layer.

A :class:`MetricsRegistry` is a named collection of instruments.
Counter and gauge updates are (optionally) streamed as ``metric``
events through the owning tracer's sinks, so a trace file carries the
full metric history, not just final values.  Histograms are the
exception: one event per observation would make the trace itself
O(population·rounds) on population-scale runs, so a histogram keeps a
constant-memory streaming summary (exact count/total/min/max plus P²
p50/p90/p99 — see :class:`repro.obs.rollup.StreamingHistogram`) and
surfaces it in the close-time ``metrics_snapshot`` event and the
per-round ``round_rollup`` events instead.

Metric names are not free-form: :class:`MetricsRegistry` refuses to
create an instrument whose name is not declared in the
:mod:`repro.obs.names` registry, so a typo'd name fails the run instead
of opening a separate, silently empty time series.

Determinism contract (see :mod:`repro.obs.tracer`): a metric whose name
starts with ``runtime.`` is *runtime-dependent* — its values (queue
waits, pool restarts, worker timings) vary with scheduling and backend.
Runtime metrics carry their values inside the event's ``rt`` attribute
and are dropped entirely by :func:`repro.obs.report.deterministic_view`,
so traces of the same run under different execution backends digest
identically.  Everything else (uploads, rejected updates, bytes on the
wire) must be bitwise-deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.names import METRIC_NAMES
from repro.obs.rollup import StreamingHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "RUNTIME_PREFIX",
]

#: Metric-name prefix marking runtime-dependent (nondeterministic) data.
RUNTIME_PREFIX = "runtime."

#: Emit callback: (name, metric_type, fields, runtime) -> None.
EmitFn = Callable[[str, str, Dict[str, Any], bool], None]


class _Instrument:
    """Shared plumbing: a name, a runtime flag and the emit callback."""

    metric_type = "instrument"
    __slots__ = ("name", "runtime", "_emit")

    def __init__(self, name: str, emit: Optional[EmitFn] = None) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.runtime = name.startswith(RUNTIME_PREFIX)
        self._emit = emit

    def _stream(self, fields: Dict[str, Any]) -> None:
        if self._emit is not None:
            self._emit(self.name, self.metric_type, fields, self.runtime)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Instrument):
    """A monotonically increasing count (uploads, bytes, restarts)."""

    metric_type = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, emit: Optional[EmitFn] = None) -> None:
        super().__init__(name, emit)
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r}: delta must be >= 0")
        self.value += delta
        self._stream({"delta": delta, "value": self.value})

    def summary(self) -> Dict[str, Any]:
        return {"type": self.metric_type, "value": self.value}


class Gauge(_Instrument):
    """A point-in-time value that can move both ways."""

    metric_type = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, emit: Optional[EmitFn] = None) -> None:
        super().__init__(name, emit)
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        self._stream({"value": value})

    def summary(self) -> Dict[str, Any]:
        return {"type": self.metric_type, "value": self.value}


class Histogram(_Instrument):
    """Bounded streaming summary over observed values (save times).

    Constant memory at any observation count: exact count/total/min/
    max plus P² quantile sketches (p50/p90/p99).  Deliberately does
    *not* stream a metric event per observation — see the module
    docstring; the summary reaches the trace through the close-time
    snapshot and the per-round rollups.
    """

    metric_type = "histogram"
    __slots__ = ("_sketch",)

    def __init__(self, name: str, emit: Optional[EmitFn] = None) -> None:
        super().__init__(name, emit)
        self._sketch = StreamingHistogram()

    def observe(self, value: float) -> None:
        self._sketch.observe(value)

    @property
    def count(self) -> int:
        return self._sketch.count

    @property
    def total(self) -> float:
        return self._sketch.total

    @property
    def min(self) -> Optional[float]:
        return self._sketch.min

    @property
    def max(self) -> Optional[float]:
        return self._sketch.max

    @property
    def mean(self) -> Optional[float]:
        return self._sketch.mean

    def quantile(self, p: float) -> Optional[float]:
        return self._sketch.quantile(p)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": self.metric_type}
        out.update(self._sketch.summary())
        return out

    def state_dict(self) -> Dict[str, Any]:
        """Exact sketch state, for bitwise checkpoint resume."""
        return self._sketch.state_dict()

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._sketch.load_state_dict(state)


class MetricsRegistry:
    """Get-or-create store of named instruments.

    ``emit`` (wired up by :class:`~repro.obs.tracer.Tracer`) streams
    every update into the trace; a registry constructed without it is a
    plain in-memory store, usable standalone in tests.  Creating an
    instrument (by call site or by :meth:`restore`) whose name is not
    in :data:`~repro.obs.names.METRIC_NAMES` raises ``ValueError``.
    """

    def __init__(self, emit: Optional[EmitFn] = None) -> None:
        self._emit = emit
        self._metrics: Dict[str, _Instrument] = {}

    def _get(self, name: str, cls: type) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        if name not in METRIC_NAMES:
            raise ValueError(
                f"metric name {name!r} is not declared in "
                "repro.obs.names.METRIC_NAMES"
            )
        instrument = cls(name, emit=self._emit)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, runtime: Optional[bool] = None) -> Dict[str, Dict]:
        """Name-sorted ``{name: summary}``; filter by the runtime flag.

        ``runtime=False`` returns only deterministic metrics (safe to
        compare across execution backends), ``runtime=True`` only the
        ``runtime.*`` namespace, ``None`` everything.
        """
        return {
            name: metric.summary()
            for name, metric in sorted(self._metrics.items())
            if runtime is None or metric.runtime == runtime
        }

    def export_state(self) -> Dict[str, Dict]:
        """Serialisable snapshot of every instrument, for checkpoints.

        Histograms additionally carry their exact sketch state (the P²
        marker arrays) under ``state``, so a resumed run's quantile
        estimators continue the original observation sequence bitwise.
        """
        out: Dict[str, Dict] = {}
        for name, metric in sorted(self._metrics.items()):
            entry = metric.summary()
            if isinstance(metric, Histogram):
                entry = dict(entry)
                entry["state"] = metric.state_dict()
            out[name] = entry
        return out

    def restore(self, state: Dict[str, Dict]) -> None:
        """Reinstate instruments from :meth:`export_state` output.

        Sets instrument values directly — nothing is streamed to the
        trace — so a resumed run's next update continues the original
        value sequence exactly (counters keep counting from where the
        checkpointed run left off).
        """
        classes = {
            cls.metric_type: cls for cls in (Counter, Gauge, Histogram)
        }
        for name, summary in state.items():
            cls = classes.get(str(summary.get("type")))
            if cls is None:
                raise ValueError(
                    f"metric {name!r} has unknown type "
                    f"{summary.get('type')!r} in checkpoint state"
                )
            instrument = self._get(name, cls)
            if cls is Histogram:
                instrument.load_state_dict(summary["state"])
            else:
                instrument.value = summary["value"]


class _NullInstrument:
    """Accepts any update and does nothing; shared singleton."""

    __slots__ = ()
    value = None
    count = 0
    total = 0.0

    def inc(self, delta: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> Dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """The disabled-path registry: every lookup is the same no-op object.

    Keeps instrumented call sites (``metrics.counter(...).inc(...)``)
    allocation-free when tracing is off.
    """

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def snapshot(self, runtime: Optional[bool] = None) -> Dict[str, Dict]:
        return {}
