"""Pluggable destinations for trace events.

Sinks receive finished event dicts (see :mod:`repro.obs.tracer` for the
schema) in emission order.  Two are shipped:

* :class:`MemorySink` — keeps events in a list (tests, in-process
  inspection);
* :class:`JsonlSink` — one JSON object per line, opened lazily so an
  enabled-but-never-used tracer creates no file.

``python -m repro.obs report`` renders the per-phase table of a JSONL
trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.utils.atomic_io import atomic_write, fsync_file

__all__ = [
    "JsonlSink",
    "MemorySink",
    "TraceSink",
    "encode_event",
    "truncate_trace",
]


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars (which expose ``.item()``) without importing
    numpy — the obs layer stays stdlib-only."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def encode_event(event: Dict[str, Any]) -> str:
    """The canonical wire encoding: compact, key-sorted JSON."""
    return json.dumps(
        event, sort_keys=True, separators=(",", ":"), default=_json_default
    )


class TraceSink:
    """Interface: receive events in order, release resources on close."""

    def emit(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to stable storage; a no-op by default."""

    def close(self) -> None:
        """Flush and release; idempotent."""


class MemorySink(TraceSink):
    """Collects events in-process; the default sink for tests.

    Unbounded: on a population-scale run the event list itself becomes
    O(population·rounds).  Use a :class:`JsonlSink` when a long run's
    stream must be kept.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(TraceSink):
    """Streams events to a JSON-lines file (the ``trace_path`` format).

    A *streaming* writer, deliberately not atomic: events must land in
    the final file as the run progresses so a killed run's trace can be
    recovered (the checkpoint layer truncates it back to the last
    durable event with :func:`truncate_trace`).  Crash safety comes from
    the line-oriented format plus explicit :meth:`flush` fsyncs at
    checkpoint boundaries and on close.  ``mode="a"`` continues an
    existing file — how a resumed run extends the original trace.
    """

    def __init__(self, path: Union[str, Path], mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._fh: Optional[TextIO] = None

    def emit(self, event: Dict[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, self.mode, encoding="utf-8")
        self._fh.write(encode_event(event))
        self._fh.write("\n")

    def flush(self) -> None:
        if self._fh is not None:
            fsync_file(self._fh)

    def close(self) -> None:
        if self._fh is not None:
            fsync_file(self._fh)
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return f"JsonlSink({str(self.path)!r}, mode={self.mode!r})"


def truncate_trace(path: Union[str, Path], upto_seq: int) -> int:
    """Atomically cut a JSONL trace back to events with ``seq < upto_seq``.

    The recovery step before a resumed run reopens its trace in append
    mode: events past the checkpoint's sequence counter (a killed run's
    partial round) are dropped, as is any half-written trailing line the
    kill left behind.  Returns how many events were kept; the caller
    checks it equals ``upto_seq`` before continuing the stream.
    """
    if upto_seq < 0:
        raise ValueError(f"upto_seq must be >= 0, got {upto_seq}")
    kept: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = line.strip()
            if not record:
                continue
            try:
                event = json.loads(record)
            except json.JSONDecodeError:
                break  # half-written tail from a crash; drop it
            if int(event.get("seq", 0)) >= upto_seq:
                break
            kept.append(record)
    with atomic_write(path, "w") as fh:
        for record in kept:
            fh.write(record)
            fh.write("\n")
    return len(kept)
