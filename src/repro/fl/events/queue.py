"""The engine's event queue: a totally ordered min-heap.

Events sort by ``(time, kind, iteration, client_id)`` — a *total*
order, so the pop sequence is unambiguous whatever insertion order the
handlers used, and bitwise-identical across runs and resumes.  At equal
times arrivals (kind 0) are processed before dispatches (kind 1): a
result that lands exactly when the next round would start is admitted
first, so a round it completes closes before that dispatch.

Round closes are deliberately *not* heap events — the engine triggers
them in round order from the arrival handler, so a close can never be
reordered against the arrival that completed it.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, NamedTuple

__all__ = ["ARRIVAL", "DISPATCH", "Event", "EventQueue"]

#: Event kinds, in tie-break priority order (lower pops first).
ARRIVAL = 0
DISPATCH = 1

_KINDS = (ARRIVAL, DISPATCH)


class Event(NamedTuple):
    """One scheduled occurrence on the virtual timeline.

    A tuple, so the heap orders events by ``(time, kind, iteration,
    client_id)`` without calling back into Python.
    """

    time: float
    kind: int
    iteration: int
    client_id: int = -1


class EventQueue:
    """Deterministic min-heap of :class:`Event`."""

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def push(self, event: Event) -> None:
        if event.kind not in _KINDS:
            raise ValueError(f"unknown event kind {event.kind}")
        heapq.heappush(self._heap, event)

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self):
        """The pending events in sorted (pop) order."""
        return iter(sorted(self._heap))

    def has_kind(self, kind: int) -> bool:
        """Whether any pending event is of ``kind``."""
        return any(event.kind == kind for event in self._heap)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot: the pending events in sorted order."""
        return {
            "events": [
                [e.time, e.kind, e.iteration, e.client_id] for e in self
            ]
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._heap = []
        for t, k, i, c in state["events"]:  # sorted: each push is O(1)
            self.push(Event(float(t), int(k), int(i), int(c)))

    def __repr__(self) -> str:
        return f"EventQueue({len(self._heap)} pending)"
