"""repro.fl.events — the deterministic asynchronous federation engine.

A discrete-event coordinator over a virtual clock: client compute
latencies come from pure per-(round, client) hash streams, results are
admitted as they arrive, and aggregation is staleness-weighted under a
hard bound S (at ``S=0`` history and parameters are the synchronous
trainer's, apart from the recorded ``virtual_time``).
See DESIGN.md §6g for the event-schedule determinism contract and the
README's "Async federation & event-triggered uploads" section for a
worked example.
"""

from repro.fl.events.clock import VirtualClock
from repro.fl.events.config import AsyncConfig
from repro.fl.events.engine import AsyncFederatedTrainer
from repro.fl.events.latency import ClientTiming, LatencyModel
from repro.fl.events.queue import ARRIVAL, DISPATCH, Event, EventQueue

__all__ = [
    "ARRIVAL",
    "DISPATCH",
    "AsyncConfig",
    "AsyncFederatedTrainer",
    "ClientTiming",
    "Event",
    "EventQueue",
    "LatencyModel",
    "VirtualClock",
]
