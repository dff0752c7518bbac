"""The central metric-name registry.

Every instrument a :class:`~repro.obs.metrics.MetricsRegistry` creates
must be named here: the registry raises ``ValueError`` on any other name
(at a call site or in a restored checkpoint), so a typo'd metric name
fails the run instead of opening a silently separate time series.

Names follow the namespace conventions of the determinism contract
(DESIGN.md §6c): ``runtime.*`` values are wall-clock/scheduling
dependent and masked from the deterministic view; everything else must
be a pure function of the run.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES"]

#: Every fixed metric name in the tree, namespace-sorted.
METRIC_NAMES = frozenset(
    {
        # async.* — the discrete-event engine (repro.fl.events).  All
        # deterministic: event times come from the virtual clock, a
        # pure function of (seed, config), never the wall clock.
        "async.arrivals",
        "async.closes",
        "async.deferred_dispatches",
        "async.dispatches",
        "async.drops",
        "async.staleness",
        "async.virtual_time",
        # comm.* — the paper's communication measurements (deterministic;
        # reconciled byte-for-byte against the CommunicationLedger).
        "comm.skips",
        "comm.status_bytes",
        "comm.uploaded_bytes",
        "comm.uploads",
        # store.* — sharded population-store accounting (deterministic
        # for a fixed seed/sampler).
        "store.checkouts",
        "store.rows_written",
        "store.shards_materialized",
        # ckpt.* — run-state persistence.
        "ckpt.saves",
        # runtime.* — scheduling/wall-clock dependent, rt-isolated.
        "runtime.ckpt.bytes",
        "runtime.ckpt.save_s",
        "runtime.executor.batched_fallbacks",
    }
)
