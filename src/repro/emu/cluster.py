"""The master/slave cluster emulation.

A pure function of a finished run: :func:`emulate_cluster` walks the
round records of a :class:`~repro.fl.history.RunHistory` and replays
each synchronous round through the link/compute models:

1. the master broadcasts the model (+ feedback) to every slave;
2. every slave trains locally and runs its upload-policy check;
3. uploading slaves send a full UPDATE, filtered slaves a STATUS;
4. the barrier closes when the slowest slave's upload lands.

The report keeps a byte ledger per message kind and a per-round timing
record, which together generate Fig. 7a (accuracy vs rounds on the
cluster), Fig. 7b (uploaded data volume at given accuracies) and the
Sec. V-C computation-overhead numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.emu.messages import MessageKind, message_size
from repro.emu.network import LinkModel, NodeComputeModel
from repro.fl.history import RunHistory

__all__ = ["EmulationReport", "RoundTiming", "emulate_cluster"]


@dataclass
class RoundTiming:
    """Wall-clock decomposition of one emulated round (seconds)."""

    iteration: int
    broadcast_time: float
    slowest_compute_time: float
    slowest_upload_time: float
    relevance_check_time: float

    @property
    def total(self) -> float:
        return self.broadcast_time + self.slowest_compute_time + self.slowest_upload_time


@dataclass
class EmulationReport:
    """Aggregate outcome of an emulated run."""

    n_clients: int
    n_params: int
    simulated_seconds: float = 0.0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    timings: List[RoundTiming] = field(default_factory=list)

    @property
    def uploaded_megabytes(self) -> float:
        """Upstream full-update traffic in MB (the Fig. 7b y-axis)."""
        return self.bytes_by_kind.get(MessageKind.UPDATE.value, 0) / 1e6

    def relevance_overhead_fraction(self) -> float:
        """Mean (relevance-check time / local-compute time) per round."""
        if not self.timings:
            raise ValueError("no rounds emulated")
        fractions = [
            t.relevance_check_time / t.slowest_compute_time
            for t in self.timings
            if t.slowest_compute_time > 0
        ]
        if not fractions:
            raise ValueError("no rounds with positive compute time")
        return float(np.mean(fractions))


def emulate_cluster(
    history: RunHistory,
    client_sizes: Mapping[int, int],
    n_params: int,
    local_epochs: int,
    link: Optional[LinkModel] = None,
    compute: Optional[NodeComputeModel] = None,
    feedback_in_broadcast: bool = True,
) -> EmulationReport:
    """Replay the finished ``history`` through network and compute models.

    ``client_sizes`` maps each client id of the federation to its local
    sample count.  The emulation models the paper's full-participation
    barrier: a round that did not involve every client in
    ``client_sizes`` is refused rather than billed for absent clients.
    """
    link = link or LinkModel()
    compute = compute or NodeComputeModel()
    n_clients = len(client_sizes)
    report = EmulationReport(n_clients=n_clients, n_params=n_params)
    ledger = report.bytes_by_kind

    def account(kind: MessageKind, count: int = 1) -> int:
        total = count * message_size(
            kind, n_params, with_feedback=feedback_in_broadcast
        )
        ledger[kind.value] = ledger.get(kind.value, 0) + total
        return total

    compute_times = [
        compute.local_training_time(n_samples, local_epochs)
        for n_samples in client_sizes.values()
    ]
    check_time = compute.relevance_check_time(n_params)
    for record in history.records:
        if record.n_clients != n_clients:
            raise ValueError(
                f"round {record.iteration} had {record.n_clients} "
                f"participants but the emulated cluster has {n_clients} "
                "clients; the emulation models full participation only"
            )
        broadcast_bytes = account(MessageKind.MODEL_BROADCAST, count=n_clients)
        # The master serialises broadcasts per slave; slaves receive in
        # parallel, so the barrier cost is one transfer.
        broadcast_time = link.transfer_time(broadcast_bytes // n_clients)

        uploaded = set(record.uploaded_ids)
        upload_times = []
        for client_id in client_sizes:
            kind = (
                MessageKind.UPDATE
                if client_id in uploaded
                else MessageKind.STATUS
            )
            upload_times.append(link.transfer_time(account(kind)))

        timing = RoundTiming(
            iteration=record.iteration,
            broadcast_time=broadcast_time,
            slowest_compute_time=max(compute_times) + check_time,
            slowest_upload_time=max(upload_times),
            relevance_check_time=check_time,
        )
        report.timings.append(timing)
        report.simulated_seconds += timing.total
    return report
