"""Communication accounting (paper Sec. II-B).

The paper's primary metric is the *accumulated communication rounds*
Phi = sum_t |S_t| -- the total number of full updates uploaded.  The
EC2 experiment (Fig. 7b) additionally reports the uploaded byte volume,
where a filtered client sends only a tiny status message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.nn.serialization import STATUS_MESSAGE_BYTES, update_nbytes

__all__ = ["CommunicationLedger"]


@dataclass
class CommunicationLedger:
    """Running totals of uploads, skips and bytes for one federated run.

    A traced run carries the same per-round numbers in its
    ``round_rollup`` events; ``python -m repro.obs export`` sums them
    back into the ``comm.*`` totals.
    """

    n_params: int
    accumulated_rounds: int = 0
    uploaded_bytes: int = 0
    status_bytes: int = 0
    skips_per_client: Dict[int, int] = field(default_factory=dict)
    uploads_per_client: Dict[int, int] = field(default_factory=dict)
    rounds_per_iteration: List[int] = field(default_factory=list)
    staleness_total: int = 0
    staleness_max: int = 0

    def __post_init__(self) -> None:
        if self.n_params < 1:
            raise ValueError("n_params must be >= 1")

    def record_round(
        self,
        uploaded_ids: List[int],
        skipped_ids: List[int],
        staleness: int = 0,
    ) -> Tuple[int, int]:
        """Account one iteration's traffic; returns the round's
        ``(uploaded_bytes, status_bytes)``, which its rollup carries.

        ``staleness`` is the round's aggregation staleness (0 under the
        synchronous trainer); the ledger keeps the running total and
        maximum so byte accounting and staleness accounting travel
        together through checkpoints.
        """
        r_t = len(uploaded_ids)
        self.staleness_total += int(staleness)
        if staleness > self.staleness_max:
            self.staleness_max = int(staleness)
        self.accumulated_rounds += r_t
        self.rounds_per_iteration.append(r_t)
        uploaded_bytes = r_t * update_nbytes(self.n_params)
        status_bytes = len(skipped_ids) * STATUS_MESSAGE_BYTES
        self.uploaded_bytes += uploaded_bytes
        self.status_bytes += status_bytes
        for cid in uploaded_ids:
            self.uploads_per_client[cid] = self.uploads_per_client.get(cid, 0) + 1
        for cid in skipped_ids:
            self.skips_per_client[cid] = self.skips_per_client.get(cid, 0) + 1
        return uploaded_bytes, status_bytes

    @property
    def total_bytes(self) -> int:
        """All upstream traffic: full updates plus skip-status messages."""
        return self.uploaded_bytes + self.status_bytes

    def total_megabytes(self) -> float:
        return self.total_bytes / 1e6

    def elimination_counts(self, n_clients: int) -> List[int]:
        """Per-client skip counts, densely indexed 0..n_clients-1 (Fig. 6 input)."""
        return [self.skips_per_client.get(c, 0) for c in range(n_clients)]

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of the running totals: plain ints, plus — under
        ``"arrays"`` — the three tables as int64 arrays (the per-client
        ones as ``<table>/ids`` + ``<table>/counts`` sorted by id), so a
        checkpoint stores them as array members, not as one JSON key
        per client ever touched."""
        return {
            "n_params": self.n_params,
            "accumulated_rounds": self.accumulated_rounds,
            "uploaded_bytes": self.uploaded_bytes,
            "status_bytes": self.status_bytes,
            "staleness_total": self.staleness_total,
            "staleness_max": self.staleness_max,
            "arrays": {
                **_table_arrays("skips_per_client", self.skips_per_client),
                **_table_arrays("uploads_per_client", self.uploads_per_client),
                "rounds_per_iteration": np.asarray(
                    self.rounds_per_iteration, dtype=np.int64
                ),
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (``metrics`` binding is
        left untouched — counters resume from the tracer's own state)."""
        if int(state["n_params"]) != self.n_params:
            raise ValueError(
                f"ledger state is for {state['n_params']} parameters, "
                f"not {self.n_params}"
            )
        self.accumulated_rounds = int(state["accumulated_rounds"])
        self.uploaded_bytes = int(state["uploaded_bytes"])
        self.status_bytes = int(state["status_bytes"])
        self.staleness_total = int(state["staleness_total"])
        self.staleness_max = int(state["staleness_max"])
        arrays = state["arrays"]
        self.skips_per_client = _table_dict(arrays, "skips_per_client")
        self.uploads_per_client = _table_dict(arrays, "uploads_per_client")
        self.rounds_per_iteration = arrays["rounds_per_iteration"].tolist()


def _table_arrays(name: str, table: Dict[int, int]) -> Dict[str, np.ndarray]:
    """A per-client count table as ``<name>/ids`` + ``<name>/counts``,
    sorted by id so equal tables give equal bytes whatever their
    insertion order."""
    ids = np.fromiter(table, dtype=np.int64, count=len(table))
    counts = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    order = np.argsort(ids)
    return {f"{name}/ids": ids[order], f"{name}/counts": counts[order]}


def _table_dict(arrays: Dict[str, np.ndarray], name: str) -> Dict[int, int]:
    """Inverse of :func:`_table_arrays`."""
    ids, counts = arrays[f"{name}/ids"], arrays[f"{name}/counts"]
    if len(ids) != len(counts):
        raise ValueError(
            f"ledger table {name!r} has {len(ids)} ids but {len(counts)} counts"
        )
    return dict(zip(ids.tolist(), counts.tolist()))
