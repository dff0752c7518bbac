"""The central server: global model state plus feedback broadcasting."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.feedback import GlobalUpdateEstimator
from repro.fl.aggregation import mean_aggregate
from repro.fl.client import ClientUpdate

__all__ = ["FLServer"]


class FLServer:
    """Holds the global parameters and aggregates received updates.

    Implements Algorithm 1's GlobalOptimization: after collecting the
    relevant updates S_t, the global update is their mean, the model is
    moved by it, and the update is remembered as the next round's
    feedback u_bar_t.
    """

    def __init__(
        self, initial_params: np.ndarray, feedback_staleness: int = 1
    ) -> None:
        params = np.asarray(initial_params, dtype=float).reshape(-1)
        if params.size == 0:
            raise ValueError("initial parameters cannot be empty")
        self.global_params = params.copy()
        self.estimator = GlobalUpdateEstimator(
            params.size, staleness=feedback_staleness
        )

    @property
    def n_params(self) -> int:
        return self.global_params.size

    @property
    def feedback(self) -> np.ndarray:
        """u_bar broadcast to clients alongside the global model."""
        return self.estimator.estimate

    def apply_round(
        self, updates: List[ClientUpdate], scale: float = 1.0
    ) -> Optional[np.ndarray]:
        """Aggregate ``updates`` and advance the global model.

        Returns the global update applied, or ``None`` when no updates
        arrived (the model and feedback are then left untouched).

        ``scale`` damps the merge — the async engine's staleness weight
        w(s): a stale round's aggregate moves the model (and feeds the
        next feedback) by only ``scale`` of itself.  The default 1.0
        skips the multiply entirely, so synchronous arithmetic is
        bitwise what it always was.
        """
        if not np.isfinite(scale) or scale <= 0.0:
            raise ValueError(f"scale must be a positive finite float, got {scale}")
        if not updates:
            return None
        for u in updates:
            if u.update.shape != (self.n_params,):
                raise ValueError(
                    f"client {u.client_id} sent an update of shape "
                    f"{u.update.shape}, expected ({self.n_params},)"
                )
        aggregate = mean_aggregate(updates)
        if scale != 1.0:
            aggregate = aggregate * scale
        self.global_params += aggregate
        self.estimator.observe(aggregate)
        return aggregate
