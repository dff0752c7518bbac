"""Global-update feedback estimation (paper Sec. IV-A).

The true global update of iteration t cannot be known before all local
updates are aggregated, so CMFL estimates it with the update of
iteration t-1.  The estimator here tracks that previous global update;
``normalized_update_difference`` is Eq. (8), the diagnostic the paper
uses (Fig. 3) to justify the estimate: for >93-99% of iterations
||u_{t+1} - u_t|| / ||u_t|| stays below 0.05.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "GlobalUpdateEstimator",
    "normalized_update_difference",
]


def normalized_update_difference(
    update_prev: np.ndarray, update_next: np.ndarray
) -> float:
    """Delta-Update of Eq. (8): ||next - prev||_2 / ||prev||_2."""
    prev = np.asarray(update_prev, dtype=float).reshape(-1)
    nxt = np.asarray(update_next, dtype=float).reshape(-1)
    if prev.shape != nxt.shape:
        raise ValueError("updates must have the same shape")
    denom = float(np.linalg.norm(prev))
    if denom == 0.0:
        raise ValueError("previous update has zero norm")
    return float(np.linalg.norm(nxt - prev)) / denom


class GlobalUpdateEstimator:
    """Holds the previous global update as the estimate for the current one.

    Also records the history of Delta-Update values so experiments can
    reproduce the paper's Fig. 3 without extra bookkeeping.  A staleness
    of k > 1 (use the update from k iterations ago) is supported for the
    feedback-staleness ablation.
    """

    def __init__(self, n_params: int, staleness: int = 1) -> None:
        if n_params < 1:
            raise ValueError("n_params must be >= 1")
        if staleness < 1:
            raise ValueError("staleness must be >= 1")
        self.n_params = n_params
        self.staleness = staleness
        self._history: List[np.ndarray] = []
        self.delta_updates: List[float] = []

    @property
    def estimate(self) -> np.ndarray:
        """Current feedback u_bar (zeros before any global update exists)."""
        if len(self._history) < self.staleness:
            return np.zeros(self.n_params, dtype=float)
        return self._history[-self.staleness]

    @property
    def last(self) -> Optional[np.ndarray]:
        return self._history[-1] if self._history else None

    def observe(self, global_update: np.ndarray) -> None:
        """Record the global update the server just produced."""
        update = np.asarray(global_update, dtype=float).reshape(-1)
        if update.size != self.n_params:
            raise ValueError(
                f"expected {self.n_params} parameters, got {update.size}"
            )
        if self._history and np.any(self._history[-1]):
            self.delta_updates.append(
                normalized_update_difference(self._history[-1], update)
            )
        self._history.append(update.copy())
        # Only the last ``staleness`` updates are ever read back.
        if len(self._history) > self.staleness:
            self._history = self._history[-self.staleness :]

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot for checkpointing: the retained update history plus
        the Delta-Update record (arrays are copied)."""
        return {
            "n_params": self.n_params,
            "staleness": self.staleness,
            "history": [u.copy() for u in self._history],
            "delta_updates": list(self.delta_updates),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this estimator."""
        if int(state["n_params"]) != self.n_params:
            raise ValueError(
                f"estimator state is for {state['n_params']} parameters, "
                f"not {self.n_params}"
            )
        if int(state["staleness"]) != self.staleness:
            raise ValueError(
                f"estimator state has staleness {state['staleness']}, "
                f"not {self.staleness}"
            )
        history = [
            np.asarray(u, dtype=float).reshape(-1) for u in state["history"]
        ]
        if len(history) > self.staleness:
            raise ValueError(
                f"estimator state holds {len(history)} updates; at most "
                f"{self.staleness} are retained"
            )
        for u in history:
            if u.size != self.n_params:
                raise ValueError(
                    f"estimator state update has {u.size} parameters, "
                    f"expected {self.n_params}"
                )
        self._history = [u.copy() for u in history]
        self.delta_updates = [float(d) for d in state["delta_updates"]]
