"""Server-side aggregation rules.

The paper's Algorithm 1 line 8 is a plain mean over the received
(relevant) updates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fl.client import ClientUpdate

__all__ = ["mean_aggregate"]


def mean_aggregate(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """u_bar = (1/|S|) * sum of received updates (Algorithm 1, line 8)."""
    if not updates:
        raise ValueError("cannot aggregate zero updates")
    stacked = np.stack([u.update for u in updates])
    return stacked.mean(axis=0)
