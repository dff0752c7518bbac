"""Empirical-distribution statistics (the paper plots CDFs in Figs. 1, 3, 6)."""

from __future__ import annotations

import numpy as np

__all__ = ["fraction_below", "quantile"]


def fraction_below(values: np.ndarray, threshold: float) -> float:
    """P(X <= threshold) under the empirical distribution."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("cannot evaluate an empty sample")
    return float(np.mean(arr <= threshold))


def quantile(values: np.ndarray, q: float) -> float:
    """The q-quantile (q in [0, 1]) of the sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("cannot evaluate an empty sample")
    return float(np.quantile(arr, q))
