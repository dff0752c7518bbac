"""Series smoothing helpers used when reading noisy accuracy curves."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["moving_average"]


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average with a warm-up (partial windows at the start).

    The output has the same length as the input; entry ``i`` averages
    ``values[max(0, i - window + 1) : i + 1]``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("moving_average expects a 1-D sequence")
    if arr.size == 0 or window == 1:
        return arr.copy()
    csum = np.cumsum(arr)
    out = np.empty_like(arr)
    for i in range(arr.size):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out
