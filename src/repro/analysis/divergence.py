"""Normalized Model Divergence (paper Eq. 7, Figs. 1 and 6).

For each model parameter x_j, the divergence is the average over
clients of |x_{j,k} - xbar_j| / |xbar_j| -- how far the client-side
values stray from the global value, normalised by the global value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["normalized_model_divergence"]

_EPS = 1e-12


def normalized_model_divergence(
    client_params: Sequence[np.ndarray], global_params: np.ndarray
) -> np.ndarray:
    """d_j for every parameter; returns a vector of length n_params.

    ``client_params`` is one flat parameter vector per client, all the
    same length as ``global_params``.  Global parameters that are
    exactly zero are guarded with a tiny epsilon (the paper's data never
    hits them, ours should not either, but dividing by zero would
    poison the CDF).
    """
    global_flat = np.asarray(global_params, dtype=float).reshape(-1)
    if global_flat.size == 0:
        raise ValueError("global parameters cannot be empty")
    if not client_params:
        raise ValueError("need at least one client parameter vector")
    stack = np.stack(
        [np.asarray(c, dtype=float).reshape(-1) for c in client_params]
    )
    if stack.shape[1] != global_flat.size:
        raise ValueError(
            f"client vectors have {stack.shape[1]} parameters, "
            f"global has {global_flat.size}"
        )
    denom = np.maximum(np.abs(global_flat), _EPS)
    return np.mean(np.abs(stack - global_flat[None, :]), axis=0) / denom
