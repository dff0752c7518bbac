"""Task relationship matrices.

MOCHA regularises the task weight matrix W (features x tasks) with
(lambda/2) tr(W Omega^{-1} W^T), where the relationship matrix Omega is
re-estimated from W itself by the closed form of Zhang & Yeung's
multi-task relationship learning:

    Omega = (W^T W)^{1/2} / tr((W^T W)^{1/2}).

A small ridge keeps the inverse well conditioned early in training when
W is near zero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["relationship_matrix"]


def relationship_matrix(weights: np.ndarray, ridge: float = 1e-3) -> np.ndarray:
    """Omega from the current task weights ``(n_features, n_tasks)``.

    Returns a symmetric positive-definite ``(n_tasks, n_tasks)`` matrix
    with unit trace (up to the ridge).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    n_tasks = w.shape[1]
    gram = w.T @ w + ridge * np.eye(n_tasks)
    # gram is symmetric positive semi-definite, so its principal root is
    # V diag(sqrt(lambda)) V^T; round-off can push a zero eigenvalue
    # (ridge 0, rank-deficient W) just below zero.
    values, vectors = np.linalg.eigh(gram)
    root = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.T
    trace = float(np.trace(root))
    if trace <= 0:
        raise ValueError("degenerate task weights: non-positive trace")
    omega = root / trace
    # Symmetrise against round-off.
    return (omega + omega.T) / 2.0
