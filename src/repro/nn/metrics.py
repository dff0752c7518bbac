"""Prediction metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "binary_accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``(batch, classes)`` logits against integer labels."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels must be 1-D and match the batch size")
    if labels.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def binary_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of single-logit binary predictions (threshold at 0)."""
    logits = np.asarray(logits).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if logits.shape != labels.shape:
        raise ValueError("logits and labels must align")
    if labels.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float(np.mean((logits > 0).astype(int) == labels.astype(int)))
