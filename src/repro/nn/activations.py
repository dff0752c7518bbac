"""Elementwise activation layers and their stable functional forms."""

from __future__ import annotations

import numpy as np

from repro.nn.module import (
    BatchedParamBinder,
    BatchedStateless,
    Module,
    claim_cache,
    keep_cache,
)

__all__ = ["ReLU", "select_grad", "sigmoid", "softmax"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``e = exp(-|x|)`` never overflows, and each element takes the
    quotient of its own sign: ``1 / (1 + e)`` for ``x >= 0``,
    ``e / (1 + e)`` below — the same ``exp`` argument and the same
    division per element as selecting the two halves with a boolean
    mask first, without the two gathers and two scatters that costs.
    """
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def select_grad(mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``where(mask, grad, 0.0)`` for a boolean ``mask``, byte for
    byte, without the per-element branch (which mispredicts on every
    other element of an activation mask).

    The float64 bit patterns are ANDed with the mask sign-extended to
    all-ones / all-zeros, so a kept gradient keeps every bit (``-0.0``,
    ``Inf``, NaN payloads) and a dropped one becomes ``+0.0``.  A float
    multiply is as fast but is not that select: it turns a dropped
    ``Inf`` into NaN and a dropped negative into ``-0.0``.
    """
    bits = np.asarray(grad, dtype=np.float64).view(np.int64)
    return (bits & np.negative(mask.view(np.int8))).view(np.float64)


class ReLU(Module):
    """max(0, x)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        keep_cache(self, training, x.shape, x > 0)
        # maximum(x, 0.0) selects exactly what where(mask, x, 0.0)
        # would (+0.0 for every non-positive input) in one pass.
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return select_grad(claim_cache(self, grad_output.shape), grad_output)

    def batched(self, binder: BatchedParamBinder) -> BatchedStateless:
        del binder  # parameter-free
        return BatchedStateless(ReLU())
