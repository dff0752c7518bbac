"""Shape-manipulation layers."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.module import BatchedModule, BatchedParamBinder, Module

__all__ = ["BatchedFlatten", "Flatten"]


class Flatten(Module):
    """Collapse all axes but the batch axis: ``(N, ...) -> (N, prod(...))``."""

    def __init__(self) -> None:
        self._in_shape: Tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._in_shape)

    def batched(self, binder: BatchedParamBinder) -> "BatchedFlatten":
        del binder  # parameter-free
        return BatchedFlatten()


class BatchedFlatten(BatchedModule):
    """Counterpart of :class:`Flatten` keeping the leading client axis:
    ``(C, N, ...) -> (C, N, prod(...))`` — pure data movement."""

    def __init__(self) -> None:
        self._in_shape: Tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim < 3:
            raise ValueError(f"expected >= 3-D input, got shape {x.shape}")
        self._in_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._in_shape)
