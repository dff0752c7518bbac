"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    Module,
    claim_cache,
    keep_cache,
)

__all__ = ["BatchedFlatten", "Flatten"]


class Flatten(Module):
    """Collapse all axes but the batch axis: ``(N, ...) -> (N, prod(...))``."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x.reshape(x.shape[0], -1)
        keep_cache(self, training, out.shape, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(claim_cache(self, grad_output.shape))

    def batched(self, binder: BatchedParamBinder) -> "BatchedFlatten":
        del binder  # parameter-free
        return BatchedFlatten()


class BatchedFlatten(BatchedModule):
    """Counterpart of :class:`Flatten` keeping the leading client axis:
    ``(C, N, ...) -> (C, N, prod(...))`` — pure data movement."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim < 3:
            raise ValueError(f"expected >= 3-D input, got shape {x.shape}")
        out = x.reshape(x.shape[0], x.shape[1], -1)
        keep_cache(self, training, out.shape, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(claim_cache(self, grad_output.shape))
